// Package appscript reimplements the instrumentation layer the paper
// builds with Google Apps Script (§3.1): per-account scripts, hidden
// inside an innocuous spreadsheet, that wake on time-based triggers,
// diff the mailbox, and report activity by sending notifications to a
// dedicated collector account.
//
// Faithful behaviours:
//
//   - A scan trigger fires every 10 minutes and reports newly read,
//     sent, and starred emails, plus full copies of created or edited
//     drafts.
//   - A heartbeat notification is sent once a day so the researchers
//     can tell a quiet account from a blocked one.
//   - Scripts keep running after hijackers change the account password
//     and even after Google suspends the account (§4.2) — triggers are
//     server-side, not session-bound.
//   - Scripts are hidden but not invisible: an attacker who looks for
//     them can delete them (§5 "Limitations"), after which monitoring
//     of that account goes dark.
//   - Heavy scripts draw quota notices ("using too much computer
//     time") delivered INTO the account inbox, which real attackers
//     read during the study (§4.7).
//
// The triggers are grouped, not per account: scripts sharing a cadence
// and phase ride one Scheduler.Every chain, and a scan tick visits
// only the accounts webmail marked dirty since the previous tick (see
// NewRuntime), so instrumenting an idle account costs nothing per
// scan.
package appscript

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/simtime"
	"repro/internal/webmail"
)

// NotificationKind labels what a script observed.
type NotificationKind int

const (
	NoteRead NotificationKind = iota
	NoteSent
	NoteStarred
	NoteDraft
	NoteHeartbeat
	NoteQuota
)

// String returns the label used in collector storage.
func (k NotificationKind) String() string {
	switch k {
	case NoteRead:
		return "read"
	case NoteSent:
		return "sent"
	case NoteStarred:
		return "starred"
	case NoteDraft:
		return "draft"
	case NoteHeartbeat:
		return "heartbeat"
	case NoteQuota:
		return "quota"
	default:
		return fmt.Sprintf("note(%d)", int(k))
	}
}

// Notification is one report from a honey account's script.
type Notification struct {
	Time    time.Time
	Account string
	Kind    NotificationKind
	Message webmail.MessageID // 0 for heartbeat/quota
	Body    string            // draft copy for NoteDraft
}

// Notifier receives script notifications; the monitor's collector
// implements it (the paper's "dedicated webmail account").
type Notifier interface {
	Notify(n Notification)
}

// NotifierFunc adapts a function to Notifier.
type NotifierFunc func(Notification)

// Notify implements Notifier.
func (f NotifierFunc) Notify(n Notification) { f(n) }

// Options configures one installed script.
type Options struct {
	// ScanInterval is the mailbox diff cadence; the paper scans every
	// 10 minutes. Zero selects 10 minutes.
	ScanInterval time.Duration
	// HeartbeatInterval is the liveness cadence; the paper sends one a
	// day. Zero selects 24 hours.
	HeartbeatInterval time.Duration
	// Hidden marks the script as tucked away in a spreadsheet. Visible
	// scripts are trivially found by any attacker who looks.
	Hidden bool
	// QuotaScans, when positive, delivers a quota notice into the
	// account inbox after this many scans have run. The paper's two
	// quota notices arrived because the scripts used "too much
	// computer time".
	QuotaScans int
}

func (o Options) withDefaults() Options {
	if o.ScanInterval <= 0 {
		o.ScanInterval = 10 * time.Minute
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 24 * time.Hour
	}
	return o
}

// script is one installed instance.
type script struct {
	account string
	opts    Options

	// scan and beat are the trigger groups the script rides; the slots
	// are its registration positions in them (and, for scan, its bit
	// in the group's dirty set).
	scan, beat         *group
	scanSlot, beatSlot int
	// scanFromNS and beatFromNS are install time + interval: the first
	// tick each group may fire the script on. A script installed at
	// the very instant its group's tick is due but has not run yet
	// waits one full interval, as a Scheduler.Every chain does.
	scanFromNS, beatFromNS int64
	// quotaAtNS is the scan tick the quota notice is due on — install
	// time + QuotaScans scan intervals, i.e. the QuotaScans-th tick the
	// script is eligible for — or 0 when none is pending.
	quotaAtNS int64

	lastSnap webmail.Snapshot
}

// groupKey identifies a trigger group: every script in it fires at
// instants ≡ phase (mod interval), in nanoseconds — the key the
// group's Scheduler.Every chain reports under in Scheduler.Chains.
type groupKey struct{ intervalNS, phaseNS int64 }

// group is one (interval, phase) set of scripts sharing a single
// Scheduler.Every chain. scripts is indexed by slot in registration
// order; a reinstall vacates the old slot (nil) and appends, so it
// moves the script to the end of its group.
type group struct {
	key     groupKey
	scripts []*script
	live    int
	stop    func()

	// Scan groups only: slots whose mailbox changed since their last
	// scan (webmail marks them), and the scripts with a quota notice
	// still pending.
	dirty *webmail.DirtySet
	quota []*script
}

// Runtime owns all installed scripts on a platform.
type Runtime struct {
	mu      sync.Mutex
	svc     *webmail.Service
	sched   *simtime.Scheduler
	sink    Notifier
	scripts map[string]*script
	scans   map[groupKey]*group
	beats   map[groupKey]*group

	// outbox collects a tick's notifications while mu is held; the
	// tick hands them to sink after unlocking, so a Notifier may call
	// back into the Runtime. Only ticks touch it, and they run one at a
	// time on the scheduler goroutine.
	outbox []Notification

	quotaSender string // From: address on quota notices
}

// NewRuntime wires the script engine to a platform and scheduler.
// Notifications go to sink, on the scheduler goroutine, in tick order.
// Scripts installed on the same cadence at the same phase
// form one group driven by one Scheduler.Every chain: a scan tick
// drains the group's dirty set — the slots webmail marked because
// their mailbox changed — and a heartbeat tick is one loop over the
// group's live scripts. A quiet account therefore costs nothing per
// scan tick, and the scheduler carries a handful of chains however
// many accounts are instrumented.
func NewRuntime(svc *webmail.Service, sched *simtime.Scheduler, sink Notifier) *Runtime {
	if svc == nil || sched == nil || sink == nil {
		panic("appscript: NewRuntime requires service, scheduler and notifier")
	}
	return &Runtime{
		svc:         svc,
		sched:       sched,
		sink:        sink,
		scripts:     make(map[string]*script),
		scans:       make(map[groupKey]*group),
		beats:       make(map[groupKey]*group),
		quotaSender: "apps-script-notifications@platform.example",
	}
}

// Install attaches a script to an account and starts its triggers.
// Installing over an existing script replaces it; the replacement
// starts from a fresh baseline at the end of its groups.
func (r *Runtime) Install(account string, opts Options) error {
	opts = opts.withDefaults()
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.scripts[account]; ok {
		r.removeLocked(old)
	}
	nowNS := r.sched.Clock().Now().UnixNano()
	scanKey, beatKey := keyAt(opts.ScanInterval, nowNS), keyAt(opts.HeartbeatInterval, nowNS)
	scan, beat := r.scans[scanKey], r.beats[beatKey]
	if scan == nil {
		scan = &group{key: scanKey, dirty: new(webmail.DirtySet)}
	}
	if beat == nil {
		beat = &group{key: beatKey}
	}
	// Watch before taking the baseline: a change racing the install
	// then lands in the baseline or marks the slot (a redundant scan,
	// never a missed one).
	if err := r.svc.Watch(account, scan.dirty, len(scan.scripts)); err != nil {
		return fmt.Errorf("appscript: install on %s: %w", account, err)
	}
	snap, err := r.svc.Snapshot(account)
	if err != nil {
		_ = r.svc.Watch(account, nil, 0) // best-effort detach; the snapshot error is the one to report
		return fmt.Errorf("appscript: install on %s: %w", account, err)
	}
	sc := &script{
		account: account, opts: opts, lastSnap: snap,
		scan: scan, beat: beat,
		scanFromNS: nowNS + int64(opts.ScanInterval),
		beatFromNS: nowNS + int64(opts.HeartbeatInterval),
	}
	r.armLocked(r.scans, scan, "appscript-scan", r.scanTick)
	sc.scanSlot = scan.add(sc)
	r.armLocked(r.beats, beat, "appscript-heartbeat", r.heartbeatTick)
	sc.beatSlot = beat.add(sc)
	if q := int64(opts.QuotaScans); q > 0 {
		sc.quotaAtNS = math.MaxInt64 // beyond the int64 horizon: never due
		if q <= (math.MaxInt64-nowNS)/int64(opts.ScanInterval) {
			sc.quotaAtNS = nowNS + q*int64(opts.ScanInterval)
		}
		scan.quota = append(scan.quota, sc)
	}
	r.scripts[account] = sc
	return nil
}

// keyAt is the group key of a trigger registered at nowNS.
func keyAt(interval time.Duration, nowNS int64) groupKey {
	k := groupKey{intervalNS: int64(interval), phaseNS: nowNS % int64(interval)}
	if k.phaseNS < 0 {
		k.phaseNS += k.intervalNS
	}
	return k
}

// armLocked starts a new group's Every chain — registered now, it
// ticks on the group's (interval, phase) lattice — and publishes the
// group. An armed group is left alone. Callers hold r.mu.
func (r *Runtime) armLocked(groups map[groupKey]*group, g *group, name string, tick func(*group, time.Time)) {
	if g.stop != nil {
		return
	}
	g.stop = r.sched.Every(time.Duration(g.key.intervalNS), name, func(now time.Time) { tick(g, now) })
	groups[g.key] = g
}

// add appends sc to the group and returns its slot.
func (g *group) add(sc *script) int {
	g.scripts = append(g.scripts, sc)
	g.live++
	return len(g.scripts) - 1
}

// leaveLocked vacates a slot; the last script out stops the group's
// chain and drops the group. Vacated slots are not reused, which
// would break registration order, nor compacted: only reinstalls and
// uninstalls vacate them, and those are rare (Leak's two quota case
// studies). Callers hold r.mu.
func (r *Runtime) leaveLocked(groups map[groupKey]*group, g *group, slot int) {
	g.scripts[slot] = nil
	if g.live--; g.live == 0 {
		g.stop()
		delete(groups, g.key)
	}
}

// removeLocked stops a script's triggers and forgets it. Callers hold
// r.mu.
func (r *Runtime) removeLocked(sc *script) {
	if sc.quotaAtNS != 0 {
		sc.scan.quota = slices.DeleteFunc(sc.scan.quota, func(x *script) bool { return x == sc })
	}
	_ = r.svc.Watch(sc.account, nil, 0) // cannot fail: accounts never leave the platform
	r.leaveLocked(r.scans, sc.scan, sc.scanSlot)
	r.leaveLocked(r.beats, sc.beat, sc.beatSlot)
	delete(r.scripts, sc.account)
}

// Uninstall stops and removes an account's script (used when an
// attacker finds and deletes it).
func (r *Runtime) Uninstall(account string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	sc, ok := r.scripts[account]
	if ok {
		r.removeLocked(sc)
	}
	return ok
}

// Installed reports whether an account still has a live script.
func (r *Runtime) Installed(account string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.scripts[account]
	return ok
}

// Discoverable reports whether an attacker inspecting the account
// would find the script: visible scripts always, hidden ones never in
// this model (the paper judged the spreadsheet hiding spot "unlikely"
// to be found; the ablation bench flips Hidden off to quantify the
// design choice).
func (r *Runtime) Discoverable(account string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	sc, ok := r.scripts[account]
	return ok && !sc.opts.Hidden
}

// scanTick is a scan group's chain callback: it scans exactly the
// scripts whose slot webmail marked since the previous tick, plus any
// whose quota notice is due, in registration (slot) order. A quiet
// group costs one atomic load per 64 scripts.
func (r *Runtime) scanTick(g *group, now time.Time) {
	nowNS := now.UnixNano()
	r.mu.Lock()
	for _, sc := range g.quota {
		if sc.quotaAtNS <= nowNS {
			g.dirty.Mark(sc.scanSlot)
		}
	}
	g.dirty.Drain(func(slot int) {
		sc := g.scripts[slot]
		switch {
		case sc == nil: // vacated by a reinstall or uninstall
		case sc.scanFromNS > nowNS:
			// Installed at this very tick instant: keep the mark for
			// the script's first full interval.
			g.dirty.Mark(slot)
		default:
			r.scan(sc, now)
		}
	})
	r.mu.Unlock()
	r.flush()
}

// flush sends the outbox to the sink in order and empties it.
func (r *Runtime) flush() {
	for i := range r.outbox {
		r.sink.Notify(r.outbox[i])
	}
	clear(r.outbox) // drop draft bodies
	r.outbox = r.outbox[:0]
}

// scan diffs the mailbox against the previous snapshot and reports
// changes into the outbox, mirroring the paper's 10-minute scan
// function, then delivers the quota notice if this is the tick it is
// due on. Callers hold r.mu.
func (r *Runtime) scan(sc *script, now time.Time) {
	snap, err := r.svc.Snapshot(sc.account)
	if err != nil {
		return // account deleted from platform; nothing to report
	}
	prev := sc.lastSnap
	notify := func(kind NotificationKind, id webmail.MessageID, body string) {
		r.outbox = append(r.outbox, Notification{Time: now, Account: sc.account, Kind: kind, Message: id, Body: body})
	}
	diffIDs(prev.Read, snap.Read, func(id webmail.MessageID) { notify(NoteRead, id, "") })
	diffIDs(prev.Starred, snap.Starred, func(id webmail.MessageID) { notify(NoteStarred, id, "") })
	diffIDs(prev.Sent, snap.Sent, func(id webmail.MessageID) { notify(NoteSent, id, "") })
	if len(snap.Drafts) > 0 {
		draftIDs := make([]webmail.MessageID, 0, len(snap.Drafts))
		for id := range snap.Drafts {
			draftIDs = append(draftIDs, id)
		}
		slices.Sort(draftIDs)
		for _, id := range draftIDs {
			body := snap.Drafts[id]
			if old, ok := prev.Drafts[id]; !ok || old != body {
				notify(NoteDraft, id, body)
			}
		}
	}
	sc.lastSnap = snap

	if sc.quotaAtNS == 0 || sc.quotaAtNS > now.UnixNano() {
		return
	}
	sc.quotaAtNS = 0
	sc.scan.quota = slices.DeleteFunc(sc.scan.quota, func(x *script) bool { return x == sc })
	// Quota notices land in the monitored inbox itself, where
	// attackers can (and did) read them (§4.7). The delivery bumps the
	// mailbox version, so the next tick rescans the account.
	_, _ = r.svc.DeliverInbound(sc.account, r.quotaSender,
		"Apps Script notice: excessive computer time",
		"A script attached to this account is using too much computer time and has been throttled.")
	notify(NoteQuota, 0, "")
}

// heartbeatTick is a heartbeat group's chain callback: one loop over
// the group's live scripts emitting the daily liveness signal. A
// suspended account's scripts still run in the paper's observations,
// so the heartbeat keeps flowing; the monitor learns about suspension
// from scrape failures instead.
func (r *Runtime) heartbeatTick(g *group, now time.Time) {
	nowNS := now.UnixNano()
	r.mu.Lock()
	for _, sc := range g.scripts {
		if sc != nil && sc.beatFromNS <= nowNS {
			r.outbox = append(r.outbox, Notification{Time: now, Account: sc.account, Kind: NoteHeartbeat})
		}
	}
	r.mu.Unlock()
	r.flush()
}

// diffIDs calls emit for each ID present in cur but not in prev. Both
// slices come from webmail.Snapshot, which emits IDs in ascending
// order, so a single linear merge replaces the per-scan set — a scan
// of an unchanged mailbox allocates nothing here.
func diffIDs(prev, cur []webmail.MessageID, emit func(webmail.MessageID)) {
	i := 0
	for _, id := range cur {
		for i < len(prev) && prev[i] < id {
			i++
		}
		if i < len(prev) && prev[i] == id {
			continue
		}
		emit(id)
	}
}
