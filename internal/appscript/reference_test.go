package appscript

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/webmail"
)

// refPoller is the per-account polling design the Runtime replaced,
// kept as the test oracle: every script owns its own scan and
// heartbeat entries, and every scan tick checks the script's mailbox
// version, diffing only when it moved. The quota notice is due on the
// QuotaScans-th tick the script is eligible for.
type refPoller struct {
	svc     *webmail.Service
	sched   *simtime.Scheduler
	sink    Notifier
	scripts map[string]*refScript
	chains  map[[2]int64]*refChain // by (interval, phase) in ns
}

// refChain fans one Scheduler.Every chain out to the per-script
// entries registered on its (interval, phase), in registration order,
// so the oracle drives its scheduler through one event per cadence
// tick, as the Runtime's trigger groups do.
type refChain struct {
	entries []*refEntry
	live    int
	stop    func()
}

type refEntry struct {
	fn func(now time.Time)
	// notBeforeNS is registration time + interval: an entry that joins
	// at the instant its chain's tick is due, before the tick runs,
	// still waits one full interval.
	notBeforeNS int64
	stopped     bool
}

type refScript struct {
	account            string
	opts               Options
	stopScan, stopBeat func()
	lastSnap           webmail.Snapshot
	lastVersion        uint64
	ticks              int
	quotaSent          bool
}

func newRefPoller(svc *webmail.Service, sched *simtime.Scheduler, sink Notifier) *refPoller {
	return &refPoller{svc: svc, sched: sched, sink: sink, scripts: map[string]*refScript{}, chains: map[[2]int64]*refChain{}}
}

// every registers fn on its (interval, phase) chain, starting the
// chain if it is new; the last entry's stop also stops the chain.
func (p *refPoller) every(interval time.Duration, fn func(now time.Time)) (stop func()) {
	nowNS := p.sched.Now().UnixNano()
	key := [2]int64{int64(interval), nowNS % int64(interval)}
	c := p.chains[key]
	if c == nil {
		c = &refChain{}
		p.chains[key] = c
		c.stop = p.sched.Every(interval, "ref", func(now time.Time) {
			for _, e := range c.entries {
				if !e.stopped && e.notBeforeNS <= now.UnixNano() {
					e.fn(now)
				}
			}
		})
	}
	e := &refEntry{fn: fn, notBeforeNS: nowNS + int64(interval)}
	c.entries = append(c.entries, e)
	c.live++
	return func() {
		if e.stopped {
			return
		}
		e.stopped = true
		if c.live--; c.live == 0 {
			c.stop()
			delete(p.chains, key)
		}
	}
}

func (p *refPoller) Install(account string, opts Options) error {
	snap, err := p.svc.Snapshot(account)
	if err != nil {
		return err
	}
	p.Uninstall(account)
	sc := &refScript{account: account, opts: opts.withDefaults(), lastSnap: snap, lastVersion: p.svc.Version(account)}
	sc.stopScan = p.every(sc.opts.ScanInterval, func(now time.Time) { p.scan(sc, now) })
	sc.stopBeat = p.every(sc.opts.HeartbeatInterval, func(now time.Time) {
		p.sink.Notify(Notification{Time: now, Account: account, Kind: NoteHeartbeat})
	})
	p.scripts[account] = sc
	return nil
}

func (p *refPoller) Uninstall(account string) bool {
	sc, ok := p.scripts[account]
	if ok {
		sc.stopScan()
		sc.stopBeat()
		delete(p.scripts, account)
	}
	return ok
}

func (p *refPoller) scan(sc *refScript, now time.Time) {
	sc.ticks++
	if v := p.svc.Version(sc.account); v != sc.lastVersion {
		snap, err := p.svc.Snapshot(sc.account)
		if err != nil {
			return
		}
		notify := func(kind NotificationKind, id webmail.MessageID, body string) {
			p.sink.Notify(Notification{Time: now, Account: sc.account, Kind: kind, Message: id, Body: body})
		}
		diffIDs(sc.lastSnap.Read, snap.Read, func(id webmail.MessageID) { notify(NoteRead, id, "") })
		diffIDs(sc.lastSnap.Starred, snap.Starred, func(id webmail.MessageID) { notify(NoteStarred, id, "") })
		diffIDs(sc.lastSnap.Sent, snap.Sent, func(id webmail.MessageID) { notify(NoteSent, id, "") })
		var ids []webmail.MessageID
		for id := range snap.Drafts {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			if old, ok := sc.lastSnap.Drafts[id]; !ok || old != snap.Drafts[id] {
				notify(NoteDraft, id, snap.Drafts[id])
			}
		}
		sc.lastSnap, sc.lastVersion = snap, v
	}
	if sc.opts.QuotaScans > 0 && !sc.quotaSent && sc.ticks >= sc.opts.QuotaScans {
		sc.quotaSent = true
		_, _ = p.svc.DeliverInbound(sc.account, "apps-script-notifications@platform.example",
			"Apps Script notice: excessive computer time",
			"A script attached to this account is using too much computer time and has been throttled.")
		p.sink.Notify(Notification{Time: now, Account: sc.account, Kind: NoteQuota})
	}
}

// installer is the surface the op script drives on both designs.
type installer interface {
	Install(account string, opts Options) error
	Uninstall(account string) bool
}

// world is one platform + scheduler + script engine under test.
type world struct {
	clock    *simtime.Clock
	sched    *simtime.Scheduler
	svc      *webmail.Service
	rec      *recorder
	engine   installer
	sessions map[string]*webmail.Session
	drafts   map[string]webmail.MessageID
}

func acctName(i int) string { return fmt.Sprintf("h%02d@honeymail.example", i) }

// newWorld builds n seeded accounts (six inbox messages each) with
// logged-in sessions; reference selects the polling oracle.
func newWorld(t *testing.T, n int, reference bool) *world {
	t.Helper()
	clock := simtime.NewClock(epoch)
	w := &world{
		clock: clock, sched: simtime.NewScheduler(clock), rec: &recorder{},
		svc:      webmail.NewService(webmail.Config{Clock: clock}),
		sessions: map[string]*webmail.Session{}, drafts: map[string]webmail.MessageID{},
	}
	if reference {
		w.engine = newRefPoller(w.svc, w.sched, w.rec)
	} else {
		w.engine = NewRuntime(w.svc, w.sched, w.rec)
	}
	space := netsim.NewAddressSpace(rng.New(3), geo.Default())
	for i := 0; i < n; i++ {
		a := acctName(i)
		if err := w.svc.CreateAccount(a, "pw", "Honey"); err != nil {
			t.Fatal(err)
		}
		for m := 0; m < 6; m++ {
			w.svc.Seed(a, webmail.FolderInbox, "b@x", a, fmt.Sprintf("s%d", m), "body", epoch.Add(-time.Hour))
		}
		ep, err := space.FromCity("Moscow")
		if err != nil {
			t.Fatal(err)
		}
		se, err := w.svc.Login(a, "pw", w.svc.NewCookie(), ep)
		if err != nil {
			t.Fatal(err)
		}
		w.sessions[a] = se
	}
	return w
}

// op is one scripted action: kind, target account, argument.
type op struct {
	at   time.Duration // offset from epoch
	kind int
	acct int
	arg  int
}

const (
	opRead = iota
	opStar
	opSend
	opDraft
	opEditDraft
	opDelete
	opInbound
	opInstall
	opUninstall
	opKinds
)

// apply performs o against the world.
func (w *world) apply(t *testing.T, o op) {
	a := acctName(o.acct)
	se := w.sessions[a]
	id := webmail.MessageID(1 + o.arg%8)
	switch o.kind {
	case opRead:
		se.Read(id)
	case opStar:
		se.Star(id)
	case opSend:
		se.Send("peer@x", "s", fmt.Sprintf("b%d", o.arg))
	case opDraft:
		if d, err := se.CreateDraft("peer@x", "d", fmt.Sprintf("draft %d", o.arg)); err == nil {
			w.drafts[a] = d
		}
	case opEditDraft:
		if d, ok := w.drafts[a]; ok {
			se.UpdateDraft(d, "peer@x", "d", fmt.Sprintf("edit %d", o.arg))
		}
	case opDelete:
		se.Delete(id)
	case opInbound:
		w.svc.DeliverInbound(a, "b@x", "in", "body")
	case opInstall:
		opts := Options{Hidden: true, QuotaScans: []int{0, 0, 0, 1, 2, 5}[o.arg%6]}
		if o.arg%4 == 3 {
			opts.ScanInterval = 30 * time.Minute
		}
		if err := w.engine.Install(a, opts); err != nil {
			t.Fatal(err)
		}
		if o.arg%3 == 0 { // a change at the install instant itself
			se.Star(id)
		}
	case opUninstall:
		w.engine.Uninstall(a)
	}
}

// schedule arms the ops on the world's scheduler: even-indexed ops
// up front, odd ones chained from their predecessor, so at shared
// instants ops land both before and after the trigger ticks.
func (w *world) schedule(t *testing.T, ops []op) {
	var arm func(i int)
	arm = func(i int) {
		if i >= len(ops) {
			return
		}
		o := ops[i]
		w.sched.At(epoch.Add(o.at), "op", func(time.Time) {
			w.apply(t, o)
			if i+1 < len(ops) && (i+1)%2 == 1 {
				arm(i + 1)
			}
		})
	}
	for i := range ops {
		if i%2 == 0 {
			arm(i)
		}
	}
}

// randomOps draws a sorted op script over span: a third of the op
// times sit exactly on the 10-minute tick lattice.
func randomOps(seed int64, n, accounts int, span time.Duration) []op {
	r := rand.New(rand.NewSource(seed))
	ops := make([]op, n)
	for i := range ops {
		at := time.Duration(r.Int63n(int64(span)))
		if r.Intn(3) == 0 {
			at = at.Truncate(10 * time.Minute)
		}
		kind := r.Intn(opKinds)
		ops[i] = op{at: at, kind: kind, acct: r.Intn(accounts), arg: r.Intn(1000)}
	}
	slices.SortStableFunc(ops, func(a, b op) int { return int(a.at - b.at) })
	return ops
}

// TestRuntimeMatchesReferencePoller: over seeded random op scripts
// (installs, reinstalls with quotas and other cadences, uninstalls,
// mailbox writes at and between tick instants), the dirty-set runtime
// emits exactly the notification sequence of the per-script polling
// oracle, and drives its scheduler through the same event counts.
func TestRuntimeMatchesReferencePoller(t *testing.T) {
	const accounts = 10
	for seed := int64(1); seed <= 12; seed++ {
		ops := randomOps(seed, 400, accounts, 4*24*time.Hour)
		var got, want *world
		for _, reference := range []bool{false, true} {
			w := newWorld(t, accounts, reference)
			for i := 0; i < accounts; i += 2 { // half the fleet starts instrumented
				if err := w.engine.Install(acctName(i), Options{Hidden: true}); err != nil {
					t.Fatal(err)
				}
			}
			w.schedule(t, ops)
			w.sched.RunUntil(epoch.Add(5 * 24 * time.Hour))
			if reference {
				want = w
			} else {
				got = w
			}
		}
		if !reflect.DeepEqual(got.rec.notes, want.rec.notes) {
			n := min(len(got.rec.notes), len(want.rec.notes))
			i := 0
			for i < n && got.rec.notes[i] == want.rec.notes[i] {
				i++
			}
			t.Fatalf("seed %d: notification sequences diverge at %d of %d/%d:\nruntime:   %+v\nreference: %+v",
				seed, i, len(got.rec.notes), len(want.rec.notes), at(got.rec.notes, i), at(want.rec.notes, i))
		}
		if got.sched.Fired() != want.sched.Fired() || got.sched.Seq() != want.sched.Seq() || got.sched.Len() != want.sched.Len() {
			t.Fatalf("seed %d: scheduler fired/seq/len %d/%d/%d, reference %d/%d/%d", seed,
				got.sched.Fired(), got.sched.Seq(), got.sched.Len(), want.sched.Fired(), want.sched.Seq(), want.sched.Len())
		}
		kinds := map[NotificationKind]int{}
		for _, n := range got.rec.notes {
			kinds[n.Kind]++
		}
		if kinds[NoteQuota] == 0 || kinds[NoteDraft] == 0 || kinds[NoteRead] == 0 {
			t.Fatalf("seed %d: op script too thin to compare anything: %v", seed, kinds)
		}
	}
}

func at(notes []Notification, i int) any {
	if i < len(notes) {
		return notes[i]
	}
	return "<end>"
}

// ticksOf returns the offsets from epoch at which kind notes arrived.
func ticksOf(rec *recorder, kind NotificationKind) []time.Duration {
	var out []time.Duration
	for _, n := range rec.byKind(kind) {
		out = append(out, n.Time.Sub(epoch))
	}
	return out
}

// The quota notice lands exactly QuotaScans ticks after a reinstall,
// counted from the reinstall, not the original install.
func TestQuotaDueQuotaScansTicksAfterReinstall(t *testing.T) {
	w := newWorld(t, 1, false)
	a := acctName(0)
	w.engine.Install(a, Options{Hidden: true, QuotaScans: 3})
	// Reinstall off the lattice, 25 minutes in: the new group ticks at
	// 35m, 45m, 55m, ... so the third tick is at 55m.
	w.sched.RunUntil(epoch.Add(25 * time.Minute))
	w.engine.Install(a, Options{Hidden: true, QuotaScans: 3})
	w.sched.RunUntil(epoch.Add(3 * time.Hour))
	if got, want := ticksOf(w.rec, NoteQuota), []time.Duration{55 * time.Minute}; !slices.Equal(got, want) {
		t.Fatalf("quota notes at %v, want %v", got, want)
	}
}

// The quota delivery's own version bump rescans the account on the
// next tick. A sent message seeded right after the quota tick bumps
// nothing itself, so only that rescan can report it.
func TestQuotaDeliveryRescansNextTick(t *testing.T) {
	w := newWorld(t, 1, false)
	a := acctName(0)
	w.engine.Install(a, Options{Hidden: true, QuotaScans: 2})
	w.sched.RunUntil(epoch.Add(20 * time.Minute)) // quota tick
	if len(w.rec.byKind(NoteQuota)) != 1 {
		t.Fatal("quota notice not delivered on the second tick")
	}
	id, _ := w.svc.Seed(a, webmail.FolderSent, a, "x@y", "s", "b", epoch)
	w.sched.RunUntil(epoch.Add(2 * time.Hour))
	sent := w.rec.byKind(NoteSent)
	if len(sent) != 1 || sent[0].Message != id || sent[0].Time != epoch.Add(30*time.Minute) {
		t.Fatalf("sent notes %+v, want message %d at +30m", sent, id)
	}
}

// A reinstall moves the script to the end of its group: changes on
// every account in one interval are reported in registration order
// with the reinstalled account last.
func TestReinstallMovesScriptToGroupEnd(t *testing.T) {
	w := newWorld(t, 3, false)
	for i := 0; i < 3; i++ {
		w.engine.Install(acctName(i), Options{Hidden: true})
	}
	w.engine.Install(acctName(0), Options{Hidden: true})
	for i := 0; i < 3; i++ {
		w.sessions[acctName(i)].Read(1)
	}
	w.sched.RunUntil(epoch.Add(10 * time.Minute))
	var order []string
	for _, n := range w.rec.byKind(NoteRead) {
		order = append(order, n.Account)
	}
	if want := []string{acctName(1), acctName(2), acctName(0)}; !slices.Equal(order, want) {
		t.Fatalf("scan order %v, want %v", order, want)
	}
	// Heartbeats follow the same order.
	w.sched.RunUntil(epoch.Add(24 * time.Hour))
	order = order[:0]
	for _, n := range w.rec.byKind(NoteHeartbeat) {
		order = append(order, n.Account)
	}
	if want := []string{acctName(1), acctName(2), acctName(0)}; !slices.Equal(order, want) {
		t.Fatalf("heartbeat order %v, want %v", order, want)
	}
}

// An uninstalled script never fires, even when its slot was marked
// dirty before the uninstall and its group keeps ticking for others.
func TestUninstalledScriptNeverFires(t *testing.T) {
	w := newWorld(t, 2, false)
	w.engine.Install(acctName(0), Options{Hidden: true})
	w.engine.Install(acctName(1), Options{Hidden: true})
	w.sessions[acctName(0)].Read(1) // marked, not yet scanned
	w.engine.Uninstall(acctName(0))
	w.sessions[acctName(0)].Star(2)
	w.sessions[acctName(1)].Read(1)
	w.sched.RunUntil(epoch.Add(3 * 24 * time.Hour))
	for _, n := range w.rec.notes {
		if n.Account == acctName(0) {
			t.Fatalf("uninstalled script fired: %+v", n)
		}
	}
	if len(w.rec.byKind(NoteRead)) != 1 || len(w.rec.byKind(NoteHeartbeat)) != 3 {
		t.Fatalf("remaining script: %d reads, %d heartbeats; want 1 and 3",
			len(w.rec.byKind(NoteRead)), len(w.rec.byKind(NoteHeartbeat)))
	}
}

// A script installed at a tick instant, before that tick runs, waits
// one full interval: the tick at its install instant neither scans it
// (though its mailbox already changed) nor sends its heartbeat.
func TestRegistrantAtTickInstantWaitsFullInterval(t *testing.T) {
	w := newWorld(t, 2, false)
	// Armed before the first install, so these run ahead of the group
	// ticks due at the same instants.
	w.sched.At(epoch.Add(10*time.Minute), "late-install", func(time.Time) {
		w.engine.Install(acctName(1), Options{Hidden: true, HeartbeatInterval: 10 * time.Minute})
		w.sessions[acctName(1)].Read(1)
	})
	w.engine.Install(acctName(0), Options{Hidden: true, HeartbeatInterval: 10 * time.Minute})
	w.sched.RunUntil(epoch.Add(25 * time.Minute))
	if got, want := ticksOf(w.rec, NoteRead), []time.Duration{20 * time.Minute}; !slices.Equal(got, want) {
		t.Fatalf("read notes at %v, want %v", got, want)
	}
	beats := map[string][]time.Duration{}
	for _, n := range w.rec.byKind(NoteHeartbeat) {
		beats[n.Account] = append(beats[n.Account], n.Time.Sub(epoch))
	}
	if got, want := beats[acctName(1)], []time.Duration{20 * time.Minute}; !slices.Equal(got, want) {
		t.Fatalf("late registrant heartbeats at %v, want %v", got, want)
	}
	if got, want := beats[acctName(0)], []time.Duration{10 * time.Minute, 20 * time.Minute}; !slices.Equal(got, want) {
		t.Fatalf("first script heartbeats at %v, want %v", got, want)
	}
}

// TestEveryNoAllocPerTick: a steady-state Scheduler.Every tick re-arms
// its own event, and a quiet fleet's scan drain visits no script, so
// neither allocates.
func TestEveryNoAllocPerTick(t *testing.T) {
	t.Run("scheduler-every", func(t *testing.T) {
		sched := simtime.NewScheduler(simtime.NewClock(epoch))
		n := 0
		sched.Every(time.Minute, "tick", func(time.Time) { n++ })
		sched.Step()
		if allocs := testing.AllocsPerRun(100, func() { sched.Step() }); allocs != 0 {
			t.Fatalf("Every tick allocates %.1f times", allocs)
		}
		if n != 102 {
			t.Fatalf("ticks = %d, want 102", n)
		}
	})
	t.Run("quiet-fleet-drain", func(t *testing.T) {
		clock := simtime.NewClock(epoch)
		sched := simtime.NewScheduler(clock)
		svc := webmail.NewService(webmail.Config{Clock: clock})
		rt := NewRuntime(svc, sched, NotifierFunc(func(Notification) {}))
		for i := 0; i < 300; i++ {
			a := acctName(i)
			if err := svc.CreateAccount(a, "pw", "Quiet"); err != nil {
				t.Fatal(err)
			}
			if err := rt.Install(a, Options{Hidden: true, HeartbeatInterval: 1000 * time.Hour}); err != nil {
				t.Fatal(err)
			}
		}
		sched.Step()
		if allocs := testing.AllocsPerRun(100, func() { sched.Step() }); allocs != 0 {
			t.Fatalf("quiet scan tick allocates %.1f times", allocs)
		}
	})
}
