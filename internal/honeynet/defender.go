package honeynet

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/c3"
)

// The defender loop closes the measurement circle the paper leaves
// open: the honey infrastructure observes what criminals do with
// leaked credentials, and the defender models what a provider armed
// with a compromised-credential-checking (C3) service could have done
// about it. Each shard carries its own C3 index fragment, populated
// live at the only moments a breach-monitoring service could learn a
// credential — outlet pickup (the credential verifiably enters
// criminal circulation) and malware exfiltration (it crosses the C&C
// wire). On a configurable cadence the defender range-queries the
// fragment for every still-undetected honey account, exactly as a
// provider would query a k-anonymity C3 API, and on a hit resets the
// account's password — invalidating every live session, the
// attacker's included. The gap between the attacker's first access
// and the defender's detection is the new measurable axis:
// time-to-detection vs. time-to-exploit.
//
// Determinism: the fragment is shard-local and detection of account X
// depends only on X's own credential having been ingested — an event
// of X's own block, which runs on X's shard whatever the layout — so
// the detection trace is invariant under shard count, streaming mode
// and worker count. The defender draws no randomness: the reset
// password is a pure function of the old credential, and the check
// walks accounts in plan order.

// defender is one shard's detection loop over its C3 fragment.
type defender struct {
	sh    *shard
	store *c3.Store
	e     *Experiment
	watch []*watchEntry
	stop  func()
}

// watchEntry is one honey account the defender checks: the credential
// the criminals hold, and the detection outcome once it happens.
type watchEntry struct {
	account    string
	password   string // the leaked password (what circulates)
	group      GroupSpec
	leakAt     time.Time
	detected   bool
	detectedAt time.Time
}

// DefenderOutcome is one account's detection-race result: when its
// credential leaked, when the defender detected the leak through C3
// (zero time if never), and when an attacker first touched the
// account (zero time if never) — the two clocks whose difference is
// the exposure window.
type DefenderOutcome struct {
	Account    string
	Group      GroupSpec
	LeakAt     time.Time
	Detected   bool
	DetectedAt time.Time
	Exploited  bool
	ExploitAt  time.Time
}

// DefenderEnabled reports whether this experiment runs the C3
// defender loop.
func (e *Experiment) DefenderEnabled() bool { return e.cfg.DefenderCadence > 0 }

// armDefenders builds each shard's watch list (that shard's accounts,
// in plan order) and starts the periodic C3 check on the shard's
// scheduler. Called at the end of Leak: the periodic chains at the
// snapshot boundary stay exactly what a defender-free build arms, so
// snapshots and their descriptors are unchanged by the subsystem.
func (e *Experiment) armDefenders() {
	for _, sh := range e.shards {
		if sh.c3 == nil {
			continue
		}
		d := &defender{sh: sh, store: sh.c3, e: e}
		for _, b := range e.blocks {
			if b.shard != sh {
				continue
			}
			for _, a := range e.assignments[b.start:b.end] {
				d.watch = append(d.watch, &watchEntry{
					account:  a.Account,
					password: a.Password,
					group:    b.spec,
					leakAt:   e.leakTimes[a.Account],
				})
			}
		}
		d.stop = sh.sched.Every(e.cfg.DefenderCadence, "defender-check", d.tick)
		sh.def = d
	}
}

// tick is one defender pass: for every still-undetected account,
// query the shard's C3 fragment for the leaked credential (through
// the same whole-bucket range path the wire protocol serves) and, on
// a hit, reset the password. The monitor learns the new credential in
// the same event, so scraping continues without a failure record —
// the provider rotated its own account.
func (d *defender) tick(now time.Time) {
	for _, w := range d.watch {
		if w.detected {
			continue
		}
		if !d.store.Contains(c3.Hash(w.account, w.password)) {
			continue
		}
		w.detected = true
		w.detectedAt = now
		d.e.resetAccount(d.sh, w.account, w.password)
	}
}

// resetAccount performs the provider-side rotation: the new password
// is a pure function of the old credential (no randomness — the
// defender is deterministic by construction), every live session
// drops, and the shard's monitor switches to the new password.
func (e *Experiment) resetAccount(sh *shard, account, oldPassword string) {
	newPassword := fmt.Sprintf("rs-%016x", c3.Hash(account, oldPassword))
	if err := e.svc.ResetPassword(account, newPassword); err != nil {
		return // suspended/deleted accounts stay detected but unrotated
	}
	sh.mon.UpdatePassword(account, newPassword)
}

// DefenderOutcomes merges every shard defender's watch list into one
// account-sorted outcome table, joining each account against the
// ground-truth attacker records for its first-exploit time. Nil when
// the defender is disabled. The result is byte-identical at any shard
// count and in stream or batch mode.
func (e *Experiment) DefenderOutcomes() []DefenderOutcome {
	if !e.DefenderEnabled() {
		return nil
	}
	firstAt := make(map[string]time.Time)
	for _, rec := range e.Records() {
		if _, ok := firstAt[rec.Account]; !ok {
			firstAt[rec.Account] = rec.FirstAt
		}
	}
	var out []DefenderOutcome
	for _, sh := range e.shards {
		if sh.def == nil {
			continue
		}
		for _, w := range sh.def.watch {
			o := DefenderOutcome{
				Account:    w.account,
				Group:      w.group,
				LeakAt:     w.leakAt,
				Detected:   w.detected,
				DetectedAt: w.detectedAt,
			}
			if at, ok := firstAt[w.account]; ok {
				o.Exploited = true
				o.ExploitAt = at
			}
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Account < out[j].Account })
	return out
}

// C3Stats merges the per-shard C3 fragment statistics: total indexed
// credentials across the fleet (bits/variants are uniform). Zero
// value when the defender is disabled.
func (e *Experiment) C3Stats() c3.Stats {
	var st c3.Stats
	for _, sh := range e.shards {
		if sh.c3 == nil {
			continue
		}
		s := sh.c3.Stats()
		st.Credentials += s.Credentials
		st.BucketBits = s.BucketBits
		st.Variants = s.Variants
	}
	return st
}
