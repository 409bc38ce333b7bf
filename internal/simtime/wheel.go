package simtime

import (
	"sort"
	"sync"
	"time"
)

// TriggerWheel batches periodic callbacks that share a cadence onto a
// single scheduler event chain. Every callback with the same
// (interval, phase) lands in one bucket driven by one Every chain, so
// the scheduler pays O(1) heap operations per tick regardless of how
// many callbacks registered. In the honeynet each shard's wheel holds
// a handful of callbacks: one per Apps-Script trigger group (the
// runtime fans a group's tick out to its accounts itself, scanning
// only those whose mailbox changed), the monitor scrape and the
// defender check.
//
// Semantics match Scheduler.Every exactly: a callback registered at
// time t with interval i first fires at t+i and then every i after.
// Callbacks registered at the same instant on the same cadence share a
// bucket and fire in registration order — the same order individually
// scheduled events with identical due times would fire (heap ties
// break by scheduling sequence). Callbacks registered mid-cycle land
// in a bucket with a different phase and keep their own tick lattice,
// so batching never shifts a trigger's firing times.
//
// TriggerWheel is safe for concurrent registration; callbacks run on
// the scheduler's Run goroutine like any other event.
type TriggerWheel struct {
	sched *Scheduler

	mu      sync.Mutex
	buckets map[wheelKey]*wheelBucket
}

// wheelKey identifies a bucket: every callback in it fires at instants
// ≡ phase (mod interval), in nanoseconds.
type wheelKey struct {
	intervalNS int64
	phaseNS    int64
}

// wheelBucket is one (interval, phase) group: a single Every chain
// fanning out to its entries in registration order.
type wheelBucket struct {
	wheel *TriggerWheel
	key   wheelKey

	mu       sync.Mutex
	entries  []*wheelEntry
	live     int
	stopped  int // entries cancelled but not yet compacted
	stopTick func()

	// scratch is tick's reusable snapshot of entries. Ticks of one
	// bucket never overlap — the chain is a single Every on the
	// scheduler's Run goroutine and callbacks cannot re-enter it — so
	// one buffer per bucket makes the per-tick snapshot allocation-free.
	scratch []*wheelEntry
}

// wheelEntry is one registered callback.
type wheelEntry struct {
	fn func(now time.Time)
	// notBeforeNS is registration time + interval: the earliest tick
	// this entry may fire on. It keeps Every semantics exact when a
	// registration lands at the very instant an existing bucket's tick
	// is due but has not run yet — without it the new callback would
	// fire zero intervals after registration.
	notBeforeNS int64
	stopped     bool
}

// NewTriggerWheel returns a wheel batching onto the given scheduler.
func NewTriggerWheel(sched *Scheduler) *TriggerWheel {
	if sched == nil {
		panic("simtime: NewTriggerWheel requires a scheduler")
	}
	return &TriggerWheel{sched: sched, buckets: make(map[wheelKey]*wheelBucket)}
}

// Scheduler returns the scheduler the wheel batches onto.
func (w *TriggerWheel) Scheduler() *Scheduler { return w.sched }

// Buckets returns the number of live (interval, phase) groups — the
// number of scheduler event chains the wheel is paying for.
func (w *TriggerWheel) Buckets() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.buckets)
}

// ChainState describes one live (interval, phase) bucket: its cadence
// and how many registered callbacks ride it. Pending events carry
// closures, so a chain cannot cross a process boundary — instead the
// snapshot engine serializes these descriptors and, after the resumed
// experiment re-arms its own triggers, verifies the rebuilt wheel has
// chain-for-chain identical state.
type ChainState struct {
	IntervalNS int64
	PhaseNS    int64
	Entries    int
}

// Chains returns the wheel's live buckets sorted by (interval, phase)
// — a deterministic structural fingerprint of the wheel.
func (w *TriggerWheel) Chains() []ChainState {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]ChainState, 0, len(w.buckets))
	for key, b := range w.buckets {
		b.mu.Lock()
		out = append(out, ChainState{IntervalNS: key.intervalNS, PhaseNS: key.phaseNS, Entries: b.live})
		b.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].IntervalNS != out[j].IntervalNS {
			return out[i].IntervalNS < out[j].IntervalNS
		}
		return out[i].PhaseNS < out[j].PhaseNS
	})
	return out
}

// Every registers fn to run every interval, first firing one interval
// from now, until the returned stop function is called. The name
// labels the bucket's scheduler events (the first registrant's name
// wins for a shared bucket; it is diagnostic only).
func (w *TriggerWheel) Every(interval time.Duration, name string, fn func(now time.Time)) (stop func()) {
	if interval <= 0 {
		panic("simtime: TriggerWheel.Every requires a positive interval")
	}
	if fn == nil {
		panic("simtime: TriggerWheel.Every called with nil function")
	}
	intervalNS := int64(interval)
	nowNS := w.sched.Clock().nowNanos()
	phase := nowNS % intervalNS
	if phase < 0 {
		phase += intervalNS
	}
	key := wheelKey{intervalNS: intervalNS, phaseNS: phase}
	e := &wheelEntry{fn: fn, notBeforeNS: nowNS + intervalNS}

	// The entry is appended while still holding the wheel lock (bucket
	// lock nested inside — the same order remove's retirement path
	// uses) so a concurrent remove can never empty, delete and stop
	// the bucket between our lookup and our append: either remove's
	// live re-check sees our entry, or the bucket is already gone and
	// we create a fresh one with a fresh chain.
	w.mu.Lock()
	b, ok := w.buckets[key]
	if !ok {
		b = &wheelBucket{wheel: w, key: key}
		w.buckets[key] = b
		// Start the chain after publishing the bucket; the first tick is
		// one interval away, so no event can fire before we finish.
		b.stopTick = w.sched.Every(interval, name, b.tick)
	}
	b.mu.Lock()
	b.entries = append(b.entries, e)
	b.live++
	b.mu.Unlock()
	w.mu.Unlock()
	return func() { b.remove(e) }
}

// tick fires every live, due entry in registration order. The entry
// list is snapshotted so callbacks may register or cancel triggers
// (even their own) without deadlocking; an entry cancelled mid-tick by
// an earlier callback is skipped, and an entry registered less than
// one interval ago waits for its first full interval (Every
// semantics).
func (b *wheelBucket) tick(now time.Time) {
	nowNS := now.UnixNano()
	b.mu.Lock()
	entries := append(b.scratch[:0], b.entries...)
	// Drop stale tail pointers so cancelled entries are not retained
	// past the tick that stopped seeing them.
	clear(entries[len(entries):cap(entries)])
	b.scratch = entries
	b.mu.Unlock()
	for _, e := range entries {
		if e.notBeforeNS > nowNS {
			continue
		}
		b.mu.Lock()
		dead := e.stopped
		b.mu.Unlock()
		if dead {
			continue
		}
		e.fn(now)
	}
}

// remove cancels one entry; the last removal stops the bucket's chain
// and drops the bucket. Removing twice is a no-op.
func (b *wheelBucket) remove(e *wheelEntry) {
	b.mu.Lock()
	if e.stopped {
		b.mu.Unlock()
		return
	}
	e.stopped = true
	b.live--
	b.stopped++
	// Compact once cancelled entries dominate, so a long-lived bucket
	// with churn does not scan dead entries forever.
	if b.stopped > len(b.entries)/2 {
		kept := b.entries[:0]
		for _, x := range b.entries {
			if !x.stopped {
				kept = append(kept, x)
			}
		}
		for i := len(kept); i < len(b.entries); i++ {
			b.entries[i] = nil
		}
		b.entries = kept
		b.stopped = 0
	}
	empty := b.live == 0
	stopTick := b.stopTick
	b.mu.Unlock()

	if empty {
		b.wheel.mu.Lock()
		// Re-check under the wheel lock: a concurrent Every may have
		// repopulated this bucket — or already retired it and published
		// a fresh bucket under the same key, which must not be deleted
		// from under its registrants (hence the identity check).
		b.mu.Lock()
		retire := b.live == 0 && b.wheel.buckets[b.key] == b
		if retire {
			delete(b.wheel.buckets, b.key)
		}
		b.mu.Unlock()
		b.wheel.mu.Unlock()
		if retire {
			stopTick()
		}
	}
}
