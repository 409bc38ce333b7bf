package simtime

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

// Periodic-chain semantics: Scheduler.Every timing and the Chains
// fingerprint. The TestWheel* names date from the trigger wheel that
// first pinned these semantics; the scheduler now provides them
// directly.

func chain(interval, phase time.Duration, entries int) ChainState {
	return ChainState{IntervalNS: int64(interval), PhaseNS: int64(phase), Entries: entries}
}

func wantChains(t *testing.T, s *Scheduler, want ...ChainState) {
	t.Helper()
	if got := s.Chains(); !slices.Equal(got, want) {
		t.Fatalf("chains = %+v, want %+v", got, want)
	}
}

// The first fire lands exactly one interval after registration, never
// earlier: a mid-cycle registrant runs on its own phase lattice
// instead of joining an existing one.
func TestWheelMidCycleRegistrationKeepsPhase(t *testing.T) {
	s := NewScheduler(NewClock(t0))
	var early, late []time.Time
	s.Every(10*time.Minute, "early", func(now time.Time) { early = append(early, now) })
	s.RunFor(4 * time.Minute) // advance off the lattice
	s.Every(10*time.Minute, "late", func(now time.Time) { late = append(late, now) })
	wantChains(t, s, chain(10*time.Minute, 0, 1), chain(10*time.Minute, 4*time.Minute, 1))
	s.RunFor(30 * time.Minute)
	if len(early) != 3 || len(late) != 3 {
		t.Fatalf("fired %d/%d, want 3/3", len(early), len(late))
	}
	if !late[0].Equal(t0.Add(14 * time.Minute)) {
		t.Fatalf("late first fired at %v, want t+interval = %v", late[0], t0.Add(14*time.Minute))
	}
	if !early[0].Equal(t0.Add(10 * time.Minute)) {
		t.Fatalf("early first fired at %v", early[0])
	}
}

// A chain registered at the exact instant another chain's tick is due
// — before that tick runs, or from inside it — lands on the same key
// but still waits one full interval before its first fire.
func TestWheelOnLatticeRegistrationWaitsFullInterval(t *testing.T) {
	s := NewScheduler(NewClock(t0))
	var before, inside []time.Time
	// Armed ahead of the host chain, so it runs first at 20m.
	s.At(t0.Add(20*time.Minute), "before-tick", func(time.Time) {
		s.Every(10*time.Minute, "before", func(now time.Time) { before = append(before, now) })
	})
	registered := false
	s.Every(10*time.Minute, "host", func(now time.Time) {
		if !registered && now.Equal(t0.Add(20*time.Minute)) {
			registered = true
			s.Every(10*time.Minute, "inside", func(now time.Time) { inside = append(inside, now) })
		}
	})
	s.RunFor(40 * time.Minute)
	wantChains(t, s, chain(10*time.Minute, 0, 3))
	want := []time.Time{t0.Add(30 * time.Minute), t0.Add(40 * time.Minute)}
	if !reflect.DeepEqual(before, want) || !reflect.DeepEqual(inside, want) {
		t.Fatalf("on-lattice registrants fired at %v and %v, want %v", before, inside, want)
	}
}

// Chains on one key are counted together, the fingerprint is sorted
// by (interval, phase), same-instant registrants fire in registration
// order, and each cadence keeps exact Every timing.
func TestWheelSeparatesCadences(t *testing.T) {
	s := NewScheduler(NewClock(t0))
	var order []string
	scans, beats := 0, 0
	s.Every(24*time.Hour, "beat", func(time.Time) { beats++ })
	for _, name := range []string{"a", "b"} {
		name := name
		s.Every(10*time.Minute, "scan", func(time.Time) {
			scans++
			if len(order) < 2 {
				order = append(order, name)
			}
		})
	}
	s.RunFor(3 * time.Minute)
	s.Every(10*time.Minute, "offset", func(time.Time) {})
	wantChains(t, s,
		chain(10*time.Minute, 0, 2),
		chain(10*time.Minute, 3*time.Minute, 1),
		chain(24*time.Hour, 0, 1))
	s.RunFor(48*time.Hour - 3*time.Minute)
	if fmt.Sprint(order) != "[a b]" {
		t.Fatalf("first tick fired %v, want registration order [a b]", order)
	}
	if scans != 2*288 || beats != 2 {
		t.Fatalf("scans=%d beats=%d, want %d/2", scans, beats, 2*288)
	}
}

// A stop ends one chain and drops it from the fingerprint, whether
// called from outside or from inside the chain's own callback; the
// key goes once its last chain stops, and a second stop is a no-op.
func TestWheelStopRemovesEntryThenBucket(t *testing.T) {
	s := NewScheduler(NewClock(t0))
	var a, b, self int
	stopA := s.Every(time.Minute, "a", func(time.Time) { a++ })
	stopB := s.Every(time.Minute, "b", func(time.Time) { b++ })
	var stopSelf func()
	stopSelf = s.Every(time.Minute, "self", func(time.Time) {
		self++
		stopSelf()
	})
	wantChains(t, s, chain(time.Minute, 0, 3))
	s.RunFor(2 * time.Minute)
	wantChains(t, s, chain(time.Minute, 0, 2))
	stopA()
	stopA() // a no-op: must not drop b's count
	stopSelf()
	wantChains(t, s, chain(time.Minute, 0, 1))
	s.RunFor(2 * time.Minute)
	if a != 2 || b != 4 || self != 1 {
		t.Fatalf("a=%d b=%d self=%d, want 2/4/1", a, b, self)
	}
	stopB()
	wantChains(t, s)
	s.RunFor(5 * time.Minute)
	if b != 4 {
		t.Fatalf("stopped chain still fired: b=%d", b)
	}
}

// Re-registering after a key's last chain stopped starts a fresh
// chain (the appscript reinstall pattern).
func TestWheelReuseAfterEmpty(t *testing.T) {
	s := NewScheduler(NewClock(t0))
	n := 0
	stop := s.Every(time.Hour, "x", func(time.Time) { n++ })
	stop()
	s.Every(time.Hour, "y", func(time.Time) { n += 10 })
	wantChains(t, s, chain(time.Hour, 0, 1))
	s.RunFor(time.Hour)
	if n != 10 {
		t.Fatalf("n = %d, want 10 (only the new registration fires)", n)
	}
}

// Concurrent registration, stopping and fingerprint reads are safe
// (the honeynet registers from Setup while shard goroutines drive
// other schedulers; the race detector is the real assertion here).
func TestWheelConcurrentRegistration(t *testing.T) {
	s := NewScheduler(NewClock(t0))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				stop := s.Every(time.Minute, "c", func(time.Time) {})
				if j%2 == 0 {
					stop()
					stop()
				}
				s.Chains()
			}
		}()
	}
	wg.Wait()
	wantChains(t, s, chain(time.Minute, 0, 8*25))
	s.RunFor(time.Minute)
}
