package simtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testStart() time.Time {
	return time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)
}

func TestShardSetRunsAllToDeadline(t *testing.T) {
	start := testStart()
	deadline := start.Add(24 * time.Hour)
	set := NewShardSet()
	var fired [4]int
	for i := 0; i < 4; i++ {
		i := i
		s := NewScheduler(NewClock(start))
		s.Every(time.Hour, "tick", func(time.Time) { fired[i]++ })
		set.Add(s)
	}
	total := set.RunUntil(deadline, 4)
	for i, n := range fired {
		if n != 24 {
			t.Fatalf("shard %d fired %d events, want 24", i, n)
		}
	}
	if total != 4*24 {
		t.Fatalf("total = %d, want %d", total, 4*24)
	}
	for i := 0; i < set.Len(); i++ {
		if now := set.Scheduler(i).Now(); !now.Equal(deadline) {
			t.Fatalf("shard %d clock at %v, want %v", i, now, deadline)
		}
	}
	if set.Fired() != 4*24 {
		t.Fatalf("Fired() = %d", set.Fired())
	}
	if set.Pending() == 0 {
		t.Fatal("Every loops should leave one pending event per shard")
	}
}

func TestShardSetWorkerCountsEquivalent(t *testing.T) {
	// The same shard workloads must produce identical per-shard event
	// counts regardless of worker parallelism.
	run := func(workers int) [3]uint64 {
		start := testStart()
		set := NewShardSet()
		for i := 0; i < 3; i++ {
			s := NewScheduler(NewClock(start))
			interval := time.Duration(i+1) * time.Hour
			s.Every(interval, "tick", func(time.Time) {})
			set.Add(s)
		}
		set.RunUntil(start.Add(48*time.Hour), workers)
		var out [3]uint64
		for i := 0; i < 3; i++ {
			out[i] = set.Scheduler(i).Fired()
		}
		return out
	}
	serial := run(1)
	for _, workers := range []int{2, 3, 0, 16} {
		if got := run(workers); got != serial {
			t.Fatalf("workers=%d fired %v, serial fired %v", workers, got, serial)
		}
	}
}

func TestShardSetEmpty(t *testing.T) {
	if n := NewShardSet().RunUntil(testStart(), 4); n != 0 {
		t.Fatalf("empty set ran %d events", n)
	}
}

// TestSchedulerConcurrentEveryCancel hammers Every/stop/After and
// Chains from many goroutines while a single driver steps the
// scheduler — the contract is: scheduling is safe from any goroutine,
// Run/Step from one. Run with -race to catch lock violations.
func TestSchedulerConcurrentEveryCancel(t *testing.T) {
	start := testStart()
	s := NewScheduler(NewClock(start))

	var fired atomic.Int64
	var wg sync.WaitGroup
	done := make(chan struct{})

	// Driver goroutine: the only caller of Step/RunUntil.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				s.RunUntil(s.Now().Add(10 * time.Minute))
				return
			default:
				if !s.Step() {
					time.Sleep(time.Microsecond)
				}
			}
		}
	}()

	// Concurrent schedulers: Every loops started and stopped from
	// other goroutines, one-shot events, and fingerprint reads.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				stop := s.Every(time.Second, "every", func(time.Time) { fired.Add(1) })
				s.After(time.Duration(i+1)*time.Millisecond, "oneshot", func(time.Time) { fired.Add(1) })
				if len(s.Chains()) == 0 {
					t.Error("live chain missing from the fingerprint")
				}
				stop()
				stop() // stopping twice must be harmless
			}
		}()
	}

	// Let the drivers race for a little while, then stop everything.
	time.Sleep(20 * time.Millisecond)
	close(done)
	wg.Wait()

	if got := s.Chains(); len(got) != 0 {
		t.Fatalf("every chain stopped, fingerprint still holds %+v", got)
	}
	if n := fired.Load(); n < 8*50 {
		t.Fatalf("fired %d events, want at least the %d one-shots", n, 8*50)
	}
}

// TestSchedulerEveryStopsAfterCancelInCallback checks the documented
// interleaving: calling the stop function from inside the ticking
// callback prevents any further firings.
func TestSchedulerEveryStopsAfterCancelInCallback(t *testing.T) {
	s := NewScheduler(NewClock(testStart()))
	count := 0
	var stop func()
	stop = s.Every(time.Minute, "self-stop", func(time.Time) {
		count++
		if count == 3 {
			stop()
		}
	})
	s.RunFor(time.Hour)
	if count != 3 {
		t.Fatalf("ticked %d times after in-callback stop, want 3", count)
	}
}
