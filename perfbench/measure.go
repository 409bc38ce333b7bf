package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// sizes are the workload input sizes. fullSizes is the benchmark; the
// smoke test runs tiny ones.
type sizes struct {
	simScale    int // Table 1 plan replication (×100 accounts) of the sims
	fleetScale  int // the same for the fleet fleet-serve boots
	shards      int
	paperDays   int
	burstDays   int
	resamples   int // CvM permutation resamples
	setupReps   int // extra set-ups per sim run, for a steadier setup_s
	simReports  int // fewest reports per untraced sim run
	defenderDur time.Duration

	fleetRef    float64 // reference rate, req/s
	fleetLo     float64 // the ladder's first rung
	fleetLimit  time.Duration
	fleetSteps  int // ladder rungs above the first
	c3Creds     int
	c3Ref       float64
	c3Lo        float64
	c3Limit     time.Duration
	c3Steps     int
	serveSetups int // set-ups per serve run (the last one is served)
	refReps     int // fewest reference-rate replays per untraced run, each on fresh state
	refDur      time.Duration
	closedReps  int // closed-loop bursts per traced serve run
	fleetClosed int // requests in one closed-loop burst
	c3Closed    int
	warmDur     time.Duration // the warm-up replay before the reference replays
	rungMin     time.Duration // shortest ladder try (traced runs)
	rungReqs    int           // fewest requests in one ladder try
}

var fullSizes = sizes{
	simScale:    10,
	fleetScale:  20,
	shards:      2,
	paperDays:   236,
	burstDays:   45,
	resamples:   2000,
	setupReps:   6,
	simReports:  2,
	defenderDur: 6 * time.Hour,

	fleetRef:    1000,
	fleetLo:     4000,
	fleetLimit:  5 * time.Millisecond,
	fleetSteps:  16,
	c3Creds:     1_000_000,
	c3Ref:       5000,
	c3Lo:        20000,
	c3Limit:     time.Millisecond,
	c3Steps:     16,
	serveSetups: 3,
	refReps:     5,
	refDur:      time.Second,
	closedReps:  3,
	fleetClosed: 8000,
	c3Closed:    40000,
	warmDur:     500 * time.Millisecond,
	rungMin:     500 * time.Millisecond,
	rungReqs:    4 * p99Window,
}

// cpuTime returns the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// memDelta is the allocation work between two MemStats readings.
type memDelta struct{ allocMB, mallocs, gcCycles float64 }

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func diffMem(a, b runtime.MemStats) memDelta {
	return memDelta{
		allocMB:  float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20),
		mallocs:  float64(b.Mallocs - a.Mallocs),
		gcCycles: float64(b.NumGC - a.NumGC),
	}
}

// scaled is d times f.
func (d memDelta) scaled(f float64) memDelta {
	return memDelta{allocMB: d.allocMB * f, mallocs: d.mallocs * f, gcCycles: d.gcCycles * f}
}

// allocMedians sets the end-to-end allocation metrics: the median
// over a run's units of work of the bytes and objects each allocated.
func allocMedians(ds []memDelta, m map[string]float64) {
	var mb, n []float64
	for _, d := range ds {
		mb = append(mb, d.allocMB)
		n = append(n, d.mallocs)
	}
	m["alloc_mb"] = median(mb)
	m["allocs"] = median(n)
}

func (d memDelta) into(m map[string]float64) {
	m["runtime.alloc_mb"] = d.allocMB
	m["runtime.mallocs"] = d.mallocs
	m["runtime.gc_cycles"] = d.gcCycles
}

// quantile returns the q-quantile of xs (nearest rank on a sorted
// copy); NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle value (mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
