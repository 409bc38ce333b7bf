package main

import (
	"fmt"
	"math"
	"time"
)

// serveLoad is a serve workload's load: the reference rate its
// latency is measured at, and the rate ladder a traced run finds its
// capacity at the latency limit on.
type serveLoad struct {
	ref    float64       // reference rate, requests per second
	closed int           // requests in one closed-loop burst
	lo     float64       // the ladder's first rung
	steps  int           // ladder rungs above the first
	limit  time.Duration // p99 latency limit of a passing rung
}

// replayFn replays requests fresh requests at rate (+Inf: each sent
// as soon as its connection's previous reply arrives, a closed loop):
// it plans them on state no earlier replay touched, collects garbage,
// sends them and checks every reply.
type replayFn func(rate float64, requests int, label string) (stepStats, error)

// measureServe is the untraced measurement of a serve workload: one
// warm-up replay, then replays at the reference rate until the budget
// is spent (at least refReps). It fills alloc_mb and allocs, per 1,000
// requests; each replay's latency and CPU go to the log.
func measureServe(opts runOpts, out *outcome, load serveLoad, replay replayFn) error {
	sz := opts.sizes
	if _, err := replay(load.ref, requestsFor(load.ref, sz.warmDur), "warm-up"); err != nil {
		return err
	}
	var mems []memDelta
	begin := time.Now()
	for i := 1; ; i++ {
		st, err := replay(load.ref, requestsFor(load.ref, sz.refDur), fmt.Sprintf("ref-%d", i))
		if err != nil {
			return err
		}
		mems = append(mems, st.mem.scaled(1000/float64(st.attempted)))
		if st.failed+st.rejected > 0 {
			out.fail("reference replay %d: %d failed, %d refused", i, st.failed, st.rejected)
		}
		opts.logf("reference %d at %.0f/s: p50 %.3fms p90 %.3fms p99 %.3fms (typical %.3fms, send-timed %.3fms), generator lag p99 %.3fms, cpu %.3fs, alloc %.3f MB in %.0f objects",
			i, load.ref, millis(st.p50), millis(st.p90), millis(st.p99), millis(st.typicalP99()), millis(st.sendP99), millis(st.ownLagP99),
			seconds(st.cpu), st.mem.allocMB, st.mem.mallocs)
		elapsed := time.Since(begin)
		if i >= sz.refReps && elapsed+elapsed/time.Duration(i) > opts.budget {
			break
		}
	}
	allocMedians(mems, out.metrics)
	return nil
}

// maxReplays bounds how many replays one run makes, warm-up, traced
// and ladder replays included: fleet-serve gives each its own stripe
// of accounts.
func maxReplays(opts runOpts, steps int) int {
	sz := opts.sizes
	refs := max(sz.refReps, int(opts.budget/sz.refDur)+1)
	ladder := 2 * (steps + 1 + ladderDescent + 2) // two tries per rung, step-down and bisection included
	return 1 + refs + 3 + sz.closedReps + ladder  // warm-up, reference, the traced run's three, bursts, ladder
}

// closedLoop makes the traced run's closed-loop bursts and returns
// their median rate: the serve workloads' throughput.
func closedLoop(opts runOpts, out *outcome, load serveLoad, replay replayFn) (float64, error) {
	var caps []float64
	for i := 0; i < opts.sizes.closedReps; i++ {
		st, err := replay(math.Inf(1), load.closed, fmt.Sprintf("closed-%d", i))
		if err != nil {
			return 0, err
		}
		caps = append(caps, st.achieved)
		if st.failed+st.rejected > 0 {
			out.fail("closed-loop burst %d: %d failed, %d refused", i, st.failed, st.rejected)
		}
		opts.logf("closed loop %d: %d requests at %.0f/s", i, st.attempted, st.achieved)
	}
	return median(caps), nil
}

// requestsFor is how many requests rate sends in d.
func requestsFor(rate float64, d time.Duration) int {
	return max(int(rate*d.Seconds()), 1)
}

// maxRateAtSLO climbs the rate ladder (traced runs) and logs every try.
func maxRateAtSLO(opts runOpts, load serveLoad, replay replayFn) (float64, error) {
	sz := opts.sizes
	best, steps, err := runLadder(load.lo, load.steps, load.limit, func(rate float64) (stepStats, error) {
		n := max(requestsFor(rate, sz.rungMin), sz.rungReqs)
		return replay(rate, n, fmt.Sprintf("ladder-%.0f", rate))
	})
	for _, s := range steps {
		verdict := "pass"
		if !s.ok {
			verdict = "FAIL"
		}
		opts.logf("ladder %8.0f/s: p50 %.3fms p99 %.3fms typical p99 %.3fms lag growth %.3fms gen lag p99 %.3fms achieved %.0f/s faults %d %s",
			s.rate, millis(s.st.p50), millis(s.st.p99), millis(s.st.typicalP99()), millis(s.st.lagGrowth), millis(s.st.ownLagP99),
			s.st.achieved, s.st.failed+s.st.rejected, verdict)
	}
	return best, err
}

// runtimeGC starts a replay from a collected heap, so garbage from
// planning and checking earlier replays is not collected inside it
// and each replay's own collections fall at the same points.
func runtimeGC() { liveHeapMB() }
