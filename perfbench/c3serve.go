package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/c3"
	"repro/internal/honeynet"
)

// c3Conns is the number of generator connections.
const c3Conns = 2

// buildStore fills a store with n synthetic credentials and pays the
// first Range's co-sort: the C3 set-up.
func buildStore(seed int64, n int) (*c3.Store, error) {
	store, err := c3.New(c3.Config{})
	if err != nil {
		return nil, err
	}
	at := honeynet.DefaultStart()
	c3.Synthetic(seed, n, func(account, password string) {
		store.Add(account, password, "synthetic", at)
	})
	if _, err := store.Range(0); err != nil {
		return nil, err
	}
	return store, nil
}

// c3Runner plans and checks range-query replays against one server.
type c3Runner struct {
	opts  runOpts
	store *c3.Store
	addr  string
	step  int64
	out   *outcome
	tr    *tracer
	rep   replies
}

// prepare draws the next replay's uniform random bucket prefixes:
// requests queries split over the connections.
func (cr *c3Runner) prepare(requests int) [][]uint64 {
	rng := rand.New(rand.NewSource(cr.opts.seed<<16 ^ cr.step))
	cr.step++
	n := max(requests/c3Conns, 1)
	prefixes := make([][]uint64, c3Conns)
	for c := range prefixes {
		prefixes[c] = make([]uint64, n)
		for i := range prefixes[c] {
			prefixes[c][i] = uint64(rng.Int63n(int64(cr.store.Buckets())))
		}
	}
	return prefixes
}

// replay sends the prefixes at rate and checks every reply against
// Store.Range for the same prefix.
func (cr *c3Runner) replay(prefixes [][]uint64, rate float64, label string) (stepStats, error) {
	streams := make([][]request, len(prefixes))
	for c, ps := range prefixes {
		for _, p := range ps {
			b, err := json.Marshal(c3.Request{Op: "range", Prefix: fmt.Sprintf("%x", p)})
			if err != nil {
				return stepStats{}, err
			}
			streams[c] = append(streams[c], request{frame: append(b, '\n')})
		}
	}
	pace(streams, rate)
	rep := cr.rep.reset(len(streams))
	runtimeGC()
	m0 := readMem()
	cpu0 := cpuTime()
	res := runStep(stepConfig{addrs: []string{cr.addr}, streams: streams, grace: 10 * time.Second, keep: rep.keep})
	cpu := cpuTime() - cpu0
	mem := diffMem(m0, readMem())
	st := summarize(res)
	st.cpu, st.mem = cpu, mem
	cr.tr.addRequests(label, res.start, res)
	cr.check(prefixes, rep, label)
	cr.out.attempted += st.attempted
	cr.out.failed += st.failed + st.rejected
	return st, nil
}

// check compares every reply's bucket with the store's.
func (cr *c3Runner) check(prefixes [][]uint64, rep *replies, label string) {
	bad := 0
	for c, ps := range prefixes {
		got := 0
		rep.each(c, func(i int, reply []byte) {
			got++
			var r c3.Response
			want, err := cr.store.Range(ps[i])
			if err != nil || json.Unmarshal(reply, &r) != nil || !r.OK || len(r.Hashes) != len(want) {
				bad++
				return
			}
			for j, h := range want {
				if r.Hashes[j] != c3.FormatHash(h) {
					bad++
					return
				}
			}
		})
		bad += len(ps) - got
	}
	if bad > 0 {
		cr.out.fail("%s: %d range replies differ from Store.Range", label, bad)
	}
}

func runC3Serve(opts runOpts) (*outcome, error) {
	sz := opts.sizes
	out := newOutcome()
	var tr *tracer
	if opts.traced {
		tr = newTracer()
	}
	var setups []float64
	var store *c3.Store
	var srv *c3.Server
	var addr string
	var build time.Duration
	for i := 0; i < sz.serveSetups; i++ {
		if srv != nil {
			srv.Close()
		}
		store, srv = nil, nil
		runtimeGC()
		root := tr.begin(0, "benchmark", "c3-setup")
		start := time.Now()
		var err error
		build, err = tr.timed(root, "c3", "build", func(int) error {
			store, err = buildStore(opts.seed, sz.c3Creds)
			return err
		})
		if err != nil {
			return nil, err
		}
		srv = c3.NewServer(store)
		if addr, err = srv.Listen("127.0.0.1:0"); err != nil {
			return nil, err
		}
		d := time.Since(start)
		tr.end(root)
		setups = append(setups, seconds(d))
		opts.logf("c3 set-up %d: %.3fs (fill + first range %.3fs)", i+1, seconds(d), seconds(build))
	}
	defer srv.Close()
	heap := liveHeapMB()
	cr := &c3Runner{opts: opts, store: store, addr: addr, out: out, tr: tr}
	replay := func(rate float64, requests int, label string) (stepStats, error) {
		return cr.replay(cr.prepare(requests), rate, label)
	}
	load := serveLoad{ref: sz.c3Ref, closed: sz.c3Closed, lo: sz.c3Lo, steps: sz.c3Steps, limit: sz.c3Limit}
	if opts.traced {
		return traceC3(opts, cr, build, load, replay)
	}
	if err := measureServe(opts, out, load, replay); err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = median(setups)
	out.metrics["live_heap_mb"] = heap
	return out, nil
}

// traceC3 is c3-serve's traced run: an untraced and a traced replay
// at the reference rate, and the traced replay's prefixes again
// in-process, giving the store's and the wire's share of the latency.
// Closed-loop bursts and the rate ladder follow.
func traceC3(opts runOpts, cr *c3Runner, build time.Duration, load serveLoad, replay replayFn) (*outcome, error) {
	sz := opts.sizes
	m := cr.out.metrics
	reqs := requestsFor(sz.c3Ref, sz.refDur)
	plainSt, err := cr.replay(cr.prepare(reqs), sz.c3Ref, "ref-untraced")
	if err != nil {
		return nil, err
	}
	prefixes := cr.prepare(reqs)
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	m0 := readMem()
	st, err := cr.replay(prefixes, sz.c3Ref, "ref-traced")
	m1 := readMem()
	buckets, perr := prof.stop()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	for b, v := range buckets {
		m["cpu."+b+"_s"] = v
	}
	diffMem(m0, m1).into(m)

	var ranges []float64
	id := cr.tr.begin(0, "c3", "range-in-process")
	for _, ps := range prefixes {
		for _, p := range ps {
			start := time.Now()
			if _, err := cr.store.Range(p); err != nil {
				return nil, err
			}
			ranges = append(ranges, micros(time.Since(start)))
		}
	}
	cr.tr.end(id)
	rangeUS := median(ranges)
	m["c3.build_s"] = seconds(build)
	m["c3.range_us"] = rangeUS
	m["c3.wire_overhead_p50_ms"] = millis(st.p50) - rangeUS/1000
	m["c3.bucket_mean"] = float64(cr.store.Len()) / float64(cr.store.Buckets())
	m["c3.fragment_creds"] = float64(cr.store.Len())
	m["c3.range_queries"] = float64(st.attempted - st.failed)
	m["gen.p90_ms"] = millis(st.p90)
	m["gen.p99_ms"] = millis(st.typicalP99())
	m["gen.lag_p99_ms"] = millis(st.ownLagP99)
	m["gen.attempted"] = float64(st.attempted)
	m["gen.failed"] = float64(st.failed)
	m["gen.rejected"] = float64(st.rejected)
	best, err := maxRateAtSLO(opts, load, replay)
	if err != nil {
		return nil, err
	}
	m["gen.max_qps_at_slo"] = best
	if m["throughput"], err = closedLoop(opts, cr.out, load, replay); err != nil {
		return nil, err
	}
	m["p50_ms"] = millis(plainSt.p50)
	m["cpu_s"] = seconds(plainSt.cpu)
	m["fail_ratio"] = float64(cr.out.failed) / float64(max(cr.out.attempted, 1))
	overhead := millis(st.p50)/millis(plainSt.p50) - 1
	m["trace.overhead_ratio"] = overhead
	opts.logf("wire p50 %.3fms, in-process range p50 %.2fus", millis(st.p50), rangeUS)
	printSelfTimes(cr.tr, overhead)
	if err := cr.tr.write(tracePath(opts, "c3-serve")); err != nil {
		return nil, err
	}
	return cr.out, nil
}
