package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/attacker"
	"repro/internal/honeynet"
	"repro/internal/livefleet"
	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/webmail"
)

// fleetConns is the number of generator connections and fleetShards
// the number of webmail shards, one per vCPU of the reference machine.
const (
	fleetConns  = 2
	fleetShards = 2
)

// shardService is one booted webmail shard behind its server.
type shardService struct {
	svc  *webmail.Service
	srv  *webmail.Server
	addr string
}

// fleet is the live fleet under test: two shards behind a router.
type fleet struct {
	shards []shardService
	router *livefleet.Router
	addr   string
	creds  []livefleet.Credential // every account, sorted by address
}

func (f *fleet) close() {
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.shards {
		s.srv.Close()
	}
}

// fleetSetup times one fleet set-up's parts.
type fleetSetup struct {
	sim, write, boot, listen time.Duration
	bytes                    int64
}

func (s fleetSetup) total() time.Duration { return s.sim + s.write + s.boot + s.listen }

// shardConfig is the serving config: a static virtual clock and the
// abuse detector off, as the live-fleet smoke runs it (the send-rate
// window never slides on a static clock, so replayed spam would trip
// it by design).
func shardConfig() webmail.Config {
	return webmail.Config{
		Clock: simtime.NewClock(honeynet.DefaultStart()),
		Abuse: webmail.AbuseConfig{Disabled: true},
	}
}

// writeFleetSnapshot sets up the sim-paper fleet and writes its
// post-setup snapshot to path.
func writeFleetSnapshot(opts runOpts, path string, tr *tracer, parent int) (fleetSetup, error) {
	var fs fleetSetup
	sz := opts.sizes
	sz.simScale = sz.fleetScale
	cfg, err := simConfig("sim-paper", opts.seed, sz)
	if err != nil {
		return fs, err
	}
	var exp *honeynet.Experiment
	fs.sim, err = tr.timed(parent, "honeynet", "setup", func(int) error {
		var err error
		if exp, err = honeynet.New(cfg); err != nil {
			return err
		}
		return exp.Setup()
	})
	if err != nil {
		return fs, err
	}
	fs.write, err = tr.timed(parent, "snapshot", "write", func(int) error { return exp.WriteSnapshotFile(path) })
	if err != nil {
		return fs, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return fs, err
	}
	fs.bytes = st.Size()
	return fs, nil
}

// bootShards boots both shards from the snapshot concurrently, as two
// processes would, and starts serving them. It returns the slowest
// boot's time.
func bootShards(path string, tr *tracer, parent int) ([]shardService, []livefleet.Credential, time.Duration, error) {
	shards := make([]shardService, fleetShards)
	creds := make([][]livefleet.Credential, fleetShards)
	durs := make([]time.Duration, fleetShards)
	errs := make([]error, fleetShards)
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			durs[i], errs[i] = tr.timed(parent, "livefleet", fmt.Sprintf("boot-%d", i), func(int) error {
				svc, c, err := livefleet.BootService(path, i, len(shards), shardConfig())
				shards[i].svc, creds[i] = svc, c
				return err
			})
		}(i)
	}
	wg.Wait()
	var slowest time.Duration
	var all []livefleet.Credential
	for i := range shards {
		if errs[i] != nil {
			return nil, nil, 0, errs[i]
		}
		slowest = max(slowest, durs[i])
		all = append(all, creds[i]...)
	}
	for i := range shards {
		srv := webmail.NewServer(shards[i].svc)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			for _, s := range shards[:i] {
				s.srv.Close()
			}
			return nil, nil, 0, err
		}
		shards[i].srv, shards[i].addr = srv, addr
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Address < all[j].Address })
	return shards, all, slowest, nil
}

// startFleet is one fleet set-up: the sim fleet's snapshot, both
// boots, the shard servers and the router listening.
func startFleet(opts runOpts, path string, tr *tracer) (*fleet, fleetSetup, error) {
	root := tr.begin(0, "benchmark", "fleet-setup")
	defer tr.end(root)
	fs, err := writeFleetSnapshot(opts, path, tr, root)
	if err != nil {
		return nil, fs, err
	}
	start := time.Now()
	shards, creds, boot, err := bootShards(path, tr, root)
	if err != nil {
		return nil, fs, err
	}
	fs.boot = boot
	f := &fleet{shards: shards, creds: creds}
	id := tr.begin(root, "livefleet", "router-listen")
	addrs := []string{shards[0].addr, shards[1].addr}
	f.router, err = livefleet.NewRouter(livefleet.RouterConfig{Shards: addrs})
	if err == nil {
		f.addr, err = f.router.Listen("127.0.0.1:0")
	}
	tr.end(id)
	if err != nil {
		f.close()
		return nil, fs, err
	}
	fs.listen = time.Since(start) - boot
	return f, fs, nil
}

// fleetStep is one planned replay: every connection's ops, request
// frames and the in-process oracle's expected result per op.
type fleetStep struct {
	ops    [][]livefleet.Op
	want   [][]uint64
	engine map[string][]time.Duration // per op kind, in-process time
}

// planStripe builds the attacker plan for one stripe of accounts and
// cuts each connection's stream to n ops.
func planStripe(creds []livefleet.Credential, seed int64, n int) ([][]livefleet.Op, error) {
	plan, err := livefleet.BuildPlan(livefleet.PlanConfig{
		Seed:      seed,
		Workers:   fleetConns,
		Visits:    n, // every visit is at least two ops
		Mailbox:   10,
		ListLimit: 20,
		Creds:     creds,
		Mix:       livefleet.MixFromPopulations(attacker.DefaultPopulations()),
	})
	if err != nil {
		return nil, err
	}
	ops := make([][]livefleet.Op, fleetConns)
	for w := range ops {
		if len(plan.Workers[w]) < n {
			return nil, fmt.Errorf("plan worker %d has %d ops, want %d", w, len(plan.Workers[w]), n)
		}
		ops[w] = plan.Workers[w][:n]
	}
	return ops, nil
}

// stripe returns accounts i with i % of == k.
func stripe(creds []livefleet.Credential, k, of int) []livefleet.Credential {
	var out []livefleet.Credential
	for i := k; i < len(creds); i += of {
		out = append(out, creds[i])
	}
	return out
}

// clientIP is connection w's claimed address (TEST-NET-3).
func clientIP(w int) string { return fmt.Sprintf("203.0.113.%d", 1+w) }

// frameOf encodes one op as a wire request line.
func frameOf(op *livefleet.Op, w int) ([]byte, error) {
	req := webmail.Request{Op: op.Kind, Folder: op.Folder, ID: webmail.MessageID(op.ID), Limit: op.Limit,
		To: op.To, Subject: op.Subject, Body: op.Body, Query: op.Query}
	switch op.Kind {
	case livefleet.OpLogin:
		req.Account, req.Password = op.Account, op.Password
		req.IP, req.City, req.Country = clientIP(w), "Berlin", "DE"
		req.Lat, req.Lon = 52.52, 13.405
		req.UserAgent = "perfbench/1"
	case livefleet.OpChpass:
		req.Password = op.Password
	}
	b, err := json.Marshal(req)
	return append(b, '\n'), err
}

// oracle replays a step's ops in-process on svc, one session per
// connection, exactly as webmail.Server handles each request, and
// records each op's result digest (and, when timing, its duration).
func oracle(svc *webmail.Service, ops [][]livefleet.Op, timing bool) ([][]uint64, map[string][]time.Duration) {
	want := make([][]uint64, len(ops))
	times := map[string][]time.Duration{}
	for w, stream := range ops {
		ep := netsim.Endpoint{Addr: netip.MustParseAddr(clientIP(w)), City: "Berlin", Country: "DE", UserAgent: "perfbench/1"}
		ep.Point.Lat, ep.Point.Lon = 52.52, 13.405
		var se *webmail.Session
		for i := range stream {
			op := &stream[i]
			start := time.Now()
			r := engineOp(svc, &se, op, ep)
			if timing {
				times[op.Kind] = append(times[op.Kind], time.Since(start))
			}
			want[w] = append(want[w], r.digest(op.Kind))
		}
	}
	return want, times
}

// result is the part of a reply the correctness check compares.
type result struct {
	OK       bool   `json:"ok"`
	Error    string `json:"error"`
	ID       int64  `json:"id"`
	Messages []struct {
		ID int64 `json:"ID"`
	} `json:"messages"`
	Message *struct {
		ID int64 `json:"ID"`
	} `json:"message"`
	Accesses []json.RawMessage `json:"accesses"`
}

// digest hashes what an op's reply must agree on: outcome, error,
// and per op the message IDs listed or found, the message read, the
// ID sent, or the number of activity rows.
func (r *result) digest(kind string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%t|%s|", r.OK, r.Error)
	switch kind {
	case livefleet.OpList, livefleet.OpSearch:
		fmt.Fprintf(h, "%d:", len(r.Messages))
		for _, m := range r.Messages {
			fmt.Fprintf(h, "%d,", m.ID)
		}
	case livefleet.OpRead:
		if r.Message != nil {
			fmt.Fprintf(h, "%d", r.Message.ID)
		}
	case livefleet.OpSend:
		fmt.Fprintf(h, "%d", r.ID)
	case livefleet.OpActivity:
		fmt.Fprintf(h, "%d", len(r.Accesses))
	}
	return h.Sum64()
}

// engineOp runs one op against the service the way webmail.Server's
// handler does and returns the reply it would send.
func engineOp(svc *webmail.Service, se **webmail.Session, op *livefleet.Op, ep netsim.Endpoint) result {
	var r result
	fail := func(err error) result { return result{Error: err.Error()} }
	if op.Kind != livefleet.OpLogin && *se == nil {
		return fail(errors.New("webmail: not logged in"))
	}
	switch op.Kind {
	case livefleet.OpLogin:
		s, err := svc.Login(op.Account, op.Password, "", ep)
		if err != nil {
			return fail(err)
		}
		*se = s
	case livefleet.OpList, livefleet.OpSearch:
		var msgs []webmail.Message
		var err error
		if op.Kind == livefleet.OpList {
			msgs, err = (*se).ListN(webmail.Folder(op.Folder), op.Limit)
		} else {
			msgs, err = (*se).Search(op.Query)
		}
		if err != nil {
			return fail(err)
		}
		for _, m := range msgs {
			r.Messages = append(r.Messages, struct {
				ID int64 `json:"ID"`
			}{int64(m.ID)})
		}
	case livefleet.OpRead:
		m, err := (*se).Read(webmail.MessageID(op.ID))
		if err != nil {
			return fail(err)
		}
		r.Message = &struct {
			ID int64 `json:"ID"`
		}{int64(m.ID)}
	case livefleet.OpSend:
		id, err := (*se).Send(op.To, op.Subject, op.Body)
		if err != nil {
			return fail(err)
		}
		r.ID = int64(id)
	case livefleet.OpChpass:
		if err := (*se).ChangePassword(op.Password); err != nil {
			return fail(err)
		}
	case livefleet.OpActivity:
		acc, err := (*se).ActivityPage()
		if err != nil {
			return fail(err)
		}
		r.Accesses = make([]json.RawMessage, len(acc))
	default:
		return fail(fmt.Errorf("webmail: unknown op %q", op.Kind))
	}
	r.OK = true
	return r
}

// fleetRunner drives replays against a fleet: each replay takes the
// next unused stripe of accounts, so every replay starts from state
// no earlier replay touched.
type fleetRunner struct {
	opts    runOpts
	creds   []livefleet.Credential
	stripes int
	next    int
	oracle  *webmail.Service
	out     *outcome
	tr      *tracer
	rep     replies
}

// prepare plans the next stripe's replay of requests ops and computes
// the oracle's expected results.
func (fr *fleetRunner) prepare(requests int, timing bool) (*fleetStep, error) {
	if fr.next >= fr.stripes {
		return nil, fmt.Errorf("out of fresh account stripes (%d)", fr.stripes)
	}
	k := fr.next
	fr.next++
	n := max(requests/fleetConns, 1)
	ops, err := planStripe(stripe(fr.creds, k, fr.stripes), fr.opts.seed<<16^int64(k), n)
	if err != nil {
		return nil, err
	}
	want, times := oracle(fr.oracle, ops, timing)
	return &fleetStep{ops: ops, want: want, engine: times}, nil
}

// replay sends a prepared step at rate to addrs (route picks each
// op's address) and checks every reply against the oracle.
func (fr *fleetRunner) replay(step *fleetStep, rate float64, addrs []string, route func(*livefleet.Op) int, label string) (stepStats, error) {
	streams := make([][]request, len(step.ops))
	for w, ops := range step.ops {
		for i := range ops {
			frame, err := frameOf(&ops[i], w)
			if err != nil {
				return stepStats{}, err
			}
			streams[w] = append(streams[w], request{addr: route(&ops[i]), frame: frame})
		}
	}
	pace(streams, rate)
	rep := fr.rep.reset(len(streams))
	runtimeGC()
	m0 := readMem()
	cpu0 := cpuTime()
	res := runStep(stepConfig{addrs: addrs, streams: streams, grace: 10 * time.Second, keep: rep.keep})
	cpu := cpuTime() - cpu0
	mem := diffMem(m0, readMem())
	st := summarize(res)
	st.cpu, st.mem = cpu, mem
	fr.tr.addRequests(label, res.start, res)
	fr.check(step, rep, label)
	fr.out.attempted += st.attempted
	fr.out.failed += st.failed + st.rejected
	return st, nil
}

// check compares every reply with the oracle's result for its op.
func (fr *fleetRunner) check(step *fleetStep, rep *replies, label string) {
	bad := 0
	for w := range step.ops {
		got := 0
		rep.each(w, func(i int, reply []byte) {
			got++
			var r result
			if err := json.Unmarshal(reply, &r); err != nil || r.digest(step.ops[w][i].Kind) != step.want[w][i] {
				bad++
			}
		})
		bad += len(step.ops[w]) - got
	}
	if bad > 0 {
		fr.out.fail("%s: %d replies differ from the in-process replay", label, bad)
	}
}

// routeAll sends every op to address 0.
func routeAll(*livefleet.Op) int { return 0 }

// routeShard sends each op straight to its account's shard.
func routeShard(op *livefleet.Op) int { return webmail.PartitionIndex(op.Account, fleetShards) }

func runFleetServe(opts runOpts) (*outcome, error) {
	sz := opts.sizes
	dir, err := scratchDir(opts)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "fleet.snap")
	var tr *tracer
	if opts.traced {
		tr = newTracer()
	}
	out := newOutcome()
	var setups []float64
	var fl *fleet
	var fs fleetSetup
	for i := 0; i < sz.serveSetups; i++ {
		if fl != nil {
			fl.close()
		}
		if fl, fs, err = startFleet(opts, snap, tr); err != nil {
			return nil, err
		}
		setups = append(setups, seconds(fs.total()))
		opts.logf("fleet set-up %d: %.3fs (sim %.3fs, snapshot %.3fs %d bytes, boot %.3fs, listen %.3fs)",
			i+1, seconds(fs.total()), seconds(fs.sim), seconds(fs.write), fs.bytes, seconds(fs.boot), seconds(fs.listen))
	}
	defer fl.close()
	heap := liveHeapMB()
	oracleSvc, _, err := livefleet.BootService(snap, 0, 1, shardConfig())
	if err != nil {
		return nil, err
	}
	fr := &fleetRunner{opts: opts, creds: fl.creds, oracle: oracleSvc, out: out, tr: tr,
		stripes: maxReplays(opts, sz.fleetSteps)}
	replay := func(rate float64, requests int, label string) (stepStats, error) {
		step, err := fr.prepare(requests, false)
		if err != nil {
			return stepStats{}, err
		}
		return fr.replay(step, rate, []string{fl.addr}, routeAll, label)
	}
	load := serveLoad{ref: sz.fleetRef, closed: sz.fleetClosed, lo: sz.fleetLo, steps: sz.fleetSteps, limit: sz.fleetLimit}
	if opts.traced {
		return traceFleet(opts, fr, fl, fs, snap, tr, load, replay)
	}
	if err := measureServe(opts, out, load, replay); err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = median(setups)
	out.metrics["live_heap_mb"] = heap
	return out, nil
}

// traceFleet is fleet-serve's traced run: an untraced and a traced
// routed replay at the reference rate, then the traced replay's plan
// again, straight to the shards of a freshly booted fleet and
// in-process on the oracle's untouched accounts, giving the router's
// and the wire's share of the latency. Closed-loop bursts and the
// rate ladder follow.
func traceFleet(opts runOpts, fr *fleetRunner, fl *fleet, fs fleetSetup, snap string, tr *tracer, load serveLoad, replay replayFn) (*outcome, error) {
	sz := opts.sizes
	out := fr.out
	m := out.metrics
	m["snapshot.write_s"] = seconds(fs.write)
	m["snapshot.bytes"] = float64(fs.bytes)
	m["livefleet.boot_s"] = seconds(fs.boot)

	reqs := requestsFor(sz.fleetRef, sz.refDur)
	plain, err := fr.prepare(reqs, false)
	if err != nil {
		return nil, err
	}
	plainSt, err := fr.replay(plain, sz.fleetRef, []string{fl.addr}, routeAll, "ref-untraced")
	if err != nil {
		return nil, err
	}

	// The oracle replays the traced step on accounts nothing touched
	// yet, timing each op: the engine's share of the latency.
	step, err := fr.prepare(reqs, true)
	if err != nil {
		return nil, err
	}
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	before := fl.router.Stats()
	m0 := readMem()
	routed, err := fr.replay(step, sz.fleetRef, []string{fl.addr}, routeAll, "ref-routed")
	m1 := readMem()
	after := fl.router.Stats()
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

	// The same plan, straight to the owning shards of a fresh fleet.
	shards, _, _, err := bootShards(snap, tr, 0)
	if err != nil {
		return nil, err
	}
	direct, err := fr.replay(step, sz.fleetRef, []string{shards[0].addr, shards[1].addr}, routeShard, "ref-direct")
	for _, s := range shards {
		s.srv.Close()
	}
	if err != nil {
		return nil, err
	}

	var all []float64
	for kind, ds := range step.engine {
		var xs []float64
		for _, d := range ds {
			xs = append(xs, micros(d))
		}
		m["webmail."+kind+"_us"] = median(xs)
		all = append(all, xs...)
	}
	engineP50 := median(all) / 1000
	m["livefleet.router_overhead_p50_ms"] = millis(routed.p50) - millis(direct.p50)
	m["webmail.wire_overhead_p50_ms"] = millis(direct.p50) - engineP50
	// Dials and retries over the traced replay; the in-flight
	// highwater is the run's.
	var dials, retries, high float64
	for i, s := range after.Shards {
		dials += float64(s.Dials - before.Shards[i].Dials)
		retries += float64(s.Retries - before.Shards[i].Retries)
		high = max(high, float64(s.InFlightHighwater))
	}
	m["livefleet.router_dials"] = dials
	m["livefleet.router_retries"] = retries
	m["livefleet.inflight_high"] = high
	m["gen.p90_ms"] = millis(routed.p90)
	m["gen.p99_ms"] = millis(routed.typicalP99())
	m["gen.lag_p99_ms"] = millis(routed.ownLagP99)
	m["gen.attempted"] = float64(routed.attempted)
	m["gen.failed"] = float64(routed.failed)
	m["gen.rejected"] = float64(routed.rejected)
	best, err := maxRateAtSLO(opts, load, replay)
	if err != nil {
		return nil, err
	}
	m["gen.max_qps_at_slo"] = best
	if m["throughput"], err = closedLoop(opts, out, load, replay); err != nil {
		return nil, err
	}
	m["p50_ms"] = millis(plainSt.p50)
	m["cpu_s"] = seconds(plainSt.cpu)
	m["fail_ratio"] = float64(out.failed) / float64(max(out.attempted, 1))
	overhead := millis(routed.p50)/millis(plainSt.p50) - 1
	m["trace.overhead_ratio"] = overhead
	opts.logf("routed p50 %.3fms, direct p50 %.3fms, engine p50 %.3fms", millis(routed.p50), millis(direct.p50), engineP50)
	printSelfTimes(tr, overhead)
	if err := tr.write(tracePath(opts, "fleet-serve")); err != nil {
		return nil, err
	}
	return out, nil
}
