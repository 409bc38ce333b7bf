package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/honeynet"
	"repro/internal/report"
	"repro/internal/scenario"
)

// pinnedSetupSeed gives the set-up phase its own seed stream (the
// parallel set-up layout), so every seed runs on the same honey
// accounts and the digests do not depend on the legacy layout.
const pinnedSetupSeed = 20160216

// digestFile holds the SHA-256 of the full rendered report per sim
// workload and seed. --record-digests rewrites it in the current
// directory, so run that from this directory.
const digestFile = "digests.json"

//go:embed digests.json
var recordedDigests []byte

// simConfig compiles a sim workload's experiment config from the seed.
func simConfig(workload string, seed int64, sz sizes) (honeynet.Config, error) {
	switch workload {
	case "sim-paper":
		return honeynet.Config{
			Seed:        seed,
			SetupSeed:   pinnedSetupSeed,
			Duration:    time.Duration(sz.paperDays) * 24 * time.Hour,
			Shards:      sz.shards,
			ScaleFactor: sz.simScale,
		}, nil
	case "sim-burst":
		spec, err := scenario.Preset("spam-wave")
		if err != nil {
			return honeynet.Config{}, err
		}
		cfg, err := spec.Config(seed, sz.shards, sz.simScale)
		if err != nil {
			return honeynet.Config{}, err
		}
		cfg.SetupSeed = pinnedSetupSeed
		cfg.Duration = time.Duration(sz.burstDays) * 24 * time.Hour
		cfg.DefenderCadence = sz.defenderDur
		return cfg, nil
	}
	return honeynet.Config{}, fmt.Errorf("not a sim workload: %s", workload)
}

// simIter is one full report: New through the last rendered section.
type simIter struct {
	digest string
	counts map[string]float64 // exact outcome counts
	setup  time.Duration      // New + Setup
	total  time.Duration      // New → last section
	cpu    time.Duration      // process CPU over total
	mem    memDelta           // allocation over total
	heapMB float64            // live heap after the report, experiment still reachable
	layers map[string]float64 // traced runs: per-layer timings
}

// simIteration runs one report. With a tracer it also times each
// shard's run separately and every section.
func simIteration(cfg honeynet.Config, resamples int, tr *tracer) (*simIter, error) {
	it := &simIter{layers: map[string]float64{}}
	root := tr.begin(0, "benchmark", "report")
	m0 := readMem()
	cpu0 := cpuTime()
	start := time.Now()
	var exp *honeynet.Experiment
	dNew, err := tr.timed(root, "honeynet", "new", func(int) error {
		var err error
		exp, err = honeynet.New(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	dSetup, err := tr.timed(root, "honeynet", "setup", func(int) error { return exp.Setup() })
	if err != nil {
		return nil, err
	}
	it.setup = dNew + dSetup
	dLeak, err := tr.timed(root, "honeynet", "leak", func(int) error { return exp.Leak() })
	if err != nil {
		return nil, err
	}
	dRun, err := tr.timed(root, "honeynet", "run", func(id int) error {
		if tr == nil {
			return exp.Run()
		}
		return runShardsTraced(exp, tr, id, it.layers)
	})
	if err != nil {
		return nil, err
	}
	var agg *analysis.Aggregates
	dAgg, err := tr.timed(root, "honeynet", "aggregate", func(int) error {
		var err error
		agg, err = exp.Aggregates()
		return err
	})
	if err != nil {
		return nil, err
	}
	sum := sha256.New()
	var cvm, table2, other time.Duration
	_, err = tr.timed(root, "report", "render", func(id int) error {
		for _, s := range reportSections(exp, agg, resamples) {
			layer := "report"
			if s.analysis {
				layer = "analysis"
			}
			var body string
			d, _ := tr.timed(id, layer, s.id, func(int) error { body = s.render(); return nil })
			writeSection(sum, s.id, body)
			switch s.id {
			case "cvm", "sophistication":
				cvm += d
			case "table2":
				table2 += d
			default:
				other += d
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	it.total = time.Since(start)
	it.cpu = cpuTime() - cpu0
	it.mem = diffMem(m0, readMem())
	tr.end(root)
	it.digest = hex.EncodeToString(sum.Sum(nil))
	it.counts = simCounts(exp)
	it.heapMB = liveHeapMB()
	runtime.KeepAlive(exp)
	it.layers["honeynet.setup_s"] = seconds(it.setup)
	it.layers["honeynet.leak_s"] = seconds(dLeak)
	it.layers["honeynet.run_s"] = seconds(dRun)
	it.layers["honeynet.aggregate_s"] = seconds(dAgg)
	it.layers["analysis.cvm_s"] = seconds(cvm)
	it.layers["analysis.table2_s"] = seconds(table2)
	it.layers["report.render_s"] = seconds(other)
	return it, nil
}

// runShardsTraced is Experiment.Run with each shard's RunUntil timed
// in its own span: one goroutine per shard, as ShardSet.RunUntil does.
func runShardsTraced(exp *honeynet.Experiment, tr *tracer, parent int, layers map[string]float64) error {
	cfg := exp.Config()
	deadline := cfg.Start.Add(cfg.Duration)
	set := exp.ShardSet()
	durs := make([]time.Duration, set.Len())
	var wg sync.WaitGroup
	for i := 0; i < set.Len(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			durs[i], _ = tr.timed(parent, "simtime", fmt.Sprintf("shard-%d.RunUntil", i), func(int) error {
				set.Scheduler(i).RunUntil(deadline)
				return nil
			})
		}(i)
	}
	wg.Wait()
	var worst, total time.Duration
	for _, d := range durs {
		total += d
		worst = max(worst, d)
	}
	layers["simtime.shard_run_s.max"] = seconds(worst)
	if total > 0 {
		layers["simtime.shard_skew"] = float64(worst) * float64(len(durs)) / float64(total)
	}
	return nil
}

// section is one rendered report artifact.
type section struct {
	id       string
	analysis bool // dominated by an analysis pass rather than formatting
	render   func() string
}

// reportSections lists every section cmd/honeynet prints for a
// streaming run, in its order.
func reportSections(exp *honeynet.Experiment, agg *analysis.Aggregates, resamples int) []section {
	sigSeed := exp.Config().Seed
	table1 := func() string {
		counts := map[int]int{}
		for _, a := range exp.Assignments() {
			counts[a.Group.ID]++
		}
		var rows []report.Table1Row
		for id := 1; id <= 5; id++ {
			if counts[id] > 0 {
				rows = append(rows, report.Table1Row{Group: id, Count: counts[id], Label: honeynet.PaperGroupLabel(id)})
			}
		}
		return report.Table1(rows)
	}
	out := []section{
		{"overview", false, func() string { return report.Overview(agg.Overview()) }},
		{"table1", false, table1},
		{"fig1", false, func() string { return report.Figure1Sketches(agg.Durations) }},
		{"fig2", false, func() string { return report.Figure2(agg.PerOutlet) }},
		{"fig3", false, func() string { return report.Figure3Sketches(agg.TimeToAccess) }},
		{"fig4", false, func() string { return report.Figure4Buckets(agg.Timeline, agg.TimelineMax) }},
		{"sysconfig", false, func() string { return report.SystemConfig(agg.ConfigRows()) }},
		{"fig5a", false, func() string { return report.Figure5("UK/London", agg.MedianRadii(analysis.HintUK)) }},
		{"fig5b", false, func() string { return report.Figure5("US/Pontiac", agg.MedianRadii(analysis.HintUS)) }},
		{"cvm", true, func() string { return report.Significance(agg.LocationSignificance(resamples, sigSeed)) }},
		{"table2", true, func() string {
			r := agg.KeywordInference(exp.SeededContents(), exp.DropWords())
			return report.Table2(r.TopSearched(10), r.TopCorpus(10))
		}},
		{"cases", false, func() string {
			return report.CaseStudies(exp.Blackmailers(), len(agg.Drafts), len(exp.AllInquiries()))
		}},
		{"sophistication", true, func() string {
			return report.Sophistication(agg.ConfigRows(), agg.LocationSignificance(resamples, sigSeed))
		}},
	}
	if exp.DefenderEnabled() {
		out = append(out, section{"defender", false, func() string {
			return report.Defender(scenario.DefenderRows(exp.DefenderOutcomes()))
		}})
	}
	return out
}

// writeSection feeds one section to the digest exactly as cmd/honeynet
// prints it.
func writeSection(h hash.Hash, id, body string) {
	fmt.Fprintf(h, "===== %s =====\n%s\n", id, body)
}

// simCounts are the run's exact outcome counts: a performance change
// must not move them.
func simCounts(exp *honeynet.Experiment) map[string]float64 {
	return map[string]float64{
		"simtime.events":    float64(exp.ShardSet().Fired()),
		"attacker.records":  float64(len(exp.Records())),
		"sinkhole.mails":    float64(exp.SinkholeCount()),
		"webmail.suspended": float64(exp.Service().SuspendedCount()),
		"c3.fragment_creds": float64(exp.C3Stats().Credentials),
		"c3.range_queries":  float64(defenderQueries(exp)),
	}
}

// defenderQueries counts the defender's C3 range queries. The defender
// is armed at the leak (the window's start) and checks every
// still-undetected account once per cadence, so an account costs one
// query per tick up to and including the tick that detects it.
func defenderQueries(exp *honeynet.Experiment) int64 {
	cfg := exp.Config()
	if cfg.DefenderCadence <= 0 {
		return 0
	}
	ticks := int64(cfg.Duration / cfg.DefenderCadence)
	var n int64
	for _, o := range exp.DefenderOutcomes() {
		if o.Detected {
			n += int64(o.DetectedAt.Sub(cfg.Start) / cfg.DefenderCadence)
		} else {
			n += ticks
		}
	}
	return n
}

func runSimPaper(opts runOpts) (*outcome, error) { return runSim("sim-paper", opts) }
func runSimBurst(opts runOpts) (*outcome, error) { return runSim("sim-burst", opts) }

// runSim measures a sim workload: a few extra set-ups for a steadier
// setup_s, then full reports back to back until the budget is spent
// (at least simReports, so the checks compare reports of one run). A
// traced run makes one untraced and one traced report instead and
// reports the per-layer metrics, the untraced report's times among
// them.
func runSim(workload string, opts runOpts) (*outcome, error) {
	sz := opts.sizes
	cfg, err := simConfig(workload, opts.seed, sz)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	var setups []float64
	for i := 0; i < sz.setupReps; i++ {
		start := time.Now()
		exp, err := honeynet.New(cfg)
		if err == nil {
			err = exp.Setup()
		}
		if err != nil {
			return nil, err
		}
		setups = append(setups, seconds(time.Since(start)))
	}
	want := recordedDigest(workload, opts.seed)
	if opts.sizes != fullSizes {
		want = ""
	}
	if opts.traced {
		return traceSim(workload, opts, cfg, want, out)
	}
	begin := time.Now()
	var iters []*simIter
	for {
		it, err := simIteration(cfg, sz.resamples, nil)
		if err != nil {
			return nil, err
		}
		iters = append(iters, it)
		opts.logf("%s seed %d: report %d in %.3fs (setup %.3fs, cpu %.3fs, heap %.1f MB, alloc %.1f MB in %.0f objects), sha256 %s",
			workload, opts.seed, len(iters), seconds(it.total), seconds(it.setup), seconds(it.cpu), it.heapMB,
			it.mem.allocMB, it.mem.mallocs, it.digest)
		elapsed := time.Since(begin)
		if len(iters) >= sz.simReports && elapsed+elapsed/time.Duration(len(iters)) > opts.budget {
			break
		}
	}
	checkSimIters(out, iters, want)
	var heaps []float64
	var mems []memDelta
	for _, it := range iters {
		setups = append(setups, seconds(it.setup))
		heaps = append(heaps, it.heapMB)
		mems = append(mems, it.mem)
	}
	out.attempted = int64(len(iters))
	out.metrics["setup_s"] = median(setups)
	out.metrics["live_heap_mb"] = median(heaps)
	allocMedians(mems, out.metrics)
	return out, nil
}

// traceSim is a sim workload's traced run.
func traceSim(workload string, opts runOpts, cfg honeynet.Config, want string, out *outcome) (*outcome, error) {
	plain, err := simIteration(cfg, opts.sizes.resamples, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	m0 := readMem()
	traced, err := simIteration(cfg, opts.sizes.resamples, tr)
	m1 := readMem()
	buckets, perr := prof.stop()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	checkSimIters(out, []*simIter{plain, traced}, want)
	for k, v := range traced.layers {
		out.metrics[k] = v
	}
	for k, v := range traced.counts {
		out.metrics[k] = v
	}
	for b, v := range buckets {
		out.metrics["cpu."+b+"_s"] = v
	}
	diffMem(m0, m1).into(out.metrics)
	accountDays := float64(honeynet.PlannedAccounts(cfg)) * cfg.Duration.Hours() / 24
	out.metrics["report_s"] = seconds(plain.total)
	out.metrics["cpu_s"] = seconds(plain.cpu)
	out.metrics["throughput"] = accountDays / seconds(plain.total)
	overhead := seconds(traced.total)/seconds(plain.total) - 1
	out.metrics["trace.overhead_ratio"] = overhead
	out.attempted = 2
	printSelfTimes(tr, overhead)
	if err := tr.write(tracePath(opts, workload)); err != nil {
		return nil, err
	}
	return out, nil
}

// checkSimIters applies the sim correctness checks: every report of
// the run renders the same bytes, matching the recorded digest when
// the seed has one, and the exact counts repeat.
func checkSimIters(out *outcome, iters []*simIter, want string) {
	first := iters[0]
	if want != "" && first.digest != want {
		out.fail("report digest %s, recorded %s", first.digest, want)
	}
	for i, it := range iters[1:] {
		if it.digest != first.digest {
			out.fail("report %d digest %s differs from the first report's %s", i+2, it.digest, first.digest)
		}
		for k, v := range first.counts {
			if it.counts[k] != v {
				out.fail("report %d: %s = %v, first report %v", i+2, k, it.counts[k], v)
			}
		}
	}
	if !out.correct {
		out.failed++
	}
}

// recordedDigest looks up the recorded digest of a workload and seed;
// "" when none was recorded.
func recordedDigest(workload string, seed int64) string {
	var all map[string]map[string]string
	if err := json.Unmarshal(recordedDigests, &all); err != nil {
		return ""
	}
	return all[workload][strconv.FormatInt(seed, 10)]
}

// recordDigests renders both sim workloads for seeds lo..hi (spec
// "lo-hi") and writes their digests to digestFile.
func recordDigests(spec string) error {
	loS, hiS, _ := strings.Cut(spec, "-")
	lo, err1 := strconv.ParseInt(loS, 10, 64)
	hi, err2 := strconv.ParseInt(hiS, 10, 64)
	if err1 != nil || err2 != nil || hi < lo {
		return fmt.Errorf("--record-digests wants a seed range lo-hi, got %q", spec)
	}
	all := map[string]map[string]string{}
	for _, w := range []string{"sim-paper", "sim-burst"} {
		all[w] = map[string]string{}
		for seed := lo; seed <= hi; seed++ {
			cfg, err := simConfig(w, seed, fullSizes)
			if err != nil {
				return err
			}
			it, err := simIteration(cfg, fullSizes.resamples, nil)
			if err != nil {
				return err
			}
			all[w][strconv.FormatInt(seed, 10)] = it.digest
			fmt.Fprintf(os.Stderr, "%s seed %d: %s (%.2fs)\n", w, seed, it.digest, seconds(it.total))
		}
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestFile, append(b, '\n'), 0o644)
}
