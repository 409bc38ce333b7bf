// Command perfbench is the repository's benchmark. It drives the
// simulation, the live webmail fleet and the C3 service from outside,
// through their public Go APIs, in one process over loopback sockets,
// and prints one JSON result line.
//
// Usage (from the repository root, normally through perfbench/run.sh):
//
//	perfbench --workload <sim-paper|sim-burst|fleet-serve|c3-serve>
//	          --seed <n> --seconds <s> --trace <0|1> [--out dir]
//
// With --trace 0 the result carries every end-to-end metric; with
// --trace 1 a separate traced run carries every per-layer metric.
// Progress and a per-layer table go to standard error; the last line of
// standard output is the result object. The exit code is non-zero when
// the run could not be made; a failed correctness check still prints a
// result, with "correct": false.
//
// See README.md in this directory for what each workload and metric
// means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metricDef is one metric of the benchmark's contract.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run, in print order. Every
// workload reports every one; README.md gives each its per-workload
// meaning. Apart from setup_s they are memory and allocation figures:
// times and rates on the reference machine drift too far from run to
// run for any bound the benchmark may set, so they are reported by the
// traced run (report_s, p50_ms, cpu_s, throughput) without a bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"alloc_mb", "MB"},
	{"allocs", "count"},
}

// perLayer are the metrics of a traced run. A metric of a layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"report_s", "s"},
	{"p50_ms", "ms"},
	{"cpu_s", "s"},
	{"throughput", "1/s"},
	{"honeynet.setup_s", "s"},
	{"honeynet.leak_s", "s"},
	{"honeynet.run_s", "s"},
	{"honeynet.aggregate_s", "s"},
	{"simtime.events", "count"},
	{"simtime.shard_run_s.max", "s"},
	{"simtime.shard_skew", "ratio"},
	{"analysis.cvm_s", "s"},
	{"analysis.table2_s", "s"},
	{"report.render_s", "s"},
	{"cpu.simtime_s", "s"},
	{"cpu.appscript_s", "s"},
	{"cpu.monitor_s", "s"},
	{"cpu.attacker_s", "s"},
	{"cpu.webmail_s", "s"},
	{"cpu.corpus_s", "s"},
	{"cpu.analysis_s", "s"},
	{"cpu.c3_s", "s"},
	{"cpu.livefleet_s", "s"},
	{"cpu.gc_s", "s"},
	{"cpu.generator_s", "s"},
	{"cpu.other_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"attacker.records", "count"},
	{"sinkhole.mails", "count"},
	{"webmail.suspended", "count"},
	{"c3.fragment_creds", "count"},
	{"c3.range_queries", "count"},
	{"snapshot.write_s", "s"},
	{"snapshot.bytes", "bytes"},
	{"livefleet.boot_s", "s"},
	{"livefleet.router_overhead_p50_ms", "ms"},
	{"livefleet.router_dials", "count"},
	{"livefleet.router_retries", "count"},
	{"livefleet.inflight_high", "count"},
	{"webmail.login_us", "us"},
	{"webmail.list_us", "us"},
	{"webmail.search_us", "us"},
	{"webmail.read_us", "us"},
	{"webmail.send_us", "us"},
	{"webmail.chpass_us", "us"},
	{"webmail.activity_us", "us"},
	{"webmail.wire_overhead_p50_ms", "ms"},
	{"c3.build_s", "s"},
	{"c3.range_us", "us"},
	{"c3.wire_overhead_p50_ms", "ms"},
	{"c3.bucket_mean", "count"},
	{"gen.max_qps_at_slo", "1/s"},
	{"gen.p90_ms", "ms"},
	{"gen.p99_ms", "ms"},
	{"gen.lag_p99_ms", "ms"},
	{"gen.attempted", "count"},
	{"gen.failed", "count"},
	{"gen.rejected", "count"},
	{"fail_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// runOpts are the command-line settings every workload receives.
type runOpts struct {
	seed    int64
	budget  time.Duration // how long the run measures
	traced  bool
	outDir  string // build directory: scratch files and traces go here
	sizes   sizes
	verbose bool
}

// outcome is what a workload hands back: its metrics, its operation
// counts and whether every correctness check passed.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	correct   bool
	problems  []string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, correct: true}
}

// fail records a failed correctness check.
func (o *outcome) fail(format string, args ...any) {
	o.correct = false
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runOpts) (*outcome, error){
	"sim-paper":   runSimPaper,
	"sim-burst":   runSimBurst,
	"fleet-serve": runFleetServe,
	"c3-serve":    runC3Serve,
}

func main() {
	var (
		workload = flag.String("workload", "", "sim-paper, sim-burst, fleet-serve or c3-serve")
		seed     = flag.Int64("seed", 1, "workload seed: every input is generated from it")
		seconds  = flag.Int("seconds", 25, "how long the run measures")
		trace    = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		out      = flag.String("out", ".bench_build", "directory for scratch files and traces")
		record   = flag.String("record-digests", "", "re-record the sim report digests for seeds lo-hi (e.g. 0-24) into digests.json in the current directory and exit")
	)
	flag.Parse()
	if *record != "" {
		if err := recordDigests(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	opts := runOpts{
		seed:    *seed,
		budget:  time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		outDir:  *out,
		sizes:   fullSizes,
		verbose: true,
	}
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	line, err := resultLine(res, opts.traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", p)
	}
	fmt.Println(line)
}

// resultLine renders the contract's result object: every metric of
// the run's kind, each with its unit.
func resultLine(res *outcome, traced bool) (string, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok && !traced {
			return "", fmt.Errorf("workload did not measure %s", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.Name, v)
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	attempted := res.attempted
	if attempted < 1 {
		attempted = 1
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, attempted, res.failed, metrics})
	return string(b), err
}

// scratchDir makes a private directory for one run's files under the
// build directory; the caller removes it.
func scratchDir(opts runOpts) (string, error) {
	return os.MkdirTemp(opts.outDir, "run-")
}

// tracePath names the file a traced run writes its spans to.
func tracePath(opts runOpts, workload string) string {
	return filepath.Join(opts.outDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", workload, opts.seed))
}

// logf prints progress to standard error.
func (o runOpts) logf(format string, args ...any) {
	if o.verbose {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
}
