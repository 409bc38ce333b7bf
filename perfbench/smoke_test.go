package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// smallSizes are tiny workloads: seconds for all four, traced and not.
var smallSizes = sizes{
	simScale:    1,
	fleetScale:  1,
	shards:      2,
	paperDays:   5,
	burstDays:   5,
	resamples:   20,
	setupReps:   1,
	simReports:  2,
	defenderDur: 6 * time.Hour,

	fleetRef:    500,
	fleetLo:     500,
	fleetLimit:  50 * time.Millisecond,
	fleetSteps:  1,
	c3Creds:     5000,
	c3Ref:       500,
	c3Lo:        500,
	c3Limit:     50 * time.Millisecond,
	c3Steps:     1,
	serveSetups: 1,
	refReps:     1,
	refDur:      100 * time.Millisecond,
	closedReps:  1,
	fleetClosed: 50,
	c3Closed:    50,
	warmDur:     100 * time.Millisecond,
	rungMin:     100 * time.Millisecond,
	rungReqs:    50,
}

// TestWorkloadsSmoke runs every workload, untraced and traced, at tiny
// sizes and checks its result line.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range []string{"sim-paper", "sim-burst", "fleet-serve", "c3-serve"} {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "", true: "/traced"}[traced], func(t *testing.T) {
				opts := runOpts{seed: 3, budget: time.Second, traced: traced, outDir: t.TempDir(), sizes: smallSizes}
				res, err := workloads[name](opts)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct || res.failed != 0 || res.attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d problems=%v", res.correct, res.failed, res.attempted, res.problems)
				}
				line, err := resultLine(res, traced)
				if err != nil {
					t.Fatal(err)
				}
				var out struct {
					Correct bool
					Metrics map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(line), &out); err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(out.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(out.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := out.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: %+v, want unit %s", d.Name, m, d.Unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSON checks BENCHMARK.json names exactly the workloads
// and metrics this program measures.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command   []string
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads, program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not in the program", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program has %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d] = %s %s, program has %s %s", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if strings.Join(b.Command, " ") != "bash perfbench/run.sh" {
		t.Errorf("command %v", b.Command)
	}
}
