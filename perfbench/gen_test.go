package main

import (
	"bufio"
	"math"
	"net"
	"sync"
	"testing"
	"time"
)

// stubServer answers every newline-terminated request with reply(i),
// where i counts requests across connections, after sleeping stall(i).
type stubServer struct {
	ln    net.Listener
	wg    sync.WaitGroup
	mu    sync.Mutex
	n     int
	stall func(i int) time.Duration
	reply func(i int) string
}

func startStub(t *testing.T, stall func(int) time.Duration, reply func(int) string) *stubServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stubServer{ln: ln, stall: stall, reply: reply}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					if _, err := br.ReadBytes('\n'); err != nil {
						return
					}
					s.mu.Lock()
					i := s.n
					s.n++
					s.mu.Unlock()
					time.Sleep(s.stall(i))
					if _, err := c.Write([]byte(s.reply(i) + "\n")); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		s.wg.Wait()
	})
	return s
}

func stubStep(addr string, n int, rate float64) stepConfig {
	stream := make([]request, n)
	for i := range stream {
		stream[i] = request{frame: []byte(`{"op":"ping"}` + "\n")}
	}
	streams := [][]request{stream}
	pace(streams, rate)
	return stepConfig{addrs: []string{addr}, streams: streams, grace: 5 * time.Second}
}

// TestDueTimeChargesStall checks the generator against coordinated
// omission: one request stalls 200ms, so the requests due during the
// stall go out late. Timed from their due time they are slow; timed
// from their send they are not. The stall and the 100ms threshold sit
// far above the few-millisecond hiccups of a shared host, and the stall
// falls in the second quarter of the step, so the backlog it leaves has
// cleared before the last quarter.
func TestDueTimeChargesStall(t *testing.T) {
	const n, stalled, stall, slow = 1000, 300, 200 * time.Millisecond, 100 * time.Millisecond
	s := startStub(t, func(i int) time.Duration {
		if i == stalled {
			return stall
		}
		return 0
	}, func(int) string { return `{"ok":true}` })
	res := runStep(stubStep(s.ln.Addr().String(), n, 1000))
	st := summarize(res)
	if st.attempted != n || st.failed != 0 || st.rejected != 0 {
		t.Fatalf("attempted %d failed %d rejected %d, want %d/0/0", st.attempted, st.failed, st.rejected, n)
	}
	late, sendSlow := 0, 0
	for i, smp := range res.samples[0][stalled+1:] {
		due, sent := smp.done-smp.due, smp.done-smp.sent
		if i < 30 && due < slow {
			t.Errorf("request %d, due during the stall: due-time latency %v, want ≥ %v", stalled+1+i, due, slow)
		}
		if due >= slow {
			late++
		}
		if sent >= slow {
			sendSlow++
		}
	}
	if late < 30 {
		t.Errorf("%d requests after the stall are ≥%v late from their due time, want ≥ 30", late, slow)
	}
	if sendSlow != 0 {
		t.Errorf("%d requests after the stall are slow from their send, want 0", sendSlow)
	}
	if st.p99 < slow || st.sendP99 >= slow {
		t.Errorf("due-time p99 %v, send-time p99 %v: want the stall in the first only", st.p99, st.sendP99)
	}
	if st.lagGrowth > time.Millisecond {
		t.Errorf("lag growth %v after a single stall, want none", st.lagGrowth)
	}
}

// TestRefusalMissesLimit checks that a refused request counts as
// infinitely late and fails the ladder's tests.
func TestRefusalMissesLimit(t *testing.T) {
	s := startStub(t, func(int) time.Duration { return 0 }, func(i int) string {
		if i%10 == 3 {
			return `{"ok":false,"error":"refused"}`
		}
		return `{"ok":true}`
	})
	st := summarize(runStep(stubStep(s.ln.Addr().String(), 100, 2000)))
	if st.rejected != 10 {
		t.Fatalf("rejected %d, want 10", st.rejected)
	}
	if st.p99 != never || st.passes(time.Second) {
		t.Errorf("p99 %v passes=%v with 10%% refusals, want never and a failing step", st.p99, st.passes(time.Second))
	}
}

// TestFailedConnectionCounts checks that requests to a dead address
// count as failed.
func TestFailedConnectionCounts(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	st := summarize(runStep(stubStep(addr, 5, 1000)))
	if st.failed != 5 || st.passes(time.Hour) {
		t.Errorf("failed %d passes=%v against a closed port, want 5 and a failing step", st.failed, st.passes(time.Hour))
	}
}

// TestLadderStopsAndBisects climbs a ladder whose rungs pass up to a
// capacity and checks the reported rate.
func TestLadderStopsAndBisects(t *testing.T) {
	const capacity = 1500.0
	var tried []float64
	best, steps, err := runLadder(1000, 10, time.Millisecond, func(rate float64) (stepStats, error) {
		tried = append(tried, rate)
		st := stepStats{windowP99: []float64{0.1}}
		if rate > capacity {
			st.windowP99 = []float64{5}
		}
		return st, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rungs 1000·1.1^k pass through k=4 (1464.1); k=5 and k=6 fail
	// twice each; bisection then tries 1.1^4.5 (1535.6, fails twice)
	// and 1.1^4.25 (1499.4, passes).
	if want := 1000 * math.Pow(1.1, 4.25); math.Abs(best-want) > 1e-6 {
		t.Errorf("best %.4f, want %.4f", best, want)
	}
	if len(steps) != len(tried) || len(tried) != 5+4+3 {
		t.Errorf("%d tries (%v), want 12", len(tried), tried)
	}
}

// TestLadderStepsDown checks that a ladder whose first rungs fail
// steps down until a rung passes.
func TestLadderStepsDown(t *testing.T) {
	best, _, err := runLadder(1000, 10, time.Millisecond, func(rate float64) (stepStats, error) {
		st := stepStats{windowP99: []float64{0.1}}
		if rate > 700 {
			st.windowP99 = []float64{5}
		}
		return st, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1000·1.1^-4 = 683.0 passes; bisection tries 1.1^-3.5 (716.4,
	// fails) and 1.1^-3.75 (699.5, passes).
	if want := 1000 * math.Pow(1.1, -3.75); math.Abs(best-want) > 1e-6 {
		t.Errorf("best %.4f, want %.4f", best, want)
	}
}

// TestBucketOf checks how sampled stacks map to layers.
func TestBucketOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/simtime.(*wheelBucket).tick"}, "simtime"},
		{[]string{"sync.(*Mutex).Lock", "repro/internal/appscript.(*Runtime).scan", "repro/internal/simtime.(*wheelBucket).tick"}, "appscript"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"encoding/json.(*encodeState).marshal", "repro/internal/webmail.(*Server).serveConn"}, "webmail"},
		{[]string{"syscall.Syscall", "main.runConn"}, "generator"},
		{[]string{"repro/internal/geo.Distance"}, "other"},
		{[]string{"runtime.futex", "runtime.findRunnable"}, "other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// TestCPUProfileBuckets profiles a busy loop in this package and checks
// the decoded profile attributes it to the generator bucket.
func TestCPUProfileBuckets(t *testing.T) {
	p, err := startCPUProfile()
	if err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	b, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range b {
		total += v
	}
	if total <= 0 || b["generator"] < total/2 {
		t.Errorf("buckets %v: want most of the CPU in the generator bucket", b)
	}
}

var spinSink int

func spin(d time.Duration) {
	sum := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 100000; i++ {
			sum += i ^ sum>>3
		}
	}
	spinSink = sum
}
