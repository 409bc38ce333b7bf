package main

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The benchmark's open-loop generator. Each connection replays its
// own stream of requests, each due at a fixed offset from the step's
// start, one request in flight at a time (the wire protocols are
// request/response). A request is sent when it is due or, if the
// previous reply is still outstanding, as soon as that reply arrives;
// its latency is counted from the due time, so a stall charges its
// wait to every request queued behind it instead of hiding it
// (coordinated omission). A request that fails or is refused counts as
// missing every latency limit.

// request is one scheduled request of a connection's stream.
type request struct {
	due   time.Duration // since the step's start
	addr  int           // index into stepConfig.addrs
	frame []byte        // one newline-terminated request
}

// sample is the generator's record of one request. Times are offsets
// from the step's start; done is -1 when no reply arrived.
type sample struct {
	due, sent, done time.Duration
	ok              bool
}

// stepConfig is one run of the generator.
type stepConfig struct {
	addrs   []string
	streams [][]request   // one per connection
	grace   time.Duration // how long after the last due time replies may arrive
	// keep, when set, sees every reply in order; the slice is only
	// valid during the call.
	keep func(conn, i int, reply []byte)
}

// stepResult holds every request's sample, per connection.
type stepResult struct {
	start   time.Time
	samples [][]sample
}

var okPrefix = []byte(`{"ok":true`)

// runStep replays every stream concurrently and returns when each
// request has a reply or has failed.
func runStep(cfg stepConfig) *stepResult {
	var last time.Duration
	for _, s := range cfg.streams {
		if n := len(s); n > 0 && s[n-1].due > last {
			last = s[n-1].due
		}
	}
	// Give every connection time to dial before the first request is
	// due.
	start := time.Now().Add(5 * time.Millisecond)
	deadline := start.Add(last + cfg.grace)
	res := &stepResult{start: start, samples: make([][]sample, len(cfg.streams))}
	var wg sync.WaitGroup
	for c := range cfg.streams {
		res.samples[c] = make([]sample, len(cfg.streams[c]))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runConn(cfg, c, start, deadline, res.samples[c])
		}(c)
	}
	wg.Wait()
	return res
}

// wireConn is one generator connection.
type wireConn struct {
	c  net.Conn
	br *bufio.Reader
}

// dialWire connects to addr, giving up at deadline; nil on failure.
func dialWire(addr string, deadline time.Time) *wireConn {
	left := time.Until(deadline)
	if left <= 0 {
		return nil
	}
	nc, err := net.DialTimeout("tcp", addr, left)
	if err != nil {
		return nil
	}
	nc.SetDeadline(deadline)
	return &wireConn{c: nc, br: bufio.NewReaderSize(nc, 64<<10)}
}

// runConn replays one stream. It dials every address before the
// first request is due and holds its OS thread for the whole stream,
// so the short waits between requests can sleep precisely. A
// connection that fails is redialled for the next request to its
// address.
func runConn(cfg stepConfig, c int, start, deadline time.Time, out []sample) {
	runtime.LockOSThread() // never unlocked: the thread exits with the goroutine
	preciseThread()
	conns := make([]*wireConn, len(cfg.addrs))
	for a, addr := range cfg.addrs {
		conns[a] = dialWire(addr, deadline)
	}
	defer func() {
		for _, wc := range conns {
			if wc != nil {
				wc.c.Close()
			}
		}
	}()
	var scratch []byte
	for i, r := range cfg.streams[c] {
		s := &out[i]
		s.due, s.done = r.due, -1
		waitUntil(start.Add(r.due))
		if conns[r.addr] == nil {
			conns[r.addr] = dialWire(cfg.addrs[r.addr], deadline)
		}
		s.sent = time.Since(start)
		wc := conns[r.addr]
		if wc == nil {
			continue
		}
		reply, err := roundTrip(wc, r.frame, &scratch)
		if err != nil {
			wc.c.Close()
			conns[r.addr] = nil
			continue
		}
		s.done = time.Since(start)
		s.ok = bytes.HasPrefix(reply, okPrefix)
		if cfg.keep != nil {
			cfg.keep(c, i, reply)
		}
	}
}

// roundTrip writes one frame and reads one newline-terminated reply.
func roundTrip(wc *wireConn, frame []byte, scratch *[]byte) ([]byte, error) {
	if _, err := wc.c.Write(frame); err != nil {
		return nil, err
	}
	line, err := wc.br.ReadSlice('\n')
	if err == nil {
		return line, nil
	}
	if !errors.Is(err, bufio.ErrBufferFull) {
		return nil, err
	}
	buf := append((*scratch)[:0], line...)
	for errors.Is(err, bufio.ErrBufferFull) {
		line, err = wc.br.ReadSlice('\n')
		buf = append(buf, line...)
	}
	*scratch = buf
	return buf, err
}

// waitUntil blocks until t: long waits on Go's timer, the last
// stretch on the thread.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > 2*time.Millisecond:
			time.Sleep(d - time.Millisecond)
		default:
			shortSleep(d)
		}
	}
}

// replies keeps every reply of a step, per connection, for checking
// after the step. Its buffers are reused from step to step, so keeping
// replies allocates nothing once they have grown.
type replies struct {
	buf  [][]byte
	ends [][]int
}

// reset empties the buffers for a step over conns connections.
func (r *replies) reset(conns int) *replies {
	for len(r.buf) < conns {
		r.buf = append(r.buf, nil)
		r.ends = append(r.ends, nil)
	}
	for c := range r.buf {
		r.buf[c], r.ends[c] = r.buf[c][:0], r.ends[c][:0]
	}
	return r
}

func (r *replies) keep(c, _ int, reply []byte) {
	r.buf[c] = append(r.buf[c], reply...)
	r.ends[c] = append(r.ends[c], len(r.buf[c]))
}

func (r *replies) each(c int, fn func(i int, reply []byte)) {
	start := 0
	for i, end := range r.ends[c] {
		fn(i, r.buf[c][start:end])
		start = end
	}
}

// pace sets the due times of every stream for an aggregate rate: each
// connection sends evenly at rate/len(streams), the connections
// staggered so arrivals interleave.
func pace(streams [][]request, rate float64) {
	conns := float64(len(streams))
	interval := conns / rate * float64(time.Second)
	for c, s := range streams {
		offset := float64(c) / rate * float64(time.Second)
		for i := range s {
			s[i].due = time.Duration(offset + float64(i)*interval)
		}
	}
}

// stepStats summarises a step from the generator's records.
type stepStats struct {
	attempted, rejected, failed int64
	// p50, p90 and p99 are latencies from the due time; a failed or
	// refused request counts as infinitely late.
	p50, p90, p99 time.Duration
	// windowP99 is the p99 of each window of p99Window consecutive
	// requests (in due order), in milliseconds. Their median is the
	// step's typical p99: a rare stall inflates a window's p99 but not
	// the median.
	windowP99 []float64
	// sendP99 times from the send instead, for comparison.
	sendP99 time.Duration
	// ownLagP99 is the generator's own lateness: how long after both
	// the due time and the previous reply a request went out.
	ownLagP99 time.Duration
	// lagGrowth is how much later than due requests went out in the
	// step's last quarter than in its first, by median: a backlog.
	lagGrowth time.Duration
	achieved  float64       // replies per second over the step
	cpu       time.Duration // process CPU while the step ran
	mem       memDelta      // allocation while the step ran
}

// never stands for the latency of a request that failed or was
// refused: later than any limit, yet still exact as a float64.
const never = time.Duration(1 << 62)

// p99Window is the number of requests in one window of windowP99:
// ten beyond the p99.
const p99Window = 1000

// timedLat is one request's latency at its due time.
type timedLat struct{ due, lat time.Duration }

func summarize(res *stepResult) stepStats {
	var st stepStats
	var lat, send, own []float64
	var byDue []timedLat
	var lateness [][]float64 // per connection, in due order
	var lastDone time.Duration
	for _, samples := range res.samples {
		var prev time.Duration
		var late []float64
		for _, s := range samples {
			st.attempted++
			late = append(late, float64(s.sent-s.due))
			own = append(own, float64(s.sent-max(s.due, prev)))
			switch {
			case s.done < 0:
				st.failed++
				lat = append(lat, float64(never))
				send = append(send, float64(never))
				byDue = append(byDue, timedLat{s.due, never})
				continue
			case !s.ok:
				st.rejected++
				lat = append(lat, float64(never))
				send = append(send, float64(never))
			default:
				lat = append(lat, float64(s.done-s.due))
				send = append(send, float64(s.done-s.sent))
			}
			byDue = append(byDue, timedLat{s.due, time.Duration(lat[len(lat)-1])})
			prev = s.done
			if s.done > lastDone {
				lastDone = s.done
			}
		}
		lateness = append(lateness, late)
	}
	st.p50 = time.Duration(quantile(lat, 0.50))
	st.p90 = time.Duration(quantile(lat, 0.90))
	st.p99 = time.Duration(quantile(lat, 0.99))
	st.sendP99 = time.Duration(quantile(send, 0.99))
	st.ownLagP99 = time.Duration(quantile(own, 0.99))
	sort.Slice(byDue, func(i, j int) bool { return byDue[i].due < byDue[j].due })
	for lo := 0; lo < len(byDue); lo += p99Window {
		chunk := byDue[lo:min(lo+p99Window, len(byDue))]
		if len(chunk) < p99Window && lo > 0 {
			break // a short tail window would not have ten beyond its p99
		}
		xs := make([]float64, len(chunk))
		for i, t := range chunk {
			xs[i] = float64(t.lat)
		}
		st.windowP99 = append(st.windowP99, quantile(xs, 0.99)/float64(time.Millisecond))
	}
	var first, last []float64
	for _, late := range lateness {
		q := len(late) / 4
		first = append(first, late[:q]...)
		last = append(last, late[len(late)-q:]...)
	}
	if len(first) > 0 {
		st.lagGrowth = time.Duration(median(last) - median(first))
	}
	if lastDone > 0 {
		st.achieved = float64(st.attempted-st.failed-st.rejected) / lastDone.Seconds()
	}
	return st
}

// typicalP99 is the median of the step's window p99s.
func (st stepStats) typicalP99() time.Duration {
	return time.Duration(median(st.windowP99) * float64(time.Millisecond))
}

// passes applies the ladder's three tests to a step: the typical p99
// within the limit, no failed or refused request, and no backlog.
func (st stepStats) passes(limit time.Duration) bool {
	return st.typicalP99() <= limit && st.failed == 0 && st.rejected == 0 && st.lagGrowth <= limit/2
}

// ladderStep is one rung's result.
type ladderStep struct {
	rate float64
	st   stepStats
	ok   bool
}

// ladderDescent is how many rungs below the first the ladder may
// step down.
const ladderDescent = 4

// runLadder climbs rates lo·1.1^k for k = 0..steps. A rung passes if
// either of two tries (each on fresh state) passes; the climb stops
// after two failing rungs in a row. If no rung passed, it steps down
// (k = -1 ... -ladderDescent) until one does. Two bisection steps
// between the highest passing rung and the rung above it then narrow
// the capacity to a factor of 1.1^(1/4), 2.4%. It returns the highest
// rate that passed, 0 when none did.
func runLadder(lo float64, steps int, limit time.Duration, try func(rate float64) (stepStats, error)) (float64, []ladderStep, error) {
	var out []ladderStep
	rung := func(rate float64) (bool, error) {
		for attempt := 0; attempt < 2; attempt++ {
			st, err := try(rate)
			if err != nil {
				return false, err
			}
			ok := st.passes(limit)
			out = append(out, ladderStep{rate: rate, st: st, ok: ok})
			if ok {
				return true, nil
			}
		}
		return false, nil
	}
	best, top := 0.0, 0
	failing := 0
	for k := 0; k <= steps && failing < 2; k++ {
		rate := lo * math.Pow(1.1, float64(k))
		ok, err := rung(rate)
		if err != nil {
			return 0, out, err
		}
		if ok {
			best, top, failing = rate, k, 0
		} else {
			failing++
		}
	}
	// When the first rungs fail, step down until one passes.
	for k := -1; best == 0 && k >= -ladderDescent; k-- {
		rate := lo * math.Pow(1.1, float64(k))
		ok, err := rung(rate)
		if err != nil {
			return 0, out, err
		}
		if ok {
			best, top = rate, k
		}
	}
	if best == 0 || top == steps {
		return best, out, nil
	}
	// Bisect (in log rate) between the highest passing rung and the
	// rung above it.
	pass, fail := math.Log(best), math.Log(best*1.1)
	for i := 0; i < 2; i++ {
		mid := (pass + fail) / 2
		ok, err := rung(math.Exp(mid))
		if err != nil {
			return 0, out, err
		}
		if ok {
			pass, best = mid, math.Exp(mid)
		} else {
			fail = mid
		}
	}
	return best, out, nil
}
