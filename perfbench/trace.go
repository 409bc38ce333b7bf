package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory. Spans are recorded
// by the benchmark around each call into a layer; a nil *tracer
// records nothing, which is how untraced runs call the same code.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	reqs   []reqRecord
}

// span is one timed call into a layer. Layer is the module the call
// enters; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// reqRecord is one generated request: when it was due, sent and
// answered, under its rate step. Done is -1 for a request that got no
// reply.
type reqRecord struct {
	Step string `json:"step"`
	Conn int    `json:"conn"`
	Due  int64  `json:"due_ns"`
	Sent int64  `json:"sent_ns"`
	Done int64  `json:"done_ns"`
	OK   bool   `json:"ok"`
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Start: now, End: -1})
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// timed runs fn inside a span and returns its wall time. It measures
// even with a nil tracer.
func (t *tracer) timed(parent int, layer, name string, fn func(id int) error) (time.Duration, error) {
	id := t.begin(parent, layer, name)
	start := time.Now()
	err := fn(id)
	d := time.Since(start)
	t.end(id)
	return d, err
}

// addRequests appends one step's request records.
func (t *tracer) addRequests(step string, start time.Time, res *stepResult) {
	if t == nil {
		return
	}
	base := start.Sub(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	for c, samples := range res.samples {
		for _, s := range samples {
			done := int64(-1)
			if s.done >= 0 {
				done = base + int64(s.done)
			}
			t.reqs = append(t.reqs, reqRecord{Step: step, Conn: c, Due: base + int64(s.due),
				Sent: base + int64(s.sent), Done: done, OK: s.ok})
		}
	}
}

// selfTimes sums, per layer, each span's duration minus the part of
// it its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		out[s.Layer] += time.Duration(s.End-s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the children cover
// (overlapping children, such as concurrent shards, count once).
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if k.End < 0 || e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	total += curE - curS
	return time.Duration(total)
}

// write dumps every span and request record as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(struct {
			Kind string `json:"kind"`
			span
		}{"span", s}); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	for _, r := range t.reqs {
		if err := enc.Encode(struct {
			Kind string `json:"kind"`
			reqRecord
		}{"request", r}); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes writes the per-layer self-time table to standard error.
func printSelfTimes(t *tracer, overhead float64) {
	st := t.selfTimes()
	layers := make([]string, 0, len(st))
	for l := range st {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return st[layers[i]] > st[layers[j]] })
	fmt.Fprintln(os.Stderr, "per-layer self time (spans recorded by the benchmark):")
	for _, l := range layers {
		fmt.Fprintf(os.Stderr, "  %-12s %10.4f s\n", l, st[l].Seconds())
	}
	fmt.Fprintf(os.Stderr, "tracing overhead: %+.2f%%\n", 100*overhead)
}

// cpuProfile samples the process's CPU while it runs; stop returns
// CPU seconds per bucket (see bucketOf).
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return bucketProfile(&p.buf)
}

// cpuBuckets are the per-package CPU metrics a traced run reports;
// samples of any other package land in "other".
var cpuBuckets = []string{"simtime", "appscript", "monitor", "attacker", "webmail", "corpus", "analysis", "c3", "livefleet", "gc", "generator", "other"}

// bucketOf names the bucket of one sampled stack (leaf first). GC
// work is recognised by its runtime entry points anywhere on the
// stack. Otherwise the sample belongs to the innermost frame in one of
// the repository's packages, so standard-library calls count towards
// the package that made them; the benchmark's own frames are the
// generator's, and stacks with neither are "other".
func bucketOf(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gc") || f == "runtime.bgsweep" || f == "runtime.bgscavenge" ||
			f == "runtime.markroot" || f == "runtime.sweepone" || f == "runtime.deductSweepCredit" {
			return "gc"
		}
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "repro/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			for _, b := range cpuBuckets {
				if b == pkg {
					return b
				}
			}
			return "other"
		}
		// The benchmark is package main; a test binary names it by
		// its import path.
		if strings.HasPrefix(f, "main.") || strings.HasPrefix(f, "repro/perfbench.") {
			return "generator"
		}
	}
	return "other"
}

// bucketProfile decodes a gzipped pprof CPU profile and sums CPU
// seconds per bucket. It reads only the fields it needs: samples
// (location IDs, values), locations (their line's function) and
// functions (their name).
func bucketProfile(r io.Reader) (map[string]float64, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs      []string
		samples   [][]byte
		locFunc   = map[uint64][]uint64{} // location → function IDs, innermost first
		funcName  = map[uint64]uint64{}   // function → string index
		valueSlot = -1
		types     [][]byte
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1:
			types = append(types, b)
		case 2:
			samples = append(samples, b)
		case 4:
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fns
		case 5:
			var id, name uint64
			if err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The CPU time value is the sample type whose unit is nanoseconds.
	for i, tb := range types {
		var unit uint64
		if err := eachField(tb, func(n int, v uint64, _ []byte) error {
			if n == 2 {
				unit = v
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if int(unit) < len(strs) && strs[unit] == "nanoseconds" {
			valueSlot = i
		}
	}
	if valueSlot < 0 {
		return nil, fmt.Errorf("cpu profile: no nanoseconds sample type")
	}
	out := map[string]float64{}
	for _, b := range cpuBuckets {
		out[b] = 0
	}
	for _, sb := range samples {
		var locs, vals []uint64
		if err := eachField(sb, func(n int, v uint64, pb []byte) error {
			dst := &locs
			if n == 2 {
				dst = &vals
			} else if n != 1 {
				return nil
			}
			if pb == nil {
				*dst = append(*dst, v)
				return nil
			}
			return eachPacked(pb, func(v uint64) { *dst = append(*dst, v) })
		}); err != nil {
			return nil, err
		}
		if valueSlot >= len(vals) {
			continue
		}
		var frames []string
		for _, l := range locs {
			for _, fn := range locFunc[l] {
				if s := funcName[fn]; int(s) < len(strs) {
					frames = append(frames, strs[s])
				}
			}
		}
		out[bucketOf(frames)] += float64(vals[valueSlot]) / 1e9
	}
	return out, nil
}

// eachField walks one protobuf message. For varint fields fn gets the
// value and a nil slice; for length-delimited fields, the bytes.
func eachField(b []byte, fn func(num int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return fmt.Errorf("cpu profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return fmt.Errorf("cpu profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("cpu profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("cpu profile: bad length")
			}
			body := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, body); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("cpu profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("cpu profile: wire type %d", wire)
		}
	}
	return nil
}

// eachPacked walks a packed run of varints.
func eachPacked(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return fmt.Errorf("cpu profile: bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
