package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// byteConn is a scripted net.Conn: reads come from a fixed stream,
// writes are discarded.
type byteConn struct{ in *bytes.Reader }

func (c *byteConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c *byteConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *byteConn) Close() error                     { return nil }
func (c *byteConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *byteConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *byteConn) SetDeadline(time.Time) error      { return nil }
func (c *byteConn) SetReadDeadline(time.Time) error  { return nil }
func (c *byteConn) SetWriteDeadline(time.Time) error { return nil }

// gatedServer serves newline frames: "block" parks the request until
// release is closed, anything else is echoed back at once. Every
// started request is counted.
type gatedServer struct {
	*Server
	addr    string
	entered chan struct{}
	release chan struct{}
	started atomic.Int32
}

func newGatedServer(t *testing.T) *gatedServer {
	t.Helper()
	g := &gatedServer{entered: make(chan struct{}, 1), release: make(chan struct{})}
	g.Server = NewServer("test", func(c *Conn) {
		ServeLines(c, func(line []byte) bool {
			g.started.Add(1)
			if string(line) == "block\n" {
				g.entered <- struct{}{}
				<-g.release
			}
			_, err := c.Write(line)
			return err == nil
		})
	})
	addr, err := g.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	g.addr = addr
	t.Cleanup(func() {
		select {
		case <-g.release:
		default:
			close(g.release)
		}
		g.Close()
	})
	return g
}

// roundTrip sends one frame and returns the reply line.
func roundTrip(t *testing.T, c net.Conn, br *bufio.Reader, frame string) string {
	t.Helper()
	if _, err := io.WriteString(c, frame); err != nil {
		t.Fatal(err)
	}
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("reply to %q: %v", frame, err)
	}
	return line
}

func dial(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeadline(time.Now().Add(10 * time.Second))
	t.Cleanup(func() { c.Close() })
	return c, bufio.NewReader(c)
}

// expectDropped asserts the server closes c without another byte.
func expectDropped(t *testing.T, br *bufio.Reader) {
	t.Helper()
	if line, err := br.ReadString('\n'); err == nil || line != "" {
		t.Fatalf("connection still served: %q, %v", line, err)
	}
}

// waitDraining blocks until Drain has flagged every live connection.
func waitDraining(s *Server) {
	for {
		s.mu.Lock()
		flagged := s.closed
		for c := range s.conns {
			c.mu.Lock()
			flagged = flagged && c.closeWhenIdle
			c.mu.Unlock()
		}
		s.mu.Unlock()
		if flagged {
			return
		}
		runtime.Gosched()
	}
}

// within fails the test if fn does not return within d.
func within(t *testing.T, d time.Duration, what string, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("%s hung", what)
		return nil
	}
}

func TestDrainFinishesInFlightAndDropsIdle(t *testing.T) {
	g := newGatedServer(t)
	busy, busyR := dial(t, g.addr)
	idle, idleR := dial(t, g.addr)
	// One round trip proves the server is serving idle before Drain
	// snapshots its connections.
	if got := roundTrip(t, idle, idleR, "ping\n"); got != "ping\n" {
		t.Fatalf("echo = %q", got)
	}
	if _, err := io.WriteString(busy, "block\n"); err != nil {
		t.Fatal(err)
	}
	<-g.entered

	drained := make(chan error, 1)
	go func() { drained <- g.Drain(context.Background()) }()

	// The idle connection drops while the busy one is still parked.
	expectDropped(t, idleR)
	waitDraining(g.Server)
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v with a request in flight", err)
	default:
	}

	close(g.release)
	if line, err := busyR.ReadString('\n'); err != nil || line != "block\n" {
		t.Fatalf("in-flight response = %q, %v", line, err)
	}
	if err := within(t, 5*time.Second, "drain", func() error { return <-drained }); err != nil {
		t.Fatalf("drain: %v", err)
	}
	expectDropped(t, busyR)
}

func TestDrainNeverStartsLaterRequest(t *testing.T) {
	g := newGatedServer(t)
	c, br := dial(t, g.addr)
	// The second frame is already on the wire when the drain starts;
	// it must never reach the handler.
	if _, err := io.WriteString(c, "block\nafter\n"); err != nil {
		t.Fatal(err)
	}
	<-g.entered
	drained := make(chan error, 1)
	go func() { drained <- g.Drain(context.Background()) }()
	waitDraining(g.Server)
	close(g.release)
	if line, err := br.ReadString('\n'); err != nil || line != "block\n" {
		t.Fatalf("in-flight response = %q, %v", line, err)
	}
	expectDropped(t, br)
	if err := within(t, 5*time.Second, "drain", func() error { return <-drained }); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := g.started.Load(); n != 1 {
		t.Fatalf("%d requests started, want 1", n)
	}

	// The narrower race: a frame read just as the drain closed its
	// then-idle connection must not start either.
	idle := NewConn(&byteConn{in: bytes.NewReader(nil)})
	idle.drain()
	if idle.begin() {
		t.Fatal("a request started on a drained connection")
	}
}

func TestDrainTimeoutForcesClose(t *testing.T) {
	g := newGatedServer(t)
	c, br := dial(t, g.addr)
	if _, err := io.WriteString(c, "block\n"); err != nil {
		t.Fatal(err)
	}
	<-g.entered
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := g.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain = %v, want context.DeadlineExceeded", err)
	}
	// The straggler's socket is closed even though its handler is
	// still parked.
	expectDropped(t, br)
}

// raceListener hands out one connection from inside Close — after the
// server has marked itself closed, the window a real accept can hit
// between a drain's snapshot and its listener close.
type raceListener struct {
	accept chan net.Conn
	closed chan struct{}
	late   net.Conn
	once   sync.Once
}

func (l *raceListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *raceListener) Close() error {
	l.once.Do(func() {
		l.accept <- l.late
		close(l.closed)
	})
	return nil
}

func (l *raceListener) Addr() net.Addr { return &net.TCPAddr{} }

func TestAcceptRacingDrainIsRefused(t *testing.T) {
	server, client := net.Pipe()
	defer client.Close()
	var served atomic.Int32
	s := NewServer("test", func(*Conn) { served.Add(1) })
	s.start(&raceListener{accept: make(chan net.Conn), closed: make(chan struct{}), late: server})
	if err := within(t, 5*time.Second, "drain", func() error { return s.Drain(context.Background()) }); err != nil {
		t.Fatal(err)
	}
	if n := served.Load(); n != 0 {
		t.Fatalf("a connection accepted during the drain was served %d times", n)
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("refused connection read = %v, want io.EOF", err)
	}
}

func TestShutdownIdempotent(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name         string
		first, again func(*Server) error
	}{
		{"close-close", (*Server).Close, (*Server).Close},
		{"drain-close", func(s *Server) error { return s.Drain(ctx) }, (*Server).Close},
		{"close-drain", (*Server).Close, func(s *Server) error { return s.Drain(ctx) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newGatedServer(t)
			c, br := dial(t, g.addr)
			roundTrip(t, c, br, "ping\n")
			if err := within(t, 5*time.Second, "first call", func() error { return tc.first(g.Server) }); err != nil {
				t.Fatalf("first: %v", err)
			}
			if err := within(t, 5*time.Second, "second call", func() error { return tc.again(g.Server) }); err != nil {
				t.Fatalf("second: %v", err)
			}
			expectDropped(t, br)
		})
	}
}

func TestReadLineBudget(t *testing.T) {
	pad := func(n int) string { return strings.Repeat("x", n) }
	for _, tc := range []struct {
		name, in string
		ok       bool
	}{
		{"at budget", pad(MaxFrame-1) + "\n", true},
		{"budget plus one", pad(MaxFrame) + "\n", false},
		{"budget without newline", pad(MaxFrame), false},
		{"short without newline", "abc", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConn(&byteConn{in: bytes.NewReader([]byte(tc.in))})
			line, err := c.ReadLine()
			if ok := err == nil; ok != tc.ok {
				t.Fatalf("ReadLine: %d bytes, err %v; want ok=%v", len(line), err, tc.ok)
			}
			if tc.ok && string(line) != tc.in {
				t.Fatalf("ReadLine returned %d bytes, want %d", len(line), len(tc.in))
			}
		})
	}
}

// TestStreamWithoutNewlineBoundsHeap: a client streaming 64 MiB with
// no frame end is dropped after the budget, on both loop kinds, and
// the server never holds more than a few budgets' worth of memory.
func TestStreamWithoutNewlineBoundsHeap(t *testing.T) {
	for _, tc := range []struct {
		name   string
		serve  func(*Conn)
		prefix string
	}{
		{"lines", func(c *Conn) { ServeLines(c, func([]byte) bool { return true }) }, ""},
		{"json", func(c *Conn) {
			ServeJSON(c, func(*struct{ Op string }) struct{} { return struct{}{} })
		}, `{"op":"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewServer("test", tc.serve)
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			c, _ := dial(t, addr)

			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			chunk := bytes.Repeat([]byte("x"), 64<<10)
			copy(chunk, tc.prefix)
			sent, werr := 0, error(nil)
			for sent < 64<<20 && werr == nil {
				var n int
				n, werr = c.Write(chunk)
				sent += n
			}
			runtime.ReadMemStats(&after)
			if werr == nil {
				t.Fatalf("server absorbed all %d bytes without dropping the client", sent)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
				t.Fatalf("server allocated %d MiB for a stream it should drop after %d MiB", grew>>20, MaxFrame>>20)
			}
		})
	}
}

// FuzzFrame drives ServeLines over arbitrary input: a run of pad 'x'
// bytes between head and tail lets the corpus reach the budget without
// megabyte-sized seed files. Contract: every frame handed to the
// handler ends in its only '\n' and is at most MaxFrame bytes, frames
// arrive in input order, and reading stops only at input that holds
// no further frame within the budget.
func FuzzFrame(f *testing.F) {
	f.Add([]byte(""), MaxFrame, []byte("\n"))                     // oversized: budget + 1
	f.Add([]byte(""), MaxFrame-1, []byte("\n"))                   // exactly the budget
	f.Add([]byte("a\n"), MaxFrame-100, []byte("\n"))              // after read-ahead, fits
	f.Add([]byte("a\n"), MaxFrame+10, []byte("\nb\n"))            // after read-ahead, too big
	f.Add([]byte("ping\nlast"), 0, []byte(""))                    // missing final newline
	f.Add([]byte("HELO x\r\nDATA\r\n"), 3, []byte("\r\n.\r\n"))   // CRLF
	f.Add([]byte("\n\n\r\n"), 0, []byte("\n"))                    // empty lines
	f.Add([]byte(`{"op":"ping"}`+"\n"), 0, []byte(`{"op":`+"\n")) // JSON frames
	f.Fuzz(func(t *testing.T, head []byte, pad int, tail []byte) {
		if pad < 0 || pad > 2*MaxFrame+1 {
			pad = 0
		}
		in := append(append(append([]byte{}, head...), bytes.Repeat([]byte("x"), pad)...), tail...)
		off := 0
		ServeLines(NewConn(&byteConn{in: bytes.NewReader(in)}), func(line []byte) bool {
			if len(line) > MaxFrame {
				t.Fatalf("frame of %d bytes exceeds MaxFrame", len(line))
			}
			if bytes.IndexByte(line, '\n') != len(line)-1 {
				t.Fatalf("frame %q does not end in its only newline", line)
			}
			if !bytes.Equal(line, in[off:off+len(line)]) {
				t.Fatalf("frame at offset %d out of order", off)
			}
			off += len(line)
			return true
		})
		if i := bytes.IndexByte(in[off:], '\n'); i >= 0 && i < MaxFrame {
			t.Fatalf("stopped at offset %d before a %d-byte frame", off, i+1)
		}
	})
}
