package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// MaxFrame is the read budget of one request, in bytes: its frame plus
// whatever its handler reads (the sinkhole's DATA payload). The budget
// counts bytes taken off the socket, read-ahead included, and is
// refilled once the response is written, so a frame of up to MaxFrame
// bytes always fits. A client that needs more is dropped without a
// reply, the same as for a malformed frame.
const MaxFrame = 1 << 20

var errFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")

// Conn is one accepted connection. Read and ReadLine are buffered and
// charged to the current request's budget; writes go straight to the
// socket.
type Conn struct {
	net.Conn
	// budget wraps the socket; N is what the current request may still
	// read. Only the serving goroutine touches it.
	budget io.LimitedReader
	r      *bufio.Reader // reads through budget

	mu            sync.Mutex
	busy          bool
	closeWhenIdle bool
}

// NewConn wraps nc with a full read budget. Server calls it for every
// accepted connection; tests call it to drive a handler over a
// scripted net.Conn.
func NewConn(nc net.Conn) *Conn {
	c := &Conn{Conn: nc, budget: io.LimitedReader{R: nc, N: MaxFrame}}
	c.r = bufio.NewReader(&c.budget)
	return c
}

// Read reads buffered bytes; once the request's budget is spent it
// returns io.EOF until the request ends.
func (c *Conn) Read(p []byte) (int, error) { return c.r.Read(p) }

// ReadLine returns the next frame, up to and including its '\n'. It
// fails on a frame longer than MaxFrame, on one the budget ran out
// before finishing, and on a final frame with no newline.
func (c *Conn) ReadLine() ([]byte, error) {
	line, err := c.r.ReadBytes('\n')
	switch {
	case len(line) > MaxFrame || err != nil && c.budget.N == 0:
		return nil, errFrameTooLarge
	case err != nil:
		return nil, err
	}
	return line, nil
}

// begin marks a request in flight. It reports false once the server is
// draining: the request must not start.
func (c *Conn) begin() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closeWhenIdle {
		return false
	}
	c.busy = true
	return true
}

// end marks the request finished and refills the read budget. It
// reports whether the connection must close because the server is
// draining.
func (c *Conn) end() (quit bool) {
	c.budget.N = MaxFrame
	c.mu.Lock()
	defer c.mu.Unlock()
	c.busy = false
	return c.closeWhenIdle
}

// drain flags the connection for shutdown. An idle connection (blocked
// reading its next request) is closed on the spot; a busy one closes
// once end reports quit.
func (c *Conn) drain() {
	c.mu.Lock()
	idle := !c.busy
	c.closeWhenIdle = true
	c.mu.Unlock()
	if idle {
		c.Close()
	}
}

// ServeJSON runs a newline-JSON request loop on c: each frame decodes
// into a fresh Req, and handle's Resp goes back as one line. It returns
// when a frame does not decode (EOF, malformed, or over the budget; no
// reply is written), a write fails, or the server drains.
func ServeJSON[Req, Resp any](c *Conn, handle func(*Req) Resp) {
	dec := json.NewDecoder(c)
	enc := json.NewEncoder(c)
	for {
		var req Req
		if dec.Decode(&req) != nil || !c.begin() {
			return // a request that never started gets no reply
		}
		err := enc.Encode(handle(&req))
		if c.end() || err != nil {
			return
		}
	}
}

// ServeLines runs a newline-framed request loop on c: handle gets each
// frame, '\n' included, and reports whether to keep serving. It
// returns when ReadLine fails, handle reports false, or the server
// drains.
func ServeLines(c *Conn, handle func(line []byte) bool) {
	for {
		line, err := c.ReadLine()
		if err != nil || !c.begin() {
			return // a request that never started gets no reply
		}
		ok := handle(line)
		if c.end() || !ok {
			return
		}
	}
}

// Server accepts TCP connections and runs its serve function on each
// in its own goroutine, closing the connection when serve returns.
type Server struct {
	name  string
	serve func(*Conn)

	mu       sync.Mutex
	listener net.Listener
	conns    map[*Conn]struct{}
	wg       sync.WaitGroup
	closed   bool
}

// NewServer returns an unstarted server. name prefixes its errors;
// serve handles one connection, normally by running ServeJSON or
// ServeLines on it.
func NewServer(name string, serve func(*Conn)) *Server {
	return &Server{name: name, serve: serve, conns: make(map[*Conn]struct{})}
}

// Listen starts accepting connections on addr ("127.0.0.1:0" for an
// ephemeral port) and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("%s: listen: %w", s.name, err)
	}
	s.start(ln)
	return ln.Addr().String(), nil
}

func (s *Server) start(ln net.Listener) {
	s.mu.Lock()
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.accept(ln)
}

func (s *Server) accept(ln net.Listener) {
	defer s.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := NewConn(nc)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(c)
			c.Close()
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// stop marks the server closed and detaches its listener, returning
// it (nil once detached), a snapshot of the live connections, and
// whether the server was already closed. Marking closed first makes
// the accept loop refuse any connection that slips in between the
// snapshot and the listener closing: every connection either appears
// in the snapshot or never serves.
func (s *Server) stop() (ln net.Listener, conns []*Conn, wasClosed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	wasClosed = s.closed
	s.closed = true
	ln, s.listener = s.listener, nil
	conns = make([]*Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	return ln, conns, wasClosed
}

// Close stops the listener and every connection at once, in-flight
// requests included, and waits for the handlers to return. Prefer
// Drain for an orderly shutdown. A second Close, or a Close after
// Drain, only closes what is still open and returns nil.
func (s *Server) Close() error {
	ln, conns, _ := s.stop()
	for _, c := range conns {
		c.Close()
	}
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// Drain shuts the server down gracefully: the listener closes first
// (new connections are refused), idle connections drop at once, and
// connections with a request mid-flight finish writing that response
// before closing. Drain returns once every connection has exited, or
// force-closes the stragglers and returns ctx.Err() if the context
// expires first. Draining a closed server returns nil at once.
func (s *Server) Drain(ctx context.Context) error {
	ln, conns, wasClosed := s.stop()
	if wasClosed {
		return nil
	}
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.drain()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Force-close the stragglers' sockets so their clients unblock,
		// but do not wait: a handler stuck inside the service (not on
		// I/O) only exits when that call returns.
		_, conns, _ := s.stop()
		for _, c := range conns {
			c.Close()
		}
		return ctx.Err()
	}
}
