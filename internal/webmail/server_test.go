package webmail

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/simtime"
)

func newWireFixture(t *testing.T) (*Service, *netsim.AddressSpace, string) {
	t.Helper()
	clock := simtime.NewClock(epoch)
	svc := NewService(Config{Clock: clock})
	if err := svc.CreateAccount("alice@honeymail.example", "hunter2", "Alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Seed("alice@honeymail.example", FolderInbox, "bob@x", "alice@honeymail.example", "wire transfer", "payment details", epoch.Add(-time.Hour)); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return svc, netsim.NewAddressSpace(rng.New(1), geo.Default()), addr
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestWireLoginAndList(t *testing.T) {
	_, space, addr := newWireFixture(t)
	c := dialT(t, addr)
	ep, _ := space.FromCity("Berlin")
	ep.UserAgent = netsim.UserAgentFor(rng.New(2), netsim.BrowserChrome)
	resp, err := c.Login("alice@honeymail.example", "hunter2", "", ep)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Cookie == "" {
		t.Fatalf("login resp = %+v", resp)
	}
	lst, err := c.Do(Request{Op: "list", Folder: string(FolderInbox)})
	if err != nil {
		t.Fatal(err)
	}
	if !lst.OK || len(lst.Messages) != 1 {
		t.Fatalf("list resp = %+v", lst)
	}
}

func TestWireRequiresLogin(t *testing.T) {
	_, _, addr := newWireFixture(t)
	c := dialT(t, addr)
	resp, err := c.Do(Request{Op: "list", Folder: "inbox"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, "not logged in") {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestWireBadCredentials(t *testing.T) {
	_, space, addr := newWireFixture(t)
	c := dialT(t, addr)
	ep, _ := space.FromCity("Berlin")
	resp, err := c.Login("alice@honeymail.example", "wrong", "", ep)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, "invalid credentials") {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestWireFullAttackerFlow(t *testing.T) {
	svc, space, addr := newWireFixture(t)
	c := dialT(t, addr)
	ep, _ := space.FromCity("Bucharest")
	if resp, err := c.Login("alice@honeymail.example", "hunter2", "", ep); err != nil || !resp.OK {
		t.Fatalf("login: %v %+v", err, resp)
	}
	// Search for valuables.
	sr, err := c.Do(Request{Op: "search", Query: "payment"})
	if err != nil || !sr.OK || len(sr.Messages) != 1 {
		t.Fatalf("search: %v %+v", err, sr)
	}
	// Read the hit.
	rd, err := c.Do(Request{Op: "read", ID: sr.Messages[0].ID})
	if err != nil || !rd.OK || !rd.Message.Read {
		t.Fatalf("read: %v %+v", err, rd)
	}
	// Star it.
	if resp, err := c.Do(Request{Op: "star", ID: sr.Messages[0].ID}); err != nil || !resp.OK {
		t.Fatalf("star: %v %+v", err, resp)
	}
	// Leave a draft.
	dr, err := c.Do(Request{Op: "draft", To: "victim@x", Subject: "pay me", Body: "send bitcoin"})
	if err != nil || !dr.OK || dr.ID == 0 {
		t.Fatalf("draft: %v %+v", err, dr)
	}
	// Hijack: change password.
	if resp, err := c.Do(Request{Op: "chpass", Password: "owned"}); err != nil || !resp.OK {
		t.Fatalf("chpass: %v %+v", err, resp)
	}
	// Check the activity page over the wire.
	ap, err := c.Do(Request{Op: "activity"})
	if err != nil || !ap.OK || len(ap.Accesses) != 1 {
		t.Fatalf("activity: %v %+v", err, ap)
	}
	if ap.Accesses[0].City != "Bucharest" {
		t.Fatalf("activity city = %q", ap.Accesses[0].City)
	}
	// Server-side state agrees.
	if pw, _ := svc.Password("alice@honeymail.example"); pw != "owned" {
		t.Fatalf("password = %q", pw)
	}
}

func TestWireUnknownOp(t *testing.T) {
	_, space, addr := newWireFixture(t)
	c := dialT(t, addr)
	ep, _ := space.FromCity("Berlin")
	c.Login("alice@honeymail.example", "hunter2", "", ep)
	resp, err := c.Do(Request{Op: "frobnicate"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, "unknown op") {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestWireBadIPRejected(t *testing.T) {
	_, _, addr := newWireFixture(t)
	c := dialT(t, addr)
	resp, err := c.Do(Request{Op: "login", Account: "alice@honeymail.example", Password: "hunter2", IP: "not-an-ip"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, "bad ip") {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestWireConcurrentClients(t *testing.T) {
	_, space, addr := newWireFixture(t)
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			c, err := Dial(ctx, addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			ep := space.TorExit()
			if resp, err := c.Login("alice@honeymail.example", "hunter2", "", ep); err != nil || !resp.OK {
				errs <- err
				return
			}
			if resp, err := c.Do(Request{Op: "list", Folder: "inbox"}); err != nil || !resp.OK {
				errs <- err
				return
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestServerDrainFinishesInFlight: Drain lets a request that is being
// processed write its response before the connection closes, while
// idle connections drop immediately and new ones are refused — the
// graceful-drain contract the live fleet's SIGTERM handling relies on.
func TestServerDrainFinishesInFlight(t *testing.T) {
	clock := simtime.NewClock(epoch)
	// An outbound sink the test can block: the "send" request parks
	// inside Deliver until released, holding the request in flight.
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	entered := make(chan struct{}, 1)
	svc := NewService(Config{Clock: clock, Outbound: OutboundFunc(func(string, string, string, string, time.Time) error {
		entered <- struct{}{}
		<-gate
		return nil
	})})
	if err := svc.CreateAccount("alice@honeymail.example", "hunter2", "Alice"); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	// Cleanups run last-registered first: a failure before the gate
	// opens must release the parked send, or Close waits on it forever.
	t.Cleanup(release)

	space := netsim.NewAddressSpace(rng.New(1), geo.Default())
	busy := dialT(t, addr)
	ep, _ := space.FromCity("Berlin")
	if resp, err := busy.Login("alice@honeymail.example", "hunter2", "", ep); err != nil || !resp.OK {
		t.Fatalf("login: %v %+v", err, resp)
	}
	idle := dialT(t, addr)
	// One round trip guarantees the server accepted and is serving the
	// connection before Drain snapshots; it then sits idle in Decode.
	if resp, err := idle.Do(Request{Op: "list", Folder: "inbox"}); err != nil || resp.OK {
		t.Fatalf("pre-login list on idle conn: %v %+v", err, resp)
	}

	// Park a send mid-flight on the busy connection.
	type sendResult struct {
		resp Response
		err  error
	}
	sent := make(chan sendResult, 1)
	go func() {
		resp, err := busy.Do(Request{Op: "send", To: "victim@victims.example", Subject: "s", Body: "b"})
		sent <- sendResult{resp, err}
	}()
	<-entered

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()

	// The idle connection must drop without waiting for the busy one.
	idleDead := make(chan struct{})
	go func() {
		idle.Do(Request{Op: "list", Folder: "inbox"})
		close(idleDead)
	}()
	select {
	case <-idleDead:
	case <-time.After(5 * time.Second):
		t.Fatal("idle connection survived drain")
	}

	// New connections are refused while draining.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	if c, err := Dial(ctx, addr); err == nil {
		// Some kernels accept into the backlog of a closed listener;
		// the request itself must still fail.
		if _, err := c.Do(Request{Op: "list"}); err == nil {
			t.Fatal("request on a draining server succeeded")
		}
		c.Close()
	}
	cancel()

	// Release the gate: the in-flight send must complete with a real
	// response, then the drain finishes.
	release()
	select {
	case r := <-sent:
		if r.err != nil || !r.resp.OK {
			t.Fatalf("in-flight send after drain: %v %+v", r.err, r.resp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight send never completed")
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain never returned")
	}
	// The drained connection is closed: the next request fails.
	if _, err := busy.Do(Request{Op: "list", Folder: "inbox"}); err == nil {
		t.Fatal("request on a drained connection succeeded")
	}
}

// TestServerDrainTimeoutForcesClose: a connection that never finishes
// its in-flight request cannot hold Drain hostage past the context.
func TestServerDrainTimeoutForcesClose(t *testing.T) {
	clock := simtime.NewClock(epoch)
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	svc := NewService(Config{Clock: clock, Outbound: OutboundFunc(func(string, string, string, string, time.Time) error {
		entered <- struct{}{}
		<-gate
		return nil
	})})
	defer close(gate)
	if err := svc.CreateAccount("alice@honeymail.example", "hunter2", "Alice"); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	space := netsim.NewAddressSpace(rng.New(1), geo.Default())
	c := dialT(t, addr)
	ep, _ := space.FromCity("Berlin")
	if resp, err := c.Login("alice@honeymail.example", "hunter2", "", ep); err != nil || !resp.OK {
		t.Fatalf("login: %v %+v", err, resp)
	}
	go c.Do(Request{Op: "send", To: "v@victims.example", Subject: "s", Body: "b"})
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("drain = %v, want context.DeadlineExceeded", err)
	}
}

// TestServerDrainIdempotent: draining twice (or after Close) returns
// immediately instead of deadlocking.
func TestServerDrainIdempotent(t *testing.T) {
	svc := NewService(Config{Clock: simtime.NewClock(epoch)})
	srv := NewServer(svc)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	srv.Close()
}

func TestServerCloseUnblocksClients(t *testing.T) {
	svc := NewService(Config{Clock: simtime.NewClock(epoch)})
	srv := NewServer(svc)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := dialT(t, addr)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Requests after close should fail, not hang.
	done := make(chan struct{})
	go func() {
		c.Do(Request{Op: "list"})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("client hung after server close")
	}
}
