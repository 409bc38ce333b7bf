package repro

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/c3"
	"repro/internal/livefleet"
	"repro/internal/simtime"
	"repro/internal/sinkhole"
	"repro/internal/webmail"
	"repro/internal/wire"
)

// listener is the part of every daemon the frame-bound test starts.
type listener interface {
	Listen(addr string) (string, error)
	Close() error
}

func listenT(t *testing.T, l listener) string {
	t.Helper()
	addr, err := l.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return addr
}

// jsonFrame is a newline-JSON frame whose value is n bytes long; open
// leaves the value unterminated (and drops the newline).
func jsonFrame(n int, open bool) string {
	head := `{"op":"ping","pad":"`
	if open {
		return head + strings.Repeat("x", n-len(head))
	}
	return head + strings.Repeat("x", n-len(head)-2) + "\"}\n"
}

// jsonLine is a newline-JSON frame n bytes long with its newline, the
// router's frame: it reads lines and only peeks at the JSON.
func jsonLine(n int, open bool) string {
	if open {
		return jsonFrame(n, true)
	}
	return jsonFrame(n-1, false)
}

// lineFrame is an n-byte CRLF-terminated line; open drops the CRLF and
// keeps the line n bytes long.
func lineFrame(n int, open bool) string {
	if open {
		return strings.Repeat("x", n)
	}
	return strings.Repeat("x", n-2) + "\r\n"
}

// TestOversizedFrameDropped sends each daemon a frame of exactly the
// budget (served), one a byte over it, and a budget-sized frame with no
// end; the last two drop the connection without a reply.
func TestOversizedFrameDropped(t *testing.T) {
	epoch := time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)
	webmailAddr := func(t *testing.T) string {
		return listenT(t, webmail.NewServer(webmail.NewService(webmail.Config{Clock: simtime.NewClock(epoch)})))
	}
	daemons := []struct {
		name   string
		start  func(t *testing.T) string
		banner bool // the server speaks first (SMTP greeting)
		frame  func(n int, open bool) string
	}{
		{"webmail", webmailAddr, false, jsonFrame},
		{"c3", func(t *testing.T) string {
			store, err := c3.New(c3.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return listenT(t, c3.NewServer(store))
		}, false, jsonFrame},
		{"router", func(t *testing.T) string {
			router, err := livefleet.NewRouter(livefleet.RouterConfig{Shards: []string{webmailAddr(t)}, HealthInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			return listenT(t, router)
		}, false, jsonLine},
		{"sinkhole", func(t *testing.T) string { return listenT(t, sinkhole.NewServer(sinkhole.NewStore(nil))) }, true, lineFrame},
	}
	cases := []struct {
		name   string
		n      int
		open   bool
		served bool
	}{
		{"at budget", wire.MaxFrame, false, true},
		{"budget plus one", wire.MaxFrame + 1, false, false},
		{"budget without end", wire.MaxFrame, true, false},
	}
	for _, d := range daemons {
		addr := d.start(t)
		for _, tc := range cases {
			t.Run(d.name+"/"+tc.name, func(t *testing.T) {
				c, err := net.DialTimeout("tcp", addr, 5*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				c.SetDeadline(time.Now().Add(10 * time.Second))
				br := bufio.NewReader(c)
				if d.banner {
					if _, err := br.ReadString('\n'); err != nil {
						t.Fatalf("banner: %v", err)
					}
				}
				// A dropped client may see its own write fail; only the
				// reply (or its absence) is the verdict.
				c.Write([]byte(d.frame(tc.n, tc.open)))
				reply, err := br.ReadString('\n')
				if tc.served && err != nil {
					t.Fatalf("frame of %d bytes not served: %v", tc.n, err)
				}
				if !tc.served && (err == nil || reply != "") {
					t.Fatalf("frame of %d bytes (open=%v) got reply %.80q, err %v; want a silent drop", tc.n, tc.open, reply, err)
				}
			})
		}
	}
}
