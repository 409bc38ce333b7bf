package monitor

import (
	"testing"
	"time"

	"repro/internal/appscript"
)

// recordingSink captures everything the streaming hook delivers.
type recordingSink struct {
	accesses      []AccessRecord
	notifications []appscript.Notification
	failures      []ScrapeFailure
}

func (r *recordingSink) ObserveAccess(a AccessRecord) { r.accesses = append(r.accesses, a) }
func (r *recordingSink) ObserveNotification(n appscript.Notification) {
	r.notifications = append(r.notifications, n)
}
func (r *recordingSink) ObserveFailure(f ScrapeFailure) { r.failures = append(r.failures, f) }

// The sink must see exactly what Dataset exports: attacker accesses
// with the self-filter applied (no monitor cookies, no monitor-city
// rows), repeated rows only when they changed, notifications as they
// arrive, and each failure once.
func TestSinkStreamsFilteredObservations(t *testing.T) {
	f := newFixture(t)
	sink := &recordingSink{}
	f.store.SetSink(sink)

	f.attackerLogin(t, "Bucharest", "Mozilla/5.0 Chrome")
	f.attackerLogin(t, "London", "") // monitor's own city: filtered (§4.1)
	f.mon.ScrapeAll(f.clock.Now())

	if len(sink.accesses) != 1 {
		t.Fatalf("sink saw %d accesses, want 1 (self-filtered): %+v", len(sink.accesses), sink.accesses)
	}
	if sink.accesses[0].City != "Bucharest" {
		t.Fatalf("sink access = %+v", sink.accesses[0])
	}
	// The scraper's own login must never be streamed either.
	for _, a := range sink.accesses {
		if a.City == "London" {
			t.Fatalf("self access streamed: %+v", a)
		}
	}

	// Unchanged rows are not re-streamed; a changed row is.
	before := len(sink.accesses)
	f.mon.ScrapeAll(f.clock.Now())
	if len(sink.accesses) != before {
		t.Fatalf("unchanged scrape re-streamed rows: %d -> %d", before, len(sink.accesses))
	}
	se := f.attackerLogin(t, "Bucharest", "Mozilla/5.0 Chrome") // fresh cookie: new row
	_ = se
	f.mon.ScrapeAll(f.clock.Now())
	if len(sink.accesses) != before+1 {
		t.Fatalf("changed scrape streamed %d new rows, want 1", len(sink.accesses)-before)
	}

	// Notifications flow through as the runtime raises them.
	f.sched.RunFor(25 * time.Hour) // heartbeat fires daily
	foundHeartbeat := false
	for _, n := range sink.notifications {
		if n.Kind == appscript.NoteHeartbeat {
			foundHeartbeat = true
		}
	}
	if !foundHeartbeat {
		t.Fatalf("no heartbeat streamed; notifications = %d", len(sink.notifications))
	}

	// A hijack streams exactly one failure.
	hijacker := f.attackerLogin(t, "Bucharest", "")
	if err := hijacker.ChangePassword("stolen"); err != nil {
		t.Fatal(err)
	}
	f.mon.ScrapeAll(f.clock.Now())
	f.mon.ScrapeAll(f.clock.Now())
	if len(sink.failures) != 1 {
		t.Fatalf("sink saw %d failures, want 1: %+v", len(sink.failures), sink.failures)
	}
	if sink.failures[0].Reason != "password-changed" {
		t.Fatalf("failure = %+v", sink.failures[0])
	}
}

// Heartbeats prove liveness only: the store keeps each account's
// newest one in LastHeartbeat instead of logging it, while a sink
// still sees every heartbeat.
func TestHeartbeatsSummarisedNotLogged(t *testing.T) {
	const acct = "h1@honeymail.example"
	day := func(d int) time.Time { return epoch.Add(time.Duration(d) * 24 * time.Hour) }
	store := NewStore()
	sink := &recordingSink{}
	store.SetSink(sink)
	read := appscript.Notification{Time: day(1).Add(time.Hour), Account: acct, Kind: appscript.NoteRead, Message: 7}
	quota := appscript.Notification{Time: day(2).Add(time.Hour), Account: acct, Kind: appscript.NoteQuota}
	for _, n := range []appscript.Notification{
		{Time: day(1), Account: acct, Kind: appscript.NoteHeartbeat},
		read,
		{Time: day(2), Account: acct, Kind: appscript.NoteHeartbeat},
		quota,
		{Time: day(3), Account: acct, Kind: appscript.NoteHeartbeat},
	} {
		store.Notify(n)
	}

	want := []appscript.Notification{read, quota}
	for name, got := range map[string][]appscript.Notification{
		"Notifications":    store.Notifications(),
		"NotificationsFor": store.NotificationsFor(acct),
	} {
		if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("%s = %+v, want %+v", name, got, want)
		}
	}
	if hb, ok := store.LastHeartbeat(acct); !ok || !hb.Equal(day(3)) {
		t.Fatalf("LastHeartbeat = %v, %v; want %v", hb, ok, day(3))
	}
	heartbeats := 0
	for _, n := range sink.notifications {
		if n.Kind == appscript.NoteHeartbeat {
			heartbeats++
		}
	}
	if heartbeats != 3 || len(sink.notifications) != 5 {
		t.Fatalf("sink saw %d heartbeats of %d notifications, want 3 of 5", heartbeats, len(sink.notifications))
	}
}

func TestHeartbeatNotifyAllocs(t *testing.T) {
	store := NewStore()
	hb := appscript.Notification{Time: epoch, Account: "h1@honeymail.example", Kind: appscript.NoteHeartbeat}
	store.Notify(hb)
	allocs := testing.AllocsPerRun(100, func() {
		hb.Time = hb.Time.Add(24 * time.Hour)
		store.Notify(hb)
	})
	if allocs != 0 {
		t.Fatalf("heartbeat Notify allocates %.1f times per call, want 0", allocs)
	}
}
