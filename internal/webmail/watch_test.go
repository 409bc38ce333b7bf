package webmail

import (
	"slices"
	"testing"
)

// drained collects one Drain of the set.
func drained(d *DirtySet) []int {
	var out []int
	d.Drain(func(slot int) { out = append(out, slot) })
	return out
}

// A watched account marks its slot on exactly the events that bump
// its mailbox version; logins, searches and seeding do not.
func TestWatchMarksOnMailboxBumps(t *testing.T) {
	f := newDirtyFixture(t)
	const acct = "d@honeymail.example"
	id, _ := f.svc.Seed(acct, FolderInbox, "b@x", acct, "s", "b", f.clock.Now())
	var set DirtySet
	const slot = 4100 // second chunk
	if err := f.svc.Watch(acct, &set, slot); err != nil {
		t.Fatal(err)
	}
	if err := f.svc.Watch("ghost@x", &set, 0); err == nil {
		t.Fatal("watching a missing account succeeded")
	}
	se := f.login(t, "Oslo", "")
	if _, err := se.Search("s"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.svc.Seed(acct, FolderInbox, "b@x", acct, "s2", "b2", f.clock.Now()); err != nil {
		t.Fatal(err)
	}
	if got := drained(&set); got != nil {
		t.Fatalf("login/search/seed marked %v", got)
	}
	for name, op := range map[string]func() error{
		"read":    func() error { _, err := se.Read(id); return err },
		"star":    func() error { return se.Star(id) },
		"send":    func() error { _, err := se.Send("x@y", "s", "b"); return err },
		"draft":   func() error { _, err := se.CreateDraft("x@y", "s", "b"); return err },
		"inbound": func() error { _, err := f.svc.DeliverInbound(acct, "b@x", "s", "b"); return err },
	} {
		v := f.svc.Version(acct)
		if err := op(); err != nil {
			t.Fatal(err)
		}
		if f.svc.Version(acct) == v {
			t.Fatalf("%s did not bump the version", name)
		}
		if got := drained(&set); !slices.Equal(got, []int{slot}) {
			t.Fatalf("%s marked %v, want [%d]", name, got, slot)
		}
	}
	if err := f.svc.Watch(acct, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.svc.DeliverInbound(acct, "b@x", "s", "b"); err != nil {
		t.Fatal(err)
	}
	if got := drained(&set); got != nil {
		t.Fatalf("detached account marked %v", got)
	}
}

// Drain visits marked slots in ascending order across words and
// chunks, and a slot re-marked during the drain survives to the next.
func TestDirtySetDrainOrder(t *testing.T) {
	var set DirtySet
	slots := []int{9000, 3, 64, 63, 4095, 4096, 0}
	for _, s := range slots {
		set.Mark(s)
	}
	set.Mark(3) // idempotent
	var got []int
	set.Drain(func(slot int) {
		got = append(got, slot)
		if slot == 64 {
			set.Mark(64)
		}
	})
	want := slices.Clone(slots)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("drain order %v, want %v", got, want)
	}
	if got := drained(&set); !slices.Equal(got, []int{64}) {
		t.Fatalf("re-marked slot: second drain %v, want [64]", got)
	}
	if got := drained(&set); got != nil {
		t.Fatalf("third drain %v, want empty", got)
	}
}
