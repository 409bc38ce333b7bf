package webmail

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// DirtySet is a caller-owned set of integer slots that the service
// marks when a watched account's mailbox version bumps (see Watch).
// It turns per-account polling into a push: the Apps-Script runtime
// gives every installed script a slot, and one drain per scan tick
// visits exactly the accounts that changed, in slot order, so a quiet
// account costs nothing at all.
//
// Slots live in fixed-size chunks that never move once allocated: a
// watched account holds a pointer straight to its slot's word, so
// marking is one atomic read-modify-write on the write path — no
// allocation, no lock. Growth (Watch time) and Drain take the set's
// mutex once each; the zero value is an empty set ready for use.
type DirtySet struct {
	mu     sync.Mutex // guards chunks
	chunks []*dirtyChunk
}

// dirtyChunkWords is the chunk size in 64-bit words (4,096 slots).
const dirtyChunkWords = 64

type dirtyChunk [dirtyChunkWords]atomic.Uint64

// word returns the word and bit mask holding slot, growing the set
// as needed.
func (d *DirtySet) word(slot int) (*atomic.Uint64, uint64) {
	if slot < 0 {
		panic("webmail: negative DirtySet slot")
	}
	c, w := slot/(64*dirtyChunkWords), slot/64%dirtyChunkWords
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.chunks) <= c {
		d.chunks = append(d.chunks, new(dirtyChunk))
	}
	return &d.chunks[c][w], 1 << uint(slot%64)
}

// Mark adds slot to the set.
func (d *DirtySet) Mark(slot int) { orBit(d.word(slot)) }

// orBit sets mask in w. A compare-and-swap loop rather than
// atomic.Uint64.Or, which needs a newer language version than go.mod
// declares; the common already-set case is a single load.
func orBit(w *atomic.Uint64, mask uint64) {
	for {
		old := w.Load()
		if old&mask != 0 || w.CompareAndSwap(old, old|mask) {
			return
		}
	}
}

// Drain empties the set, calling visit for every slot that was
// marked, in ascending slot order. Each word is swapped to zero before
// its slots are visited, so a slot re-marked by visit itself (a scan
// that delivers mail into the account it scans) stays marked for the
// next drain. An empty word costs one atomic load.
func (d *DirtySet) Drain(visit func(slot int)) {
	d.mu.Lock()
	chunks := d.chunks
	d.mu.Unlock()
	for ci, c := range chunks {
		for wi := range c {
			if c[wi].Load() == 0 {
				continue
			}
			base := (ci*dirtyChunkWords + wi) * 64
			for m := c[wi].Swap(0); m != 0; m &= m - 1 {
				visit(base + bits.TrailingZeros64(m))
			}
		}
	}
}

// Watch binds an account's mailbox-version bumps to slot of set:
// from now on every read, star, send, draft write or inbound delivery
// on the account marks the slot. A nil set detaches the account. An
// account has at most one watcher; binding replaces the previous one.
func (s *Service) Watch(address string, set *DirtySet, slot int) error {
	var w *atomic.Uint64
	var mask uint64
	if set != nil {
		w, mask = set.word(slot)
	}
	p, a, err := s.acquire(address)
	if err != nil {
		return err
	}
	defer p.mu.Unlock()
	a.watch, a.watchMask = w, mask
	return nil
}

// bumpMailboxLocked advances the mailbox version and marks the
// account's watch slot. Callers hold the owning partition's lock.
func (a *account) bumpMailboxLocked() {
	a.version.Add(1)
	if a.watch != nil {
		orBit(a.watch, a.watchMask)
	}
}
