package analysis

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/rng"
)

// keywordCorpus builds a fixed seeded corpus of accounts × perAccount
// generated messages, each stored copies times under distinct ids,
// plus one read per stored message and a few attacker drafts (read
// back once each).
func keywordCorpus(accounts, perAccount, copies int) (MapContents, []ReadEvent, []DraftEvent) {
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(2015, 6, 25, 0, 0, 0, 0, time.UTC)
	g := corpus.NewGenerator(rng.New(11), corpus.DefaultConfig())
	owners := corpus.NewPersonas(rng.New(12), accounts, "honeymail.example")
	contents := make(MapContents, accounts)
	var reads []ReadEvent
	var drafts []DraftEvent
	for a, owner := range owners {
		msgs := make(map[int64]string, perAccount*copies)
		for i, m := range g.Mailbox(owner, perAccount, start, end) {
			for c := 0; c < copies; c++ {
				id := int64(c*perAccount + i)
				msgs[id] = m.Subject + "\n" + m.Body
				reads = append(reads, ReadEvent{Account: owner.Email, Message: id})
			}
		}
		contents[owner.Email] = msgs
		draftID := int64(perAccount*copies + a)
		drafts = append(drafts, DraftEvent{Account: owner.Email, Message: draftID,
			Body: "send 2 bitcoin to the wallet or the photographs leak"})
		reads = append(reads, ReadEvent{Account: owner.Email, Message: draftID})
	}
	return contents, reads, drafts
}

// TestKeywordInferenceAllocsBoundedByVocabulary: Table 2 counts terms
// straight from the mailbox text, so storing and reading every message
// four times over the same vocabulary must cost at most a small
// constant number of extra allocations, not one per token.
func TestKeywordInferenceAllocsBoundedByVocabulary(t *testing.T) {
	drop := []string{"alice"}
	measure := func(copies int) float64 {
		contents, reads, drafts := keywordCorpus(8, 12, copies)
		return testing.AllocsPerRun(5, func() {
			KeywordInferenceFromEvents(reads, drafts, contents, drop)
		})
	}
	once, fourTimes := measure(1), measure(4)
	if fourTimes > once+16 {
		t.Fatalf("4× repeated corpus allocates %.0f objects vs %.0f once: allocations grow with tokens, not vocabulary",
			fourTimes, once)
	}
}

// TestTFIDFBitIdentical: the weights do not depend on map iteration
// order or on how read events are split across shards — repeated
// calls, and events concatenated shard by shard for 1 and 4 shards,
// give bit-identical weights.
func TestTFIDFBitIdentical(t *testing.T) {
	// A 5,000-term document: large enough that map-order summation of
	// the L2 norm almost always differs in the last bits.
	read := make(map[string]int, 5000)
	all := make(map[string]int, 5000)
	src := rng.New(5)
	for i := 0; i < 5000; i++ {
		term := fmt.Sprintf("term%04d", i)
		all[term] = 1 + src.Intn(1000)
		if i%3 == 0 {
			read[term] = 1 + src.Intn(50)
		}
	}
	sameBits := func(a, b map[string]float64) bool {
		if len(a) != len(b) {
			return false
		}
		for term, w := range a {
			if v, ok := b[term]; !ok || math.Float64bits(v) != math.Float64bits(w) {
				return false
			}
		}
		return true
	}
	first := ComputeTFIDF(read, all)
	for i := 0; i < 50; i++ {
		r := ComputeTFIDF(read, all)
		if !sameBits(r.AllWeight, first.AllWeight) || !sameBits(r.ReadWeight, first.ReadWeight) {
			t.Fatalf("call %d returned bit-different weights", i+1)
		}
	}

	contents, reads, drafts := keywordCorpus(8, 12, 1)
	shardedReads := func(shards int) []ReadEvent {
		var out []ReadEvent
		for s := shards - 1; s >= 0; s-- {
			for i, r := range reads {
				if i%shards == s {
					out = append(out, r)
				}
			}
		}
		return out
	}
	one := KeywordInferenceFromEvents(shardedReads(1), drafts, contents, nil)
	four := KeywordInferenceFromEvents(shardedReads(4), drafts, contents, nil)
	if !sameBits(one.ReadWeight, four.ReadWeight) || !sameBits(one.AllWeight, four.AllWeight) {
		t.Fatal("shard counts 1 and 4 give bit-different weights")
	}
	if one.ReadWeight["bitcoin"] == 0 || one.AllWeight["bitcoin"] != 0 {
		t.Fatalf("draft vocabulary misrouted: read %v, all %v", one.ReadWeight["bitcoin"], one.AllWeight["bitcoin"])
	}
}
