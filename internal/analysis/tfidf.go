package analysis

import (
	"math"
	"sort"

	"repro/internal/corpus"
)

// TF-IDF keyword inference (§4.6). The corpus has exactly two
// documents: dA, all emails seeded into the honey accounts, and dR,
// the emails attackers read (including draft copies captured by the
// scripts). Words whose importance in dR far exceeds their importance
// in dA are the ones attackers most likely searched for.
//
// With only two documents, the textbook idf = log(N/df) zeroes every
// term that appears in both documents, which cannot produce Table 2's
// non-zero weights for shared terms like "transfer". We therefore use
// the smoothed variant idf = ln((1+N)/(1+df)) + 1 with L2-normalised
// per-document vectors — the convention of common TF-IDF
// implementations, consistent with the paper's statement that the
// output "ranges between 0 and 1".

// TFIDFResult holds the per-term weights of both documents.
type TFIDFResult struct {
	// ReadWeight and AllWeight are tfidf_R and tfidf_A per term.
	ReadWeight map[string]float64
	AllWeight  map[string]float64
}

// TermScore is one ranked row of Table 2.
type TermScore struct {
	Term  string
	Read  float64 // tfidf_R
	All   float64 // tfidf_A
	Delta float64 // tfidf_R − tfidf_A
}

// ComputeTFIDF evaluates the two-document TF-IDF over the term counts
// of dR and dA. Each document's L2 norm is summed in sorted-term
// order, so the weights are bit-identical however the counts were
// gathered.
func ComputeTFIDF(readCounts, allCounts map[string]int) *TFIDFResult {
	const nDocs = 2.0
	weigh := func(counts, other map[string]int) map[string]float64 {
		terms := make([]string, 0, len(counts))
		for t := range counts {
			terms = append(terms, t)
		}
		sort.Strings(terms)
		w := make(map[string]float64, len(counts))
		var norm float64
		for _, t := range terms {
			df := 1.0
			if _, shared := other[t]; shared {
				df = 2
			}
			v := float64(counts[t]) * (math.Log((1+nDocs)/(1+df)) + 1)
			w[t] = v
			norm += v * v
		}
		if norm > 0 {
			norm = math.Sqrt(norm)
			for t := range w {
				w[t] /= norm
			}
		}
		return w
	}
	return &TFIDFResult{
		ReadWeight: weigh(readCounts, allCounts),
		AllWeight:  weigh(allCounts, readCounts),
	}
}

// TopSearched ranks terms by tfidf_R − tfidf_A (Table 2, left side):
// the terms attackers most likely searched for.
func (r *TFIDFResult) TopSearched(n int) []TermScore {
	return r.rank(n, func(t TermScore) float64 { return t.Delta })
}

// TopCorpus ranks terms by tfidf_A (Table 2, right side): the most
// important terms of the whole corpus.
func (r *TFIDFResult) TopCorpus(n int) []TermScore {
	return r.rank(n, func(t TermScore) float64 { return t.All })
}

func (r *TFIDFResult) rank(n int, key func(TermScore) float64) []TermScore {
	seen := make(map[string]bool, len(r.ReadWeight)+len(r.AllWeight))
	var rows []TermScore
	add := func(t string) {
		if seen[t] {
			return
		}
		seen[t] = true
		row := TermScore{Term: t, Read: r.ReadWeight[t], All: r.AllWeight[t]}
		row.Delta = row.Read - row.All
		rows = append(rows, row)
	}
	for t := range r.ReadWeight {
		add(t)
	}
	for t := range r.AllWeight {
		add(t)
	}
	sort.Slice(rows, func(i, j int) bool {
		ki, kj := key(rows[i]), key(rows[j])
		if ki != kj {
			return ki > kj
		}
		return rows[i].Term < rows[j].Term // deterministic ties
	})
	if n > len(rows) {
		n = len(rows)
	}
	return rows[:n]
}

// KeywordInference runs the full §4.6 pipeline over a Dataset: build
// dR from read actions (seeded content + draft bodies), build dA from
// all seeded content, preprocess exactly as the paper (≥5 characters,
// header words removed, honey handles and monitor markers dropped),
// and return the TF-IDF result.
func KeywordInference(ds *Dataset, dropWords []string) *TFIDFResult {
	var reads []ReadEvent
	var drafts []DraftEvent
	for _, act := range ds.Actions {
		switch act.Kind {
		case ActionRead:
			reads = append(reads, ReadEvent{Account: act.Account, Message: act.Message})
		case ActionDraft:
			drafts = append(drafts, DraftEvent{Account: act.Account, Message: act.Message, Body: act.Body})
		}
	}
	return KeywordInferenceFromEvents(reads, drafts, ds.Contents, dropWords)
}

// KeywordInferenceFromEvents is the §4.6 pipeline over raw read/draft
// events — the form the streaming aggregates carry (accounts are
// disjoint across shards, so shard event lists simply concatenate).
// TF-IDF weighs term *counts*, so the event order never matters and
// the result is identical to the dataset path over the same events.
// Subjects and bodies stream straight into one term counter per
// document: memory is O(vocabulary), not O(tokens).
func KeywordInferenceFromEvents(reads []ReadEvent, drafts []DraftEvent, contents ContentsView, dropWords []string) *TFIDFResult {
	opts := corpus.DefaultTokenizeOptions()
	if len(dropWords) > 0 {
		opts.DropWords = make(map[string]bool, len(dropWords))
		for _, w := range dropWords {
			opts.DropWords[w] = true
		}
	}
	if contents == nil {
		contents = MapContents(nil)
	}

	// Subject and body tokenize separately here; the tokenizer splits
	// on the newline that used to join them, so the term counts — the
	// only thing TF-IDF consumes — are unchanged.
	dR, dA := corpus.NewTermCounter(opts), corpus.NewTermCounter(opts)
	contents.Each(func(_ string, _ int64, subject, body string) {
		dA.Add(subject)
		dA.Add(body)
	})
	// Attacker-authored drafts are known only from the script's draft
	// copies; index them so later reads of those drafts contribute
	// their text to dR. This is exactly how bitcoin vocabulary entered
	// the paper's read document (§4.6): the blackmailer abandoned
	// ransom drafts, other criminals read them, and the monitoring
	// picked the terms up. Table 2 shows tfidf_A(bitcoin) = 0.0, so
	// draft text stays out of the "all emails" document.
	draftBodies := make(map[string]map[int64]string)
	for _, d := range drafts {
		m, ok := draftBodies[d.Account]
		if !ok {
			m = make(map[int64]string)
			draftBodies[d.Account] = m
		}
		m[d.Message] = d.Body
	}
	for _, r := range reads {
		if subject, body, ok := contents.Message(r.Account, r.Message); ok {
			dR.Add(subject)
			dR.Add(body)
		} else if body, ok := draftBodies[r.Account][r.Message]; ok {
			dR.Add(body)
		}
	}
	for _, d := range drafts {
		dR.Add(d.Body)
	}
	return ComputeTFIDF(dR.Counts(), dA.Counts())
}
