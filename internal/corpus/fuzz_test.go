package corpus

import (
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// referenceTokenize is the tokenizer the streaming scanner replaced:
// it grows a strings.Builder one rune at a time and filters each
// finished token. It is kept as the oracle the scanner must match.
func referenceTokenize(text string, opts TokenizeOptions) []string {
	if opts.MinLength <= 0 {
		opts.MinLength = 1
	}
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		tok := b.String()
		b.Reset()
		if len([]rune(tok)) < opts.MinLength {
			return
		}
		if !opts.KeepHeaderWords && headerWords[tok] {
			return
		}
		if opts.DropWords != nil && opts.DropWords[tok] {
			return
		}
		out = append(out, tok)
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		default:
			flush()
		}
	}
	flush()
	return out
}

// FuzzTokenCounts checks the scanner against the reference tokenizer
// on arbitrary bytes — invalid UTF-8, non-ASCII capitals, digits,
// header words, drop words and minimum lengths from negative to 7.
// Tokenize must return the reference's token sequence, and a
// TermCounter must hold exactly the reference's term counts, also
// after a second Add of the same text reuses its scratch buffer. The
// seed corpus is committed under testdata/fuzz/FuzzTokenCounts.
func FuzzTokenCounts(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string, minLength int8, keepHeaderWords bool, drop string) {
		opts := TokenizeOptions{MinLength: int(minLength % 8), KeepHeaderWords: keepHeaderWords}
		if drop != "" {
			opts.DropWords = map[string]bool{drop: true}
		}
		want := referenceTokenize(text, opts)
		if got := Tokenize(text, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", text, got, want)
		}
		wantCounts := TermCounts(want)
		c := NewTermCounter(opts)
		c.Add(text)
		if got := c.Counts(); !reflect.DeepEqual(got, wantCounts) {
			t.Fatalf("TermCounter(%q) = %v, reference %v", text, got, wantCounts)
		}
		c.Add(text)
		for term, n := range c.Counts() {
			if n != 2*wantCounts[term] {
				t.Fatalf("second Add: count[%q] = %d, want %d", term, n, 2*wantCounts[term])
			}
		}
	})
}

// TestTermCounterAllocatesPerTerm: once a counter has seen a
// vocabulary, counting more text over it allocates nothing.
func TestTermCounterAllocatesPerTerm(t *testing.T) {
	const text = "Transfer the PAYMENT to the company, Ärger über İstanbul 2016 — transfer again."
	c := NewTermCounter(DefaultTokenizeOptions())
	c.Add(text)
	if allocs := testing.AllocsPerRun(50, func() { c.Add(text) }); allocs != 0 {
		t.Fatalf("Add over a known vocabulary allocates %.1f objects, want 0", allocs)
	}
	counts := c.Counts()
	if counts["transfer"] != 2*52 || counts["ärger"] != 52 || counts["istanbul"] != 52 {
		t.Fatalf("counts = %v", counts)
	}
}
