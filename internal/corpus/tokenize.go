package corpus

import (
	"unicode"
	"unicode/utf8"
)

// TokenizeOptions controls the preprocessing applied before TF-IDF,
// mirroring §4.6 of the paper: words shorter than MinLength are
// dropped, known header-related words are removed, and caller-supplied
// handles (honey email local parts) and signalling tokens injected by
// the monitoring infrastructure are filtered out.
type TokenizeOptions struct {
	// MinLength drops tokens shorter than this many characters. The
	// paper filters out all words of fewer than 5 characters.
	MinLength int
	// DropWords removes extra exact tokens (lowercased) beyond the
	// built-in header word list — honey handles, monitor markers.
	DropWords map[string]bool
	// KeepHeaderWords disables the built-in header-word filter; the
	// experiments never set this, but tests exercise it.
	KeepHeaderWords bool
}

// DefaultTokenizeOptions returns the paper's preprocessing settings.
func DefaultTokenizeOptions() TokenizeOptions {
	return TokenizeOptions{MinLength: 5}
}

// headerWords are mail-transport artifacts that would otherwise
// dominate TF-IDF on raw messages; the paper removes "all known
// header-related words, for instance 'delivered' and 'charset'".
var headerWords = map[string]bool{
	"delivered": true, "charset": true, "received": true, "return": true, "subject": true, "content": true, "transfer-encoding": true,
	"encoding": true, "multipart": true, "boundary": true, "quoted": true, "printable": true, "mailer": true, "message-id": true,
	"messageid": true, "in-reply-to": true, "references": true,
	"mime-version": true, "version": true, "x-mailer": true, "sender": true, "envelope": true, "smtp": true, "esmtp": true, "helo": true,
	"localhost": true, "unsubscribe": true,
}

// scan is the one tokenizer. It walks text, lowercases each maximal
// run of letters and digits into buf and hands every token that
// survives the MinLength (in runes), header-word and DropWords filters
// to emit. emit must not retain its argument: buf is reused for the
// next token. scan returns buf so callers can keep its capacity; the
// filters are map lookups keyed by string(tok), which do not allocate.
func scan(text string, opts TokenizeOptions, buf []byte, emit func(tok []byte)) []byte {
	minLength := opts.MinLength
	if minLength <= 0 {
		minLength = 1
	}
	buf = buf[:0]
	runes := 0
	flush := func() {
		if runes >= minLength &&
			(opts.KeepHeaderWords || !headerWords[string(buf)]) &&
			!opts.DropWords[string(buf)] {
			emit(buf)
		}
		buf = buf[:0]
		runes = 0
	}
	for i := 0; i < len(text); {
		if c := text[i]; c < utf8.RuneSelf {
			i++
			switch {
			case 'a' <= c && c <= 'z' || '0' <= c && c <= '9':
				buf = append(buf, c)
				runes++
			case 'A' <= c && c <= 'Z':
				buf = append(buf, c+('a'-'A'))
				runes++
			case runes > 0:
				flush()
			}
			continue
		}
		r, size := utf8.DecodeRuneInString(text[i:])
		i += size
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			buf = utf8.AppendRune(buf, unicode.ToLower(r))
			runes++
		case runes > 0:
			flush()
		}
	}
	if runes > 0 {
		flush()
	}
	return buf
}

// Tokenize splits text into lowercase word tokens under the given
// options. Anything that is not a letter or digit separates tokens.
// It materialises every token; TermCounter counts the same tokens
// without doing so.
func Tokenize(text string, opts TokenizeOptions) []string {
	var out []string
	scan(text, opts, nil, func(tok []byte) { out = append(out, string(tok)) })
	return out
}

// TermCounts tallies token frequencies.
func TermCounts(tokens []string) map[string]int {
	counts := make(map[string]int)
	for _, t := range tokens {
		counts[t]++
	}
	return counts
}

// TermCounter tallies the term frequencies of a document fed to it
// text by text, straight from the tokenizer: memory is O(vocabulary),
// and a term allocates only the first time it is seen.
type TermCounter struct {
	opts   TokenizeOptions
	buf    []byte
	index  map[string]int // term → position in counts
	counts []int
}

// NewTermCounter returns an empty counter tokenizing under opts.
func NewTermCounter(opts TokenizeOptions) *TermCounter {
	return &TermCounter{opts: opts, index: make(map[string]int)}
}

// Add counts every token of text.
func (c *TermCounter) Add(text string) {
	c.buf = scan(text, c.opts, c.buf, c.count)
}

func (c *TermCounter) count(tok []byte) {
	if i, ok := c.index[string(tok)]; ok {
		c.counts[i]++
		return
	}
	c.index[string(tok)] = len(c.counts)
	c.counts = append(c.counts, 1)
}

// Counts returns the tallies as a term → count map.
func (c *TermCounter) Counts() map[string]int {
	out := make(map[string]int, len(c.index))
	for t, i := range c.index {
		out[t] = c.counts[i]
	}
	return out
}
