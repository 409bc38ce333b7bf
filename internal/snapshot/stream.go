package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Streaming container (introduced in format v2, unchanged since —
// the version byte tracks snapshot.Version). After the 8-byte magic the
// file is a sequence of self-checking frames:
//
//	[kind:1][payloadLen:uvarint][payload][fnv64le:8]
//
// The per-frame checksum is FNV-1a over the frame's kind, length and
// payload bytes. Exactly one meta frame (config, plan, streams,
// shards, cursors, account count) comes first, followed by the
// accounts in canonical blocks of BlockAccounts per frame (the final
// frame holds the remainder), and a trailer frame whose 8-byte payload
// is the rolling FNV-1a over every stream byte before it. Canonical
// chunking plus minimal varints keep the v1 contract: every State has
// exactly one byte representation, and the decoder rejects anything
// the encoder could not have produced.
//
// The point of the frames is memory: an Encoder holds one block's
// bytes, not the fleet's, and a Decoder hands accounts out one at a
// time from one buffered frame — checkpointing a million-account
// fleet costs O(block), not O(fleet).

// Frame kinds.
const (
	frameMeta     = 0x4d // 'M': config/plan/streams/shards/cursors + account count
	frameAccounts = 0x41 // 'A': a canonical block of account records
	frameEnd      = 0x45 // 'E': trailer carrying the rolling stream checksum
)

// BlockAccounts is the canonical number of accounts per frame. It is
// part of the format: a frame with any other count (except the final
// remainder) is rejected, so chunking can never make two encodings of
// one State.
const BlockAccounts = 64

// maxFrameLen caps a declared frame length; anything larger is corrupt
// by construction (a block of 64 mailboxes is a few megabytes).
const maxFrameLen = 1 << 31

// readChunk is the granularity untrusted frame payloads are pulled in,
// so a hostile length header cannot force an allocation bigger than
// the bytes actually present.
const readChunk = 64 << 10

// FNV-1a, computed incrementally so frame and stream checksums never
// buffer the bytes twice.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvAdd(h uint64, b []byte) uint64 {
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime
	}
	return h
}

// fnv64 is FNV-1a over data in one shot.
func fnv64(data []byte) uint64 { return fnvAdd(fnvOffset, data) }

// Encoder streams a snapshot to an io.Writer one account at a time.
// The caller declares the account count up front (the meta frame
// carries it), then must call WriteAccount exactly that many times
// before Close. Memory held is one account block, whatever the fleet
// size.
type Encoder struct {
	w   io.Writer
	sum uint64 // rolling FNV-1a over every emitted byte

	pay    writer // current frame payload, reused across frames
	hdr    [1 + binary.MaxVarintLen64]byte
	sumBuf [8]byte

	remaining int // accounts still owed
	block     int // accounts buffered in the open frame
	closed    bool
	err       error
}

// NewEncoder writes the magic and the meta frame built from st's
// non-account fields (st.Accounts is ignored) and returns an encoder
// expecting exactly accounts WriteAccount calls.
func NewEncoder(w io.Writer, st *State, accounts int) (*Encoder, error) {
	if accounts < 0 {
		return nil, fmt.Errorf("snapshot: negative account count %d", accounts)
	}
	e := &Encoder{w: w, sum: fnvOffset, remaining: accounts}
	if err := e.emit(magic[:]); err != nil {
		return nil, err
	}
	st.encodeMeta(&e.pay, accounts)
	if err := e.flushFrame(frameMeta); err != nil {
		return nil, err
	}
	return e, nil
}

// emit writes b and folds it into the rolling stream checksum.
func (e *Encoder) emit(b []byte) error {
	e.sum = fnvAdd(e.sum, b)
	if _, err := e.w.Write(b); err != nil {
		e.err = fmt.Errorf("snapshot: %w", err)
		return e.err
	}
	return nil
}

// flushFrame writes the buffered payload as one checksummed frame and
// resets the buffer.
func (e *Encoder) flushFrame(kind byte) error {
	e.hdr[0] = kind
	n := 1 + binary.PutUvarint(e.hdr[1:], uint64(len(e.pay.buf)))
	fsum := fnvAdd(fnvAdd(fnvOffset, e.hdr[:n]), e.pay.buf)
	binary.LittleEndian.PutUint64(e.sumBuf[:], fsum)
	if err := e.emit(e.hdr[:n]); err != nil {
		return err
	}
	if err := e.emit(e.pay.buf); err != nil {
		return err
	}
	if err := e.emit(e.sumBuf[:]); err != nil {
		return err
	}
	e.pay.buf = e.pay.buf[:0]
	return nil
}

// WriteAccount appends one account, flushing a frame whenever a
// canonical block fills.
func (e *Encoder) WriteAccount(a *Account) error {
	if e.err != nil {
		return e.err
	}
	if e.closed {
		return fmt.Errorf("snapshot: WriteAccount after Close")
	}
	if e.remaining == 0 {
		e.err = fmt.Errorf("snapshot: more accounts written than the %d declared", e.block)
		return e.err
	}
	encodeAccount(&e.pay, a)
	e.remaining--
	e.block++
	if e.block == BlockAccounts {
		e.block = 0
		return e.flushFrame(frameAccounts)
	}
	return nil
}

// Close flushes the final partial block and writes the trailer. It
// errors if fewer accounts were written than declared — a truncated
// checkpoint must never look complete.
func (e *Encoder) Close() error {
	if e.err != nil {
		return e.err
	}
	if e.closed {
		return nil
	}
	e.closed = true
	if e.remaining > 0 {
		e.err = fmt.Errorf("snapshot: Close with %d declared accounts unwritten", e.remaining)
		return e.err
	}
	if e.block > 0 {
		e.block = 0
		if err := e.flushFrame(frameAccounts); err != nil {
			return err
		}
	}
	var roll [8]byte
	binary.LittleEndian.PutUint64(roll[:], e.sum)
	e.pay.buf = append(e.pay.buf[:0], roll[:]...)
	return e.flushFrame(frameEnd)
}

// Decoder streams a snapshot from an io.Reader, holding one frame in
// memory at a time. Construction consumes the magic and meta frame;
// Next then yields accounts in order and returns io.EOF only after
// the trailer checksum has verified and the input is exhausted.
type Decoder struct {
	r   io.Reader
	sum uint64 // rolling FNV-1a over every consumed byte

	meta  State
	total int // declared accounts
	read  int // accounts handed out

	frame []byte // current frame payload, reused
	chunk []byte // bounded read buffer for untrusted lengths
	fr    reader // parse cursor over the current accounts frame
	inBlk int    // accounts left in the current frame
	one   [1]byte

	done bool // trailer verified, input exhausted
	err  error
}

// NewDecoder reads the magic and meta frame. The returned decoder's
// Meta and Accounts describe the snapshot; Next streams the accounts.
func NewDecoder(r io.Reader) (*Decoder, error) {
	d := &Decoder{r: r, sum: fnvOffset}
	var got [8]byte
	if err := d.readFull(got[:]); err != nil {
		return nil, err
	}
	if !bytes.Equal(got[:7], magic[:7]) {
		return nil, fmt.Errorf("snapshot: bad magic %q", got[:7])
	}
	if got[7] != Version {
		return nil, fmt.Errorf("snapshot: %w %d (this build reads version %d)", ErrVersion, got[7], Version)
	}
	if err := d.readFrame(frameMeta); err != nil {
		return nil, err
	}
	fr := reader{data: d.frame}
	n, err := d.meta.decodeMeta(&fr)
	if err != nil {
		return nil, err
	}
	if fr.off != len(fr.data) {
		return nil, fmt.Errorf("snapshot: %d stray bytes in meta frame", len(fr.data)-fr.off)
	}
	d.total = n
	return d, nil
}

// Meta returns the decoded non-account state. The pointer aliases the
// decoder; copy it if the decoder outlives its use.
func (d *Decoder) Meta() *State { return &d.meta }

// Accounts returns the number of accounts the snapshot declares.
func (d *Decoder) Accounts() int { return d.total }

// Next decodes the next account into *a. After the last account it
// verifies the trailer checksum and that the input ends, then returns
// io.EOF; any corruption, truncation or non-canonical framing is an
// error.
func (d *Decoder) Next(a *Account) error {
	if d.err != nil {
		return d.err
	}
	if d.read == d.total {
		if !d.done {
			if err := d.finish(); err != nil {
				d.err = err
				return err
			}
			d.done = true
		}
		return io.EOF
	}
	if d.inBlk == 0 {
		if err := d.readFrame(frameAccounts); err != nil {
			d.err = err
			return err
		}
		d.fr = reader{data: d.frame}
		d.inBlk = d.total - d.read
		if d.inBlk > BlockAccounts {
			d.inBlk = BlockAccounts
		}
	}
	*a = Account{}
	if err := decodeAccount(&d.fr, a); err != nil {
		d.err = err
		return err
	}
	d.inBlk--
	d.read++
	if d.inBlk == 0 && d.fr.off != len(d.fr.data) {
		d.err = fmt.Errorf("snapshot: %d stray bytes in account frame", len(d.fr.data)-d.fr.off)
		return d.err
	}
	return nil
}

// finish consumes and verifies the trailer frame and checks nothing
// follows it.
func (d *Decoder) finish() error {
	roll := d.sum
	if err := d.readFrame(frameEnd); err != nil {
		return err
	}
	if len(d.frame) != 8 {
		return fmt.Errorf("snapshot: trailer payload is %d bytes, want 8", len(d.frame))
	}
	if binary.LittleEndian.Uint64(d.frame) != roll {
		return fmt.Errorf("snapshot: stream checksum mismatch (corrupt or reordered frames)")
	}
	if _, err := io.ReadFull(d.r, d.one[:]); err != io.EOF {
		if err == nil {
			return fmt.Errorf("snapshot: trailing bytes after trailer frame")
		}
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// readFull fills dst from the stream, folding the bytes into the
// rolling checksum.
func (d *Decoder) readFull(dst []byte) error {
	if _, err := io.ReadFull(d.r, dst); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("snapshot: truncated stream")
		}
		return fmt.Errorf("snapshot: %w", err)
	}
	d.sum = fnvAdd(d.sum, dst)
	return nil
}

// readFrame reads one frame of the expected kind into d.frame and
// verifies its checksum. The payload is pulled in bounded chunks so a
// hostile length cannot force an allocation the input cannot back.
func (d *Decoder) readFrame(wantKind byte) error {
	if err := d.readFull(d.one[:]); err != nil {
		return err
	}
	kind := d.one[0]
	if kind != wantKind {
		return fmt.Errorf("snapshot: frame kind %#x where %#x expected", kind, wantKind)
	}
	fsum := fnvAdd(fnvOffset, d.one[:])
	length, err := d.readFrameLen(&fsum)
	if err != nil {
		return err
	}
	if length > maxFrameLen {
		return fmt.Errorf("snapshot: frame length %d exceeds limit", length)
	}
	if d.chunk == nil {
		d.chunk = make([]byte, readChunk)
	}
	d.frame = d.frame[:0]
	for remaining := int(length); remaining > 0; {
		n := len(d.chunk)
		if remaining < n {
			n = remaining
		}
		if err := d.readFull(d.chunk[:n]); err != nil {
			return err
		}
		fsum = fnvAdd(fsum, d.chunk[:n])
		d.frame = append(d.frame, d.chunk[:n]...)
		remaining -= n
	}
	var sumBytes [8]byte
	if err := d.readFull(sumBytes[:]); err != nil {
		return err
	}
	if binary.LittleEndian.Uint64(sumBytes[:]) != fsum {
		return fmt.Errorf("snapshot: frame checksum mismatch (corrupt %#x frame)", kind)
	}
	return nil
}

// readFrameLen reads a minimally-encoded uvarint frame length byte by
// byte, folding each into the frame checksum (the rolling checksum is
// handled by readFull).
func (d *Decoder) readFrameLen(fsum *uint64) (uint64, error) {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		if shift >= 64 {
			return 0, fmt.Errorf("snapshot: frame length varint overflows")
		}
		if err := d.readFull(d.one[:]); err != nil {
			return 0, err
		}
		*fsum = fnvAdd(*fsum, d.one[:])
		b := d.one[0]
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			if shift > 0 && b == 0 {
				return 0, fmt.Errorf("snapshot: non-minimal frame length varint")
			}
			return v, nil
		}
	}
}
