package snapshot

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var recordCorpus = flag.Bool("record-corpus", false, "re-record the committed FuzzSnapshotDecode seeds at the current Version from sampleState")

const corpusDir = "testdata/fuzz/FuzzSnapshotDecode"

// FuzzSnapshotDecode hammers the decoder with arbitrary bytes:
// corrupt or truncated snapshots must produce an error — never a
// panic, never an over-allocation — and anything the decoder does
// accept must re-encode to exactly the bytes it was given (the
// canonical-form contract, which also proves the decoder cannot be
// tricked into a state the encoder could not have produced).
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(magic[:])
	full := sampleState().Encode()
	f.Add(full)
	f.Add(full[:len(full)/2])
	truncated := append([]byte(nil), full[:len(full)-9]...)
	f.Add(truncated)
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/3] ^= 0xff
	f.Add(flipped)
	empty := (&State{}).Encode()
	f.Add(empty)
	oneShard := (&State{Shards: []Shard{{Pending: 1, Chains: []Chain{{IntervalNS: 5}}}}}).Encode()
	f.Add(oneShard)
	// A fleet spanning multiple canonical account frames, plus a cut
	// inside its second frame, so the fuzzer starts with the chunked
	// framing in its corpus — not just single-block snapshots.
	chunked := fleetState(BlockAccounts + 6).Encode()
	f.Add(chunked)
	f.Add(chunked[:len(chunked)-20])

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		if again := s.Encode(); !bytes.Equal(again, data) {
			t.Fatalf("accepted non-canonical input:\nin:  %x\nout: %x", data, again)
		}
	})
}

// corpusSeeds derives the committed seed inputs from sampleState at
// the current Version. seed-bad-version and seed-garbage are not
// derived: they are meant to fail the version check at any Version.
func corpusSeeds() map[string][]byte {
	full := sampleState().Encode()
	// The setup-layout field is the first byte that differs between
	// two encodings that differ only in SetupLayout.
	other := sampleState()
	other.Config.SetupLayout++
	otherFull := other.Encode()
	layout := 0
	for full[layout] == otherFull[layout] {
		layout++
	}
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)/3] ^= 0xff
	corruptLayout := append([]byte(nil), full...)
	corruptLayout[layout] = 0xff
	return map[string][]byte{
		"seed-valid":            full,
		"seed-corrupt":          corrupt,
		"seed-corrupt-layout":   corruptLayout,
		"seed-truncated":        full[:len(full)-9],
		"seed-truncated-layout": full[:layout+1],
		"seed-empty-state":      (&State{}).Encode(),
	}
}

// readCorpusSeed decodes one committed seed file ("go test fuzz v1"
// header, then a single []byte literal).
func readCorpusSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(corpusDir, name))
	if err != nil {
		t.Fatal(err)
	}
	header, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	lit = strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")")
	data, err := strconv.Unquote(lit)
	if header != "go test fuzz v1" || err != nil {
		t.Fatalf("%s: not a []byte fuzz seed (%v)", name, err)
	}
	return []byte(data)
}

// TestFuzzCorpusCurrent keeps the committed fuzz seeds meaningful:
// seed-valid decodes, seed-bad-version and seed-garbage stop at the
// version check, and every other seed carries the current Version so
// the fuzzer starts past that check (frames, checksums, truncation).
// After a Version bump, re-record with -record-corpus.
func TestFuzzCorpusCurrent(t *testing.T) {
	if *recordCorpus {
		for name, data := range corpusSeeds() {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			if err := os.WriteFile(filepath.Join(corpusDir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		data := readCorpusSeed(t, name)
		_, err := Decode(data)
		switch name {
		case "seed-valid", "seed-empty-state":
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
		case "seed-bad-version", "seed-garbage":
			if !errors.Is(err, ErrVersion) {
				t.Errorf("%s: got %v, want ErrVersion", name, err)
			}
		default:
			if len(data) < len(magic) || data[7] != Version {
				t.Errorf("%s: does not carry version byte %d; re-record with -record-corpus", name, Version)
			} else if err == nil {
				t.Errorf("%s: corrupt seed decoded", name)
			}
		}
	}
}
