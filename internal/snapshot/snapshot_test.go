package snapshot

// Envelope proof obligations: a snapshot round-trips bit-exactly, every
// damage mode (wrong file, stale version, torn write, bit rot, schema
// drift) is rejected with its typed sentinel, and Save publishes
// atomically — a failed save never clobbers the previous snapshot.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

type payload struct {
	Name  string
	Vals  []uint64
	Inner struct{ A, B int64 }
}

func samplePayload() payload {
	p := payload{Name: "machine", Vals: []uint64{1, 2, 3, 1 << 60}}
	p.Inner.A, p.Inner.B = -7, 42
	return p
}

func savedPath(t testing.TB) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "state.snap")
	if err := Save(path, samplePayload()); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return path
}

func TestRoundTrip(t *testing.T) {
	path := savedPath(t)
	var got payload
	if err := Load(path, &got); err != nil {
		t.Fatalf("Load: %v", err)
	}
	want := samplePayload()
	if got.Name != want.Name || len(got.Vals) != len(want.Vals) || got.Inner != want.Inner {
		t.Fatalf("round trip mangled payload: %+v", got)
	}
	for i, v := range want.Vals {
		if got.Vals[i] != v {
			t.Fatalf("Vals[%d] = %d, want %d", i, got.Vals[i], v)
		}
	}
}

func TestOverwriteInPlace(t *testing.T) {
	path := savedPath(t)
	second := samplePayload()
	second.Name = "second"
	if err := Save(path, second); err != nil {
		t.Fatalf("second Save: %v", err)
	}
	var got payload
	if err := Load(path, &got); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Name != "second" {
		t.Fatalf("expected the second snapshot, got %q", got.Name)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestRejectsNotASnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(path, []byte("definitely not a snapshot, but long enough to carry a header"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := Load(path, &got); !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("got %v, want ErrNotSnapshot", err)
	}
}

func TestRejectsVersionMismatch(t *testing.T) {
	path := savedPath(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(raw[8:12], Version+1)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := Load(path, &got); !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
}

// TestRejectsTruncation cuts the file at every interesting boundary: inside
// the header, inside the payload, and inside the checksum.
func TestRejectsTruncation(t *testing.T) {
	path := savedPath(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []int{0, 4, headerLen - 1, headerLen + 1, len(raw) - sumLen - 1, len(raw) - 1} {
		if keep < 0 || keep >= len(raw) {
			continue
		}
		cut := filepath.Join(t.TempDir(), "cut.snap")
		if err := os.WriteFile(cut, raw[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		var got payload
		if err := Load(cut, &got); !errors.Is(err, ErrTruncated) {
			t.Errorf("keep=%d: got %v, want ErrTruncated", keep, err)
		}
	}
}

// TestRejectsBitFlips flips one bit at a spread of payload and checksum
// offsets; every flip must surface as ErrChecksum (payload or checksum
// damage), never as a silent mis-decode.
func TestRejectsBitFlips(t *testing.T) {
	path := savedPath(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipper := rand.New(rand.NewSource(7))
	for trial := 0; trial < 16; trial++ {
		off := headerLen + flipper.Intn(len(raw)-headerLen)
		bad := append([]byte(nil), raw...)
		bad[off] ^= 1 << uint(flipper.Intn(8))
		flipped := filepath.Join(t.TempDir(), "flip.snap")
		if err := os.WriteFile(flipped, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		var got payload
		if err := Load(flipped, &got); !errors.Is(err, ErrChecksum) {
			t.Errorf("flip at %d: got %v, want ErrChecksum", off, err)
		}
	}
}

func TestRejectsSchemaDrift(t *testing.T) {
	path := filepath.Join(t.TempDir(), "drift.snap")
	if err := Save(path, samplePayload()); err != nil {
		t.Fatal(err)
	}
	// A shape the payload cannot decode into: same envelope, wrong type.
	var got struct{ Name int64 }
	if err := Load(path, &got); !errors.Is(err, ErrDecode) {
		t.Fatalf("got %v, want ErrDecode", err)
	}
}

// TestFailedSaveKeepsPrevious proves atomic publication: saving an
// unencodable state leaves the previously published snapshot intact.
func TestFailedSaveKeepsPrevious(t *testing.T) {
	path := savedPath(t)
	if err := Save(path, func() {}); err == nil { // funcs are not gob-encodable
		t.Fatal("Save of unencodable state succeeded")
	}
	var got payload
	if err := Load(path, &got); err != nil {
		t.Fatalf("previous snapshot damaged by failed save: %v", err)
	}
	if got.Name != samplePayload().Name {
		t.Fatalf("previous snapshot content changed: %+v", got)
	}
}

// TestRejectsLengthOverflow is the regression for a 52-byte envelope whose
// length field is near 2^64: adding it to the header and checksum lengths
// wrapped around and slicing the payload panicked. It must report
// ErrTruncated.
func TestRejectsLengthOverflow(t *testing.T) {
	var got payload
	if err := Load("testdata/length-overflow.snap", &got); !errors.Is(err, ErrTruncated) {
		t.Fatalf("got %v, want ErrTruncated", err)
	}
}

// envelope wraps payload bytes in a well-formed header and checksum, so
// fuzzed payloads reach the gob decoder instead of stopping at the
// checksum.
func envelope(body []byte) []byte {
	out := make([]byte, headerLen, headerLen+len(body)+sumLen)
	copy(out, magic[:])
	binary.BigEndian.PutUint32(out[8:12], Version)
	binary.BigEndian.PutUint64(out[12:20], uint64(len(body)))
	out = append(out, body...)
	sum := sha256.Sum256(body)
	return append(out, sum[:]...)
}

// loadHeapBound is the allocation budget for loading an n-byte file: the
// file itself and its decode, plus a fixed 16MB because encoding/gob reads
// a message whose header declares more bytes than are present in chunks of
// up to 10MB before it finds the short read.
func loadHeapBound(n int) uint64 { return 16*uint64(n) + 16<<20 }

// FuzzSnapshotLoad: Load on arbitrary bytes — raw, and with the bytes as a
// checksummed payload — never panics, fails only with one of the typed
// sentinels, and allocates in proportion to the file it reads.
func FuzzSnapshotLoad(f *testing.F) {
	valid, err := os.ReadFile(savedPath(f))
	if err != nil {
		f.Fatal(err)
	}
	overflow, err := os.ReadFile("testdata/length-overflow.snap")
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(valid)
	f.Add(overflow)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[headerLen : len(valid)-sumLen]) // a bare gob payload
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, file := range [][]byte{data, envelope(data)} {
			path := filepath.Join(dir, "fuzz.snap")
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			var got payload
			var lerr error
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			lerr = Load(path, &got)
			runtime.ReadMemStats(&after)
			if used, bound := after.TotalAlloc-before.TotalAlloc, loadHeapBound(len(file)); used > bound {
				t.Fatalf("form %d: loading %d bytes allocated %d, bound %d", i, len(file), used, bound)
			}
			if lerr == nil {
				continue
			}
			typed := false
			for _, want := range []error{ErrNotSnapshot, ErrVersion, ErrTruncated, ErrChecksum, ErrDecode} {
				typed = typed || errors.Is(lerr, want)
			}
			if !typed {
				t.Fatalf("form %d: untyped error: %v", i, lerr)
			}
		}
	})
}
