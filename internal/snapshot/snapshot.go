// Package snapshot is the crash-consistent checkpoint substrate for
// long-running simulations: a versioned, checksummed on-disk envelope with
// atomic publication, and a draw-counting RNG source that lets every
// deterministic generator in the simulator serialize its exact stream
// position.
//
// # Envelope format
//
// A snapshot file is
//
//	magic    [8]byte  "MEHPTSNP"
//	version  uint32   big-endian format version
//	length   uint64   big-endian payload length in bytes
//	payload  []byte   gob-encoded state
//	checksum [32]byte SHA-256 of payload
//
// Save writes the envelope to a temporary file in the target directory and
// renames it into place, so a crash mid-write can never leave a torn file
// behind the published name: readers see either the previous snapshot or
// the new one, never a prefix. Load verifies magic, version, length, and
// checksum before decoding, and reports failures through the typed
// sentinels below so callers can distinguish "not a snapshot" from "stale
// format" from "bit rot".
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Version is the current envelope format version. Bump it whenever the
// payload schema changes incompatibly; Load rejects mismatches with
// ErrVersion rather than mis-decoding old state.
const Version = 1

var magic = [8]byte{'M', 'E', 'H', 'P', 'T', 'S', 'N', 'P'}

const headerLen = 8 + 4 + 8 // magic + version + payload length
const sumLen = sha256.Size

// Typed sentinel errors. Every failure mode Load can report wraps exactly
// one of these, so callers gate recovery policy with errors.Is.
var (
	// ErrNotSnapshot means the file does not carry the snapshot magic —
	// it is some other file, not a damaged snapshot.
	ErrNotSnapshot = errors.New("snapshot: not a snapshot file")
	// ErrVersion means the envelope is well-formed but written by an
	// incompatible format version.
	ErrVersion = errors.New("snapshot: format version mismatch")
	// ErrTruncated means the file ends before the length the header
	// promises — the classic torn-write signature.
	ErrTruncated = errors.New("snapshot: truncated")
	// ErrChecksum means the payload bytes do not hash to the recorded
	// checksum: silent corruption between write and read.
	ErrChecksum = errors.New("snapshot: payload checksum mismatch")
	// ErrDecode means the payload verified but did not gob-decode into
	// the caller's state type — a schema drift the version field missed.
	ErrDecode = errors.New("snapshot: payload decode failed")
)

// Save gob-encodes state and atomically publishes it at path: the envelope
// is written to a temporary file in path's directory, synced, and renamed
// into place. On any error the published path is untouched.
func Save(path string, state any) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(state); err != nil {
		return fmt.Errorf("snapshot: encoding state: %w", err)
	}
	sum := sha256.Sum256(payload.Bytes())

	var hdr [headerLen]byte
	copy(hdr[:8], magic[:])
	binary.BigEndian.PutUint32(hdr[8:12], Version)
	binary.BigEndian.PutUint64(hdr[12:20], uint64(payload.Len()))

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapshot: creating temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	werr := func() error {
		if _, err := tmp.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := tmp.Write(payload.Bytes()); err != nil {
			return err
		}
		if _, err := tmp.Write(sum[:]); err != nil {
			return err
		}
		return tmp.Sync()
	}()
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("snapshot: writing %s: %w", tmp.Name(), werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("snapshot: publishing %s: %w", path, err)
	}
	return nil
}

// Load reads the envelope at path, verifies it, and gob-decodes the
// payload into state (which must be a pointer). Verification failures wrap
// the typed sentinels above.
func Load(path string, state any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("snapshot: reading %s: %w", path, err)
	}
	if len(raw) < headerLen {
		if len(raw) >= 8 && !bytes.Equal(raw[:8], magic[:]) {
			return fmt.Errorf("%w: %s", ErrNotSnapshot, path)
		}
		return fmt.Errorf("%w: %s: %d bytes, header needs %d", ErrTruncated, path, len(raw), headerLen)
	}
	if !bytes.Equal(raw[:8], magic[:]) {
		return fmt.Errorf("%w: %s", ErrNotSnapshot, path)
	}
	if v := binary.BigEndian.Uint32(raw[8:12]); v != Version {
		return fmt.Errorf("%w: %s: file version %d, this build reads %d", ErrVersion, path, v, Version)
	}
	n := binary.BigEndian.Uint64(raw[12:20])
	// Compare n against the bytes present rather than summing it into the
	// header and checksum lengths: the untrusted n can be near 2^64, where
	// the sum would wrap around.
	if avail := len(raw) - headerLen - sumLen; avail < 0 || n > uint64(avail) {
		return fmt.Errorf("%w: %s: payload %d bytes promised, %d present", ErrTruncated, path, n, len(raw)-headerLen)
	}
	payload := raw[headerLen : headerLen+n]
	var want [sumLen]byte
	copy(want[:], raw[headerLen+n:headerLen+n+sumLen])
	if sum := sha256.Sum256(payload); sum != want {
		return fmt.Errorf("%w: %s", ErrChecksum, path)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(state); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrDecode, path, err)
	}
	return nil
}
