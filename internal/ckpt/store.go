package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Envelope format (EnvelopeVersion 1): one ASCII header line followed by the
// raw payload —
//
//	linckpt <version> <generation> <crc32> <payload-length>\n<payload>
//
// crc32 (IEEE, hex) covers the payload bytes only. A torn write truncates the
// payload or the header, which the length or checksum catches; a bit flip in
// either fails the checksum or the header parse. Either way the generation is
// rejected as corrupt and restore falls back to the previous one — never a
// silent wrong resume.
//
// On-disk layout: one file per generation, named <key>.<generation>.ckpt with
// the key percent-encoded to filesystem-safe bytes. Save writes a temp file,
// syncs it, then renames it over the final name (atomic on POSIX within a
// directory), and prunes to the newest keepGenerations files. The CAS rule:
// Save(key, expect, ...) writes generation expect+1 and fails with ErrStale
// when the newest on-disk generation is not expect — two writers cannot both
// advance from the same ancestor, the loser learns it lost.
const (
	// EnvelopeVersion is the version written into every envelope header;
	// readers refuse other versions.
	EnvelopeVersion = 1

	envelopeMagic   = "linckpt"
	fileSuffix      = ".ckpt"
	keepGenerations = 2
)

// ErrStale is returned by Save when the caller's expected generation is no
// longer the newest on disk: another writer advanced the key (or the caller
// restored an older generation). The caller must Restore and reconcile, not
// retry blindly.
var ErrStale = errors.New("ckpt: stale generation")

// ErrNoCheckpoint is returned by Restore when the key has no intact
// generation — none ever written, or every written one corrupt. Wrapped
// errors carry the per-generation detail.
var ErrNoCheckpoint = errors.New("ckpt: no intact checkpoint")

// Store reads and writes checkpoint envelopes under one directory.
// Concurrent use is safe only per-key-single-writer (the CAS rule serialises
// accidental violations); the monitoring service saves different objects
// concurrently, with at most one save of a key out at a time.
type Store struct {
	fs  FS
	dir string
}

// NewStore opens (creating if needed) a checkpoint directory on fs.
func NewStore(fs FS, dir string) (*Store, error) {
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("ckpt: open store: %w", err)
	}
	return &Store{fs: fs, dir: dir}, nil
}

// Save durably writes payload as the next generation of key, expecting the
// newest on-disk generation to be expect (0 for a fresh key). On success it
// returns the new generation (expect+1) with the bytes synced and visible
// under the final name; on ErrStale nothing is written; on any other error
// the final name is untouched (at worst a temp file holds partial bytes,
// which no reader ever trusts).
func (st *Store) Save(key string, expect uint64, payload []byte) (uint64, error) {
	newest, gens, err := st.scan(key)
	if err != nil {
		return 0, err
	}
	if newest != expect {
		return 0, fmt.Errorf("%w: key %q at generation %d, caller expected %d", ErrStale, key, newest, expect)
	}
	gen := expect + 1

	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s %d %d %08x %d\n",
		envelopeMagic, EnvelopeVersion, gen, crc32.ChecksumIEEE(payload), len(payload))
	buf.Write(payload)

	tmp := filepath.Join(st.dir, encodeKey(key)+".tmp")
	final := filepath.Join(st.dir, genFile(key, gen))
	f, err := st.fs.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("ckpt: save %q: %w", key, err)
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return 0, fmt.Errorf("ckpt: save %q: %w", key, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, fmt.Errorf("ckpt: save %q: %w", key, err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("ckpt: save %q: %w", key, err)
	}
	if err := st.fs.Rename(tmp, final); err != nil {
		return 0, fmt.Errorf("ckpt: save %q: %w", key, err)
	}
	st.prune(key, gen, gens)
	return gen, nil
}

// Restore returns the payload of the newest intact generation of key and its
// generation number. Corrupt or torn generations are skipped (newest first);
// if none survives, the error wraps ErrNoCheckpoint.
func (st *Store) Restore(key string) ([]byte, uint64, error) {
	_, gens, err := st.scan(key)
	if err != nil {
		return nil, 0, err
	}
	if len(gens) == 0 {
		return nil, 0, fmt.Errorf("%w: key %q has no generations", ErrNoCheckpoint, key)
	}
	var detail []string
	for i := len(gens) - 1; i >= 0; i-- {
		gen := gens[i]
		raw, err := st.fs.ReadFile(filepath.Join(st.dir, genFile(key, gen)))
		if err != nil {
			detail = append(detail, fmt.Sprintf("generation %d: %v", gen, err))
			continue
		}
		payload, err := decodeEnvelope(raw, gen)
		if err != nil {
			detail = append(detail, fmt.Sprintf("generation %d: %v", gen, err))
			continue
		}
		return payload, gen, nil
	}
	return nil, 0, fmt.Errorf("%w: key %q: %s", ErrNoCheckpoint, key, strings.Join(detail, "; "))
}

// Generations lists key's on-disk generations, ascending, intact or not.
func (st *Store) Generations(key string) ([]uint64, error) {
	_, gens, err := st.scan(key)
	return gens, err
}

// scan lists key's generation files. newest is 0 when none exist.
func (st *Store) scan(key string) (newest uint64, gens []uint64, err error) {
	names, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return 0, nil, fmt.Errorf("ckpt: scan %q: %w", key, err)
	}
	prefix := encodeKey(key) + "."
	for _, name := range names {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, fileSuffix) {
			continue
		}
		mid := name[len(prefix) : len(name)-len(fileSuffix)]
		gen, perr := strconv.ParseUint(mid, 10, 64)
		if perr != nil {
			continue // foreign or temp file; never trusted
		}
		gens = append(gens, gen)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	if n := len(gens); n > 0 {
		newest = gens[n-1]
	}
	return newest, gens, nil
}

// prune removes generations older than the keepGenerations newest. gens is
// the listing Save took before it wrote newest, the one generation added
// since, so no second listing is needed. Removal failures are ignored: an
// unremovable stale generation costs disk, not correctness (restore prefers
// newer generations).
func (st *Store) prune(key string, newest uint64, gens []uint64) {
	for _, gen := range gens {
		if gen+keepGenerations <= newest {
			st.fs.Remove(filepath.Join(st.dir, genFile(key, gen))) //nolint:errcheck
		}
	}
}

func decodeEnvelope(raw []byte, wantGen uint64) ([]byte, error) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, errors.New("truncated header")
	}
	fields := strings.Fields(string(raw[:nl]))
	if len(fields) != 5 || fields[0] != envelopeMagic {
		return nil, errors.New("malformed header")
	}
	version, err := strconv.Atoi(fields[1])
	if err != nil || version != EnvelopeVersion {
		return nil, fmt.Errorf("envelope version %q, this build reads %d", fields[1], EnvelopeVersion)
	}
	gen, err := strconv.ParseUint(fields[2], 10, 64)
	if err != nil || gen != wantGen {
		return nil, fmt.Errorf("header generation %q does not match file name generation %d", fields[2], wantGen)
	}
	sum, err := strconv.ParseUint(fields[3], 16, 32)
	if err != nil {
		return nil, errors.New("malformed checksum")
	}
	length, err := strconv.Atoi(fields[4])
	if err != nil || length < 0 {
		return nil, errors.New("malformed length")
	}
	payload := raw[nl+1:]
	if len(payload) != length {
		return nil, fmt.Errorf("payload %d bytes, header says %d (torn write)", len(payload), length)
	}
	if crc32.ChecksumIEEE(payload) != uint32(sum) {
		return nil, errors.New("checksum mismatch (corrupt payload)")
	}
	return payload, nil
}

func genFile(key string, gen uint64) string {
	return fmt.Sprintf("%s.%d%s", encodeKey(key), gen, fileSuffix)
}

// encodeKey percent-encodes a key into a filesystem-safe, injective file
// stem: [A-Za-z0-9._-] pass through (except '%', which always encodes), the
// rest become %XX. Tenant and object names — which may hold separators or
// NULs — survive unambiguously.
func encodeKey(key string) string {
	var b strings.Builder
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}
