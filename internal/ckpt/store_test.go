package ckpt

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
)

func newTestStore(t *testing.T) (*Store, *FaultFS, *MemFS) {
	t.Helper()
	mem := NewMemFS()
	ffs := NewFaultFS(mem)
	st, err := NewStore(ffs, "state")
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return st, ffs, mem
}

func mustSave(t *testing.T, st *Store, key string, expect uint64, payload string) uint64 {
	t.Helper()
	gen, err := st.Save(key, expect, []byte(payload))
	if err != nil {
		t.Fatalf("Save(%q, %d): %v", key, expect, err)
	}
	if gen != expect+1 {
		t.Fatalf("Save(%q, %d) = generation %d, want %d", key, expect, gen, expect+1)
	}
	return gen
}

func mustRestore(t *testing.T, st *Store, key, want string, wantGen uint64) {
	t.Helper()
	got, gen, err := st.Restore(key)
	if err != nil {
		t.Fatalf("Restore(%q): %v", key, err)
	}
	if string(got) != want || gen != wantGen {
		t.Fatalf("Restore(%q) = %q gen %d, want %q gen %d", key, got, gen, want, wantGen)
	}
}

func TestStoreRoundTripAndCAS(t *testing.T) {
	st, _, _ := newTestStore(t)

	if _, _, err := st.Restore("a/b"); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Restore on fresh key: %v, want ErrNoCheckpoint", err)
	}
	g1 := mustSave(t, st, "a/b", 0, "one")
	mustRestore(t, st, "a/b", "one", g1)
	g2 := mustSave(t, st, "a/b", g1, "two")
	mustRestore(t, st, "a/b", "two", g2)

	// CAS: a stale writer (still at generation 1, or at 0) is refused and
	// writes nothing.
	if _, err := st.Save("a/b", g1, []byte("stale")); !errors.Is(err, ErrStale) {
		t.Fatalf("stale Save: %v, want ErrStale", err)
	}
	if _, err := st.Save("a/b", 0, []byte("stale")); !errors.Is(err, ErrStale) {
		t.Fatalf("stale Save from 0: %v, want ErrStale", err)
	}
	mustRestore(t, st, "a/b", "two", g2)

	// Keys with separators and spaces stay distinct and restorable.
	mustSave(t, st, "a b/c", 0, "other")
	mustRestore(t, st, "a b/c", "other", 1)
	mustRestore(t, st, "a/b", "two", g2)
}

func TestStorePrunesOldGenerations(t *testing.T) {
	st, _, _ := newTestStore(t)
	var gen uint64
	for i := 0; i < 5; i++ {
		gen = mustSave(t, st, "k", gen, fmt.Sprintf("v%d", i+1))
	}
	gens, err := st.Generations("k")
	if err != nil {
		t.Fatalf("Generations: %v", err)
	}
	if len(gens) != keepGenerations || gens[len(gens)-1] != 5 {
		t.Fatalf("after 5 saves: generations %v, want the %d newest ending at 5", gens, keepGenerations)
	}
	mustRestore(t, st, "k", "v5", 5)
}

// TestStoreTornWriteFallsBack: a write torn mid-payload (prefix persisted,
// modelling a crash during the temp write that still got renamed by a buggy
// layer — here we tear the final bytes directly) is detected by the
// length/checksum and restore falls back to the previous intact generation.
func TestStoreTornWriteFallsBack(t *testing.T) {
	st, ffs, mem := newTestStore(t)
	mustSave(t, st, "k", 0, "good payload")

	// Tear the generation-2 write: the prefix lands in the temp file, then
	// force the rename through by hand, as a lying filesystem would.
	ffs.Torn = true
	ffs.FailN(OpWrite, 1, ErrCrashed)
	if _, err := st.Save("k", 1, []byte("newer payload")); err == nil {
		t.Fatal("torn Save unexpectedly succeeded")
	}
	ffs.Torn = false
	ffs.Arm(nil)
	tmp := filepath.Join("state", "k.tmp")
	if err := mem.Rename(tmp, filepath.Join("state", "k.2.ckpt")); err != nil {
		t.Fatalf("forcing torn file into place: %v", err)
	}

	// The torn generation 2 must be rejected, generation 1 restored.
	mustRestore(t, st, "k", "good payload", 1)
}

// TestStoreCorruptPayloadFallsBack: a bit flip in the newest generation fails
// the checksum; restore falls back, and with every generation corrupt it
// reports loudly instead of returning bytes.
func TestStoreCorruptPayloadFallsBack(t *testing.T) {
	st, _, mem := newTestStore(t)
	mustSave(t, st, "k", 0, "gen one")
	mustSave(t, st, "k", 1, "gen two")

	flip := func(gen uint64) {
		path := filepath.Join("state", fmt.Sprintf("k.%d.ckpt", gen))
		raw, err := mem.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		raw[len(raw)-1] ^= 0x40
		mem.files[path] = raw
	}
	flip(2)
	mustRestore(t, st, "k", "gen one", 1)
	flip(1)
	if _, _, err := st.Restore("k"); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("all-corrupt Restore: %v, want ErrNoCheckpoint", err)
	}
}

// TestStoreCrashPoints: a crash injected at every step of the save path
// leaves the previous generation restorable — the atomic-rename discipline's
// whole point. A crash after the rename is indistinguishable from success.
// The store holds two generations before the save, so the save's prune has
// one to remove.
func TestStoreCrashPoints(t *testing.T) {
	cases := []struct {
		name      string
		op        Op
		committed bool // the new generation survives the crash
	}{
		{"readdir", OpReadDir, false}, // the one listing, before anything is written
		{"create", OpCreate, false},
		{"write", OpWrite, false},
		{"sync", OpSync, false},
		{"rename", OpRename, false},
		{"remove-after", OpRemove, true}, // prune; the rename already happened
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, ffs, _ := newTestStore(t)
			mustSave(t, st, "k", 0, "older")
			mustSave(t, st, "k", 1, "before")
			ffs.FailN(tc.op, 1, ErrCrashed)
			reached := ffs.Ops[tc.op]
			_, err := st.Save("k", 2, []byte("after"))
			ffs.Arm(nil)
			if ffs.Ops[tc.op] == reached {
				t.Fatalf("the save never reached a %s", tc.op)
			}
			if tc.committed {
				// prune failures are ignored; the save itself succeeded
				if err != nil {
					t.Fatalf("Save with post-rename crash: %v", err)
				}
				mustRestore(t, st, "k", "after", 3)
				return
			}
			if err == nil {
				t.Fatalf("Save with %s crash unexpectedly succeeded", tc.op)
			}
			mustRestore(t, st, "k", "before", 2)
			// The store recovers: the next save (still from generation 2)
			// works and wins.
			mustSave(t, st, "k", 2, "retry")
			mustRestore(t, st, "k", "retry", 3)
		})
	}
}

// TestStoreNoSpace: ENOSPC on write or sync fails the save loudly, keeps the
// previous generation, and clears once space returns.
func TestStoreNoSpace(t *testing.T) {
	st, ffs, _ := newTestStore(t)
	mustSave(t, st, "k", 0, "v1")
	for _, op := range []Op{OpWrite, OpSync} {
		ffs.FailN(op, 1, ErrNoSpace)
		if _, err := st.Save("k", 1, []byte("v2")); !errors.Is(err, ErrNoSpace) {
			t.Fatalf("Save under %s ENOSPC: %v, want ErrNoSpace", op, err)
		}
		ffs.Arm(nil)
		mustRestore(t, st, "k", "v1", 1)
	}
	mustSave(t, st, "k", 1, "v2")
	mustRestore(t, st, "k", "v2", 2)
}

// TestStoreAnyFailPrefix: under an adversarial schedule that fails the i-th
// filesystem operation of a run of five saves, for every i the run reaches,
// any prefix of checkpoint attempts leaves the store restorable to the
// newest successfully renamed generation — the crash-restart contract,
// enumerated exhaustively at the store level. The last schedule fails
// nothing.
func TestStoreAnyFailPrefix(t *testing.T) {
	const saves = 5
	payload := func(g uint64) string { return fmt.Sprintf("payload-%d", g) }
	// run makes the saves against a fresh store, crashing its fail-th
	// operation (none when fail is 0), and returns how many operations the
	// saves made.
	run := func(fail int) int {
		mem := NewMemFS()
		ffs := NewFaultFS(mem)
		ffs.Torn = true // worst case: every failed write tears
		st, err := NewStore(ffs, "state")
		if err != nil {
			t.Fatalf("NewStore: %v", err)
		}
		total := 0
		ffs.Arm(func(Op, string) error {
			total++
			if total == fail {
				return ErrCrashed
			}
			return nil
		})
		var lastGood, gen uint64
		for i := 0; i < saves; i++ {
			g, err := st.Save("k", gen, []byte(payload(gen+1)))
			if err == nil {
				gen, lastGood = g, g
				continue
			}
			// A failed save may still have renamed (crash in prune): trust
			// only what Restore reports, like a restarted process would.
			ffs.Arm(nil)
			got, g2, rerr := st.Restore("k")
			if lastGood == 0 {
				if rerr == nil && g2 > 0 && string(got) == payload(g2) {
					lastGood, gen = g2, g2 // rename beat the crash
					continue
				}
				if !errors.Is(rerr, ErrNoCheckpoint) {
					t.Fatalf("fail=%d: fresh key restore: %v", fail, rerr)
				}
				continue
			}
			if rerr != nil {
				t.Fatalf("fail=%d: restore after failed save: %v", fail, rerr)
			}
			if g2 < lastGood || string(got) != payload(g2) {
				t.Fatalf("fail=%d: restored gen %d payload %q, want >= gen %d", fail, g2, got, lastGood)
			}
			lastGood, gen = g2, g2
		}
		ops := total
		ffs.Arm(nil)
		if lastGood > 0 {
			mustRestore(t, st, "k", payload(lastGood), lastGood)
		}
		return ops
	}
	ops := run(0)
	t.Logf("%d saves make %d filesystem operations; each is crashed in turn", saves, ops)
	if ops < 5*saves {
		t.Fatalf("five saves made %d filesystem operations, want at least %d", ops, 5*saves)
	}
	for fail := 1; fail <= ops+1; fail++ {
		run(fail)
	}
}

func TestEncodeKeyInjective(t *testing.T) {
	keys := []string{"a/b", "a%2Fb", "a b", "a_b", "a.b", "a", "%", "日本"}
	seen := map[string]string{}
	for _, k := range keys {
		e := encodeKey(k)
		if prev, dup := seen[e]; dup {
			t.Fatalf("encodeKey collision: %q and %q both encode to %q", prev, k, e)
		}
		seen[e] = k
	}
}
