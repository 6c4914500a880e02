package program

// Tests for the snap.v2 parse-free restore path: the decoded/deep-verified
// split, the sampling knob, and the corruption story (a damaged record is
// always a miss, never a wrong snapshot).

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"lisa/internal/faultinject"
	"lisa/internal/minij"
	"lisa/internal/store"
)

// TestRestoreDecodedSkipsParse: with deep verification pushed out of
// sampling range, a cold cache restores purely by decoding the frame — no
// compile, no deep verify — and still yields a Verify-clean snapshot with
// all derived artifacts intact.
func TestRestoreDecodedSkipsParse(t *testing.T) {
	st := openStoreT(t)
	built := warmStore(t, st, testSource)

	cold := NewCache(8)
	cold.SetStore(st)
	cold.SetDeepVerifyEvery(1 << 30)
	snap, err := cold.Load(testSource)
	if err != nil {
		t.Fatal(err)
	}
	stats := cold.Stats()
	if stats.Compiles != 0 || stats.Restores != 1 || stats.RestoresDecoded != 1 || stats.RestoresDeepVerified != 0 {
		t.Fatalf("stats = %+v, want exactly one decoded restore", stats)
	}
	if snap.CanonHash() != built.CanonHash() {
		t.Fatal("decoded canon digest differs from built")
	}
	if snap.MethodCanon("PrepProcessor.processCreate") != built.MethodCanon("PrepProcessor.processCreate") {
		t.Fatal("decoded method canon differs")
	}
	if err := snap.Verify(); err != nil {
		t.Fatalf("decoded snapshot fails Verify: %v", err)
	}
	ts := cold.TierStats()
	if ts.DiskHitsDecoded != 1 || ts.DiskHitsVerified != 0 {
		t.Fatalf("tier stats = %+v, want the decoded/verified split", ts)
	}
}

// TestDeepVerifySampling: every Nth restore runs the full re-parse
// comparison; the rest decode.
func TestDeepVerifySampling(t *testing.T) {
	st := openStoreT(t)
	sources := make([]string, 4)
	for i := range sources {
		sources[i] = variant(i)
		warmStore(t, st, sources[i])
	}

	cold := NewCache(8)
	cold.SetStore(st)
	cold.SetDeepVerifyEvery(2)
	for _, src := range sources {
		if _, err := cold.Load(src); err != nil {
			t.Fatal(err)
		}
	}
	stats := cold.Stats()
	if stats.Compiles != 0 || stats.Restores != 4 || stats.RestoresDecoded != 2 || stats.RestoresDeepVerified != 2 {
		t.Fatalf("stats = %+v, want 2 decoded + 2 deep-verified of 4 restores", stats)
	}
}

// TestDeepVerifyAlwaysUnderFaultinject: an armed plan (whatever its rules)
// forces the deep path on every restore, preserving the chaos-run
// corruption-detection cadence from PR 7.
func TestDeepVerifyAlwaysUnderFaultinject(t *testing.T) {
	st := openStoreT(t)
	warmStore(t, st, testSource)

	cold := NewCache(8)
	cold.SetStore(st)
	faultinject.Arm(faultinject.NewPlan(7).Set("unrelated.point", faultinject.Panic))
	defer faultinject.Disarm()
	if _, err := cold.Load(testSource); err != nil {
		t.Fatal(err)
	}
	if stats := cold.Stats(); stats.RestoresDeepVerified != 1 || stats.RestoresDecoded != 0 {
		t.Fatalf("stats = %+v, want an armed restore to deep-verify", stats)
	}
}

// TestCorruptASTDegradesToMiss: a bit flip inside the persisted frame
// (which the store's CRC cannot see — the flipped frame was written whole)
// is caught by the codec's own checksum; the load degrades to a recompute
// miss and the result is correct.
func TestCorruptASTDegradesToMiss(t *testing.T) {
	st := openStoreT(t)
	built := warmStore(t, st, testSource)

	raw, ok := st.Get(snapNamespace, Hash(testSource))
	if !ok {
		t.Fatal("no persisted record")
	}
	flipped := append([]byte{}, raw...)
	flipped[len(flipped)/2] ^= 0x40
	st.Put(snapNamespace, Hash(testSource), flipped)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	cold := NewCache(8)
	cold.SetStore(st)
	cold.SetDeepVerifyEvery(1 << 30) // decode path only: the codec checksum must catch it
	snap, err := cold.Load(testSource)
	if err != nil {
		t.Fatal(err)
	}
	stats := cold.Stats()
	if stats.Restores != 0 || stats.Compiles != 1 {
		t.Fatalf("stats = %+v, want a recompute miss", stats)
	}
	if snap.CanonHash() != built.CanonHash() {
		t.Fatal("fallback snapshot canon digest differs")
	}
	if err := snap.Verify(); err != nil {
		t.Fatalf("fallback snapshot fails Verify: %v", err)
	}
}

// TestDeepVerifyCatchesConsistentForgery: a well-formed frame of a
// different program under the key passes every codec check by
// construction; the deep-verify pass (forced via the knob) re-derives from
// source and refuses it.
func TestDeepVerifyCatchesConsistentForgery(t *testing.T) {
	other, err := Compile(variant(1))
	if err != nil {
		t.Fatal(err)
	}
	forged, err := minij.EncodeProgram(other)
	if err != nil {
		t.Fatal(err)
	}
	st := openStoreT(t)
	st.Put(snapNamespace, Hash(testSource), forged)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	cold := NewCache(8)
	cold.SetStore(st)
	cold.SetDeepVerifyEvery(1) // deep-verify every restore
	snap, err := cold.Load(testSource)
	if err != nil {
		t.Fatal(err)
	}
	if stats := cold.Stats(); stats.Restores != 0 || stats.Compiles != 1 {
		t.Fatalf("stats = %+v, want the forged record refused", stats)
	}
	if err := snap.Verify(); err != nil {
		t.Fatalf("fallback snapshot fails Verify: %v", err)
	}
}

// TestDecodedRestoreFasterThanReparse is the enforced form of the E-D2
// claim: on a program large enough that front-end work dominates the
// shared per-restore overhead (store read, decode, render), the decode
// path must beat deep-verify-every-restore (which re-parses, the PR-7
// behavior) by at least 2× — a deliberately loose floor under the ~3.5×
// measured by BenchmarkSnapshotReuse/warmstore-{decoded,reparse}, so a
// loaded CI box does not flake but a restore-path regression to re-parse
// cost fails.
func TestDecodedRestoreFasterThanReparse(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&sb, `
class Tree%[1]d {
	map nodes;

	void create(string path, int mode) {
		if (mode > 2) {
			nodes.put(path, mode);
		} else {
			nodes.put(path, mode - 1);
		}
	}

	void route(string path, int mode) {
		if (mode == 1) {
			create(path, mode);
		} else {
			create(path, mode + 1);
		}
	}
}
`, i)
	}
	src := sb.String()
	st := openStoreT(t)
	warmStore(t, st, src)

	// restore loads src once from the store through a fresh cache, decoded
	// or re-parsed, and returns its wall clock.
	restore := func(every int, wantDecoded bool) time.Duration {
		c := NewCache(8)
		c.SetStore(st)
		c.SetDeepVerifyEvery(every)
		start := time.Now()
		if _, err := c.Load(src); err != nil {
			t.Fatal(err)
		}
		d := time.Since(start)
		stats := c.Stats()
		if stats.Compiles != 0 || stats.Restores != 1 ||
			(stats.RestoresDecoded == 1) != wantDecoded {
			t.Fatalf("stats = %+v, want restore with decoded=%v", stats, wantDecoded)
		}
		return d
	}
	// The two kinds alternate, so a burst of load from another process
	// lands on both sides, and each side keeps its best of seven.
	var decoded, reparse time.Duration
	for trial := 0; trial < 7; trial++ {
		if d := restore(1<<30, true); decoded == 0 || d < decoded {
			decoded = d
		}
		if d := restore(1, false); reparse == 0 || d < reparse {
			reparse = d
		}
	}
	if decoded*2 > reparse {
		t.Errorf("decoded restore %v is not >=2x faster than re-parse restore %v", decoded, reparse)
	}
}

// TestStoreReadCorruptionDegradesToMiss: a store.read fault flips bytes in
// the record frame on its way off disk. The store's CRC (and, for anything
// that slipped past it, the codec's checksum) must turn that into a
// recompute miss with a correct, Verify-clean result — the chaos contract
// for the parse-free restore path.
func TestStoreReadCorruptionDegradesToMiss(t *testing.T) {
	st := openStoreT(t)
	built := warmStore(t, st, testSource)

	cold := NewCache(8)
	cold.SetStore(st)
	faultinject.Arm(faultinject.NewPlan(1).Set(store.FaultPointRead, faultinject.Corrupt))
	defer faultinject.Disarm()
	snap, err := cold.Load(testSource)
	if err != nil {
		t.Fatal(err)
	}
	if stats := cold.Stats(); stats.Restores != 0 || stats.Compiles != 1 {
		t.Fatalf("stats = %+v, want a recompute miss under read corruption", stats)
	}
	if snap.CanonHash() != built.CanonHash() {
		t.Fatal("fallback snapshot canon digest differs")
	}
	if err := snap.Verify(); err != nil {
		t.Fatalf("fallback snapshot fails Verify: %v", err)
	}
}

// parentRecord assembles the snap.v2 value of the previous record format
// for snap: an "MJSR" envelope, version 2, of uvarint-length-prefixed
// fields — the canon, its digest, the shape, the per-method canons sorted
// by name — followed by the codec frame.
func parentRecord(snap *Snapshot, frame []byte) []byte {
	rec := append([]byte("MJSR"), 0, 2)
	str := func(s string) {
		rec = binary.AppendUvarint(rec, uint64(len(s)))
		rec = append(rec, s...)
	}
	canon := minij.FormatProgram(snap.Program())
	str(canon)
	str(Hash(canon))
	str(snap.Shape())
	var names []string
	for _, m := range snap.Program().Methods() {
		names = append(names, m.FullName())
	}
	sort.Strings(names)
	rec = binary.AppendUvarint(rec, uint64(len(names)))
	for _, name := range names {
		str(name)
		str(snap.MethodCanon(name))
	}
	str(string(frame))
	return rec
}

// TestParentRecordMigrates: the record is the bare codec frame, and a
// record the previous format left under the same key reads as absent —
// the snapshot compiles once and rewrites the key with its frame, and the
// next cold cache restores that with no compile.
func TestParentRecordMigrates(t *testing.T) {
	st := openStoreT(t)
	built := warmStore(t, st, testSource)
	frame, err := minij.EncodeProgram(built.Program())
	if err != nil {
		t.Fatal(err)
	}
	if raw, ok := st.Get(snapNamespace, Hash(testSource)); !ok || string(raw) != string(frame) {
		t.Fatal("the persisted record is not the program's codec frame")
	}

	st.Put(snapNamespace, Hash(testSource), parentRecord(built, frame))
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	recompile := NewCache(8)
	recompile.SetStore(st)
	if _, err := recompile.Load(testSource); err != nil {
		t.Fatal(err)
	}
	if stats := recompile.Stats(); stats.Compiles != 1 || stats.Restores != 0 {
		t.Fatalf("stats = %+v, want the parent-format record to compile once", stats)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if raw, ok := st.Get(snapNamespace, Hash(testSource)); !ok || string(raw) != string(frame) {
		t.Fatal("recompile did not rewrite the key with the codec frame")
	}
	restore := NewCache(8)
	restore.SetStore(st)
	if _, err := restore.Load(testSource); err != nil {
		t.Fatal(err)
	}
	if stats := restore.Stats(); stats.Compiles != 0 || stats.Restores != 1 {
		t.Fatalf("stats = %+v, want the rewritten record restored", stats)
	}
}
