package program

// Tests for the snap.v2 parse-free restore path: the decoded/deep-verified
// split, the sampling knob, and the corruption story (a damaged record is
// always a miss, never a wrong snapshot).

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"lisa/internal/faultinject"
	"lisa/internal/store"
)

// TestRestoreDecodedSkipsParse: with deep verification pushed out of
// sampling range, a cold cache restores purely by decode + digest — no
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
	if snap.Canon() != built.Canon() || snap.CanonHash() != built.CanonHash() {
		t.Fatal("decoded canon differs from built canon")
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

// TestCorruptASTDegradesToMiss: a bit flip inside the persisted binary AST
// (which the store's CRC cannot see — the JSON record is intact) is caught
// by the codec's own checksum; the load degrades to a recompute miss and
// the result is correct.
func TestCorruptASTDegradesToMiss(t *testing.T) {
	st := openStoreT(t)
	built := warmStore(t, st, testSource)

	raw, ok := st.Get(snapNamespace, Hash(testSource))
	if !ok {
		t.Fatal("no persisted record")
	}
	rec, ok := decodeRecord(raw)
	if !ok {
		t.Fatal("persisted record does not decode")
	}
	rec.AST[len(rec.AST)/2] ^= 0x40
	st.Put(snapNamespace, Hash(testSource), encodeRecord(rec))
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
	if snap.Canon() != built.Canon() {
		t.Fatal("fallback snapshot canon differs")
	}
	if err := snap.Verify(); err != nil {
		t.Fatalf("fallback snapshot fails Verify: %v", err)
	}
}

// TestDeepVerifyCatchesConsistentForgery: a record whose canon and digest
// were rewritten together passes the cheap check by construction; the
// deep-verify pass (forced via the knob) still re-derives from source and
// refuses it.
func TestDeepVerifyCatchesConsistentForgery(t *testing.T) {
	st := openStoreT(t)
	warmStore(t, st, testSource)

	raw, ok := st.Get(snapNamespace, Hash(testSource))
	if !ok {
		t.Fatal("no persisted record")
	}
	rec, ok := decodeRecord(raw)
	if !ok {
		t.Fatal("persisted record does not decode")
	}
	rec.Canon += "\n// drifted"
	rec.CanonSHA = Hash(rec.Canon)
	st.Put(snapNamespace, Hash(testSource), encodeRecord(rec))
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
// shared per-restore overhead (store read, digest), the decode path must
// beat deep-verify-every-restore (which re-parses, the PR-7 behavior) by
// at least 2× — a deliberately loose floor under the ~3.7× measured by
// BenchmarkSnapshotReuse/warmstore-{decoded,reparse}, so a loaded CI box
// does not flake but a restore-path regression to re-parse cost fails.
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

	measure := func(every int, wantDecoded bool) time.Duration {
		var best time.Duration
		for trial := 0; trial < 3; trial++ {
			c := NewCache(8)
			c.SetStore(st)
			c.SetDeepVerifyEvery(every)
			start := time.Now()
			if _, err := c.Load(src); err != nil {
				t.Fatal(err)
			}
			d := time.Since(start)
			if best == 0 || d < best {
				best = d
			}
			stats := c.Stats()
			if stats.Compiles != 0 || stats.Restores != 1 ||
				(stats.RestoresDecoded == 1) != wantDecoded {
				t.Fatalf("stats = %+v, want restore with decoded=%v", stats, wantDecoded)
			}
		}
		return best
	}
	decoded := measure(1<<30, true)
	reparse := measure(1, false)
	if decoded*2 > reparse {
		t.Errorf("decoded restore %v is not >=2x faster than re-parse restore %v", decoded, reparse)
	}
}

// TestStoreReadCorruptionDegradesToMiss: a store.read fault flips bytes in
// the record frame on its way off disk. The store's CRC (and, for anything
// that slipped past it, the restore path's digest/codec checks) must turn
// that into a recompute miss with a correct, Verify-clean result — the
// chaos contract for the parse-free restore path.
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
	if snap.Canon() != built.Canon() {
		t.Fatal("fallback snapshot canon differs")
	}
	if err := snap.Verify(); err != nil {
		t.Fatalf("fallback snapshot fails Verify: %v", err)
	}
}

// previousVersion returns a copy of an encoded record whose version field
// holds the previous recVersion — what a store written before the last
// envelope change holds under the same key.
func previousVersion(raw []byte) []byte {
	old := append([]byte{}, raw...)
	binary.BigEndian.PutUint16(old[4:6], recVersion-1)
	return old
}

// TestRecordEnvelopeRoundTrip: the binary record envelope is deterministic
// and lossless, and any malformed envelope (truncation, garbage header,
// the previous version) is rejected rather than misread. A record of the
// previous version reads as absent: the snapshot compiles once, rewrites
// its record under the same key, and the next cold cache restores it.
func TestRecordEnvelopeRoundTrip(t *testing.T) {
	st := openStoreT(t)
	warmStore(t, st, testSource)
	raw, ok := st.Get(snapNamespace, Hash(testSource))
	if !ok {
		t.Fatal("no persisted record")
	}
	rec, ok := decodeRecord(raw)
	if !ok {
		t.Fatal("persisted record does not decode")
	}
	again := encodeRecord(rec)
	if string(again) != string(raw) {
		t.Fatal("re-encoding a decoded record changed its bytes")
	}
	for cut := 0; cut < len(raw); cut++ {
		if _, ok := decodeRecord(raw[:cut]); ok {
			t.Fatalf("truncated record (%d of %d bytes) decoded", cut, len(raw))
		}
	}
	garbage := append([]byte{}, raw...)
	garbage[0] = 'X'
	if _, ok := decodeRecord(garbage); ok {
		t.Fatal("bad magic decoded")
	}

	old := previousVersion(raw)
	if _, ok := decodeRecord(old); ok {
		t.Fatal("previous-version record decoded")
	}
	st.Put(snapNamespace, Hash(testSource), old)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	recompile := NewCache(8)
	recompile.SetStore(st)
	if _, err := recompile.Load(testSource); err != nil {
		t.Fatal(err)
	}
	if stats := recompile.Stats(); stats.Compiles != 1 || stats.Restores != 0 {
		t.Fatalf("stats = %+v, want the previous-version record to compile once", stats)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get(snapNamespace, Hash(testSource)); !ok || string(got) != string(raw) {
		t.Fatal("recompile did not rewrite the current record under the same key")
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

// FuzzDecodeRecord: decodeRecord never panics on arbitrary bytes, and any
// input it accepts re-encodes to bytes that decode to an equal record.
// Seeds: a real record, that record cut in half, and its previous-version
// copy.
func FuzzDecodeRecord(f *testing.F) {
	st := openStoreT(f)
	warmStore(f, st, testSource)
	raw, ok := st.Get(snapNamespace, Hash(testSource))
	if !ok {
		f.Fatal("no persisted record")
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add(previousVersion(raw))
	f.Fuzz(func(t *testing.T, in []byte) {
		rec, ok := decodeRecord(in)
		if !ok {
			return
		}
		again, ok := decodeRecord(encodeRecord(rec))
		if !ok {
			t.Fatal("re-encoded record does not decode")
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("re-encoded record decodes differently:\n got %+v\nwant %+v", again, rec)
		}
	})
}
