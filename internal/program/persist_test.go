package program

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lisa/internal/callgraph"
	"lisa/internal/corpus"
	"lisa/internal/faultinject"
	"lisa/internal/store"
)

func openStoreT(t testing.TB) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// warmStore compiles source into a store-attached cache — the build
// writes the snapshot's record — then flushes.
func warmStore(t testing.TB, st *store.Store, source string) *Snapshot {
	t.Helper()
	warm := NewCache(8)
	warm.SetStore(st)
	snap, err := warm.Load(source)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	return snap
}

// edgeLines renders a call graph's edges in callgraph.Build order: callers
// in program order, each caller's call sites in AST walk order.
func edgeLines(g *callgraph.Graph) []string {
	var lines []string
	for _, caller := range g.Prog.Methods() {
		for _, e := range g.Callees[caller] {
			lines = append(lines, fmt.Sprintf("%s -> %s @%s dynamic=%v",
				e.Caller.FullName(), e.Callee.FullName(), e.Call.Pos(), e.Dynamic))
		}
	}
	return lines
}

// TestSnapshotRestore: a cold cache on a warm store restores the snapshot
// without compiling — zero Compiles, the built canon digest, Verify-clean —
// and builds its call graph once, from the decoded AST.
func TestSnapshotRestore(t *testing.T) {
	st := openStoreT(t)
	built := warmStore(t, st, testSource)

	cold := NewCache(8)
	cold.SetStore(st)
	snap, err := cold.Load(testSource)
	if err != nil {
		t.Fatal(err)
	}
	if stats := cold.Stats(); stats.Compiles != 0 || stats.Restores != 1 {
		t.Fatalf("cold stats = %+v, want 0 compiles and 1 restore", stats)
	}
	if snap.CanonHash() != built.CanonHash() {
		t.Fatal("restored canon digest differs from built")
	}
	if err := snap.Verify(); err != nil {
		t.Fatalf("restored snapshot fails Verify: %v", err)
	}
	if snap.Graph() == nil {
		t.Fatal("restored snapshot has no graph")
	}
	if stats := cold.Stats(); stats.Compiles != 0 || stats.GraphBuilds != 1 {
		t.Fatalf("cold graph stats = %+v, want 0 compiles and 1 graph build", stats)
	}
}

// corpusPrograms lists every distinct program the corpus gates: each
// case's head and every ticket version, alone and with the case's tests
// appended as the engine appends them, keeping the ones that compile.
func corpusPrograms() []string {
	seen := map[string]bool{}
	var out []string
	for _, cs := range corpus.Load().Cases {
		versions := []string{cs.Head()}
		for _, tk := range cs.Tickets {
			versions = append(versions, tk.BuggySource, tk.FixedSource)
		}
		for _, v := range versions {
			withTests := v
			for _, tc := range cs.Tests {
				withTests += "\n" + tc.Source
			}
			for _, src := range []string{v, withTests} {
				if seen[src] {
					continue
				}
				seen[src] = true
				if _, err := Compile(src); err == nil {
					out = append(out, src)
				}
			}
		}
	}
	return out
}

// TestRestoredEqualsCompiled: over every distinct corpus program, a
// snapshot restored on the decode path derives exactly what the compiled
// one does — canon digest, shape, every method digest, and call-graph
// edges in order — from the decoded AST alone.
func TestRestoredEqualsCompiled(t *testing.T) {
	sources := corpusPrograms()
	st := openStoreT(t)
	warm := NewCache(len(sources))
	warm.SetStore(st)
	built := make([]*Snapshot, len(sources))
	for i, src := range sources {
		snap, err := warm.Load(src)
		if err != nil {
			t.Fatal(err)
		}
		built[i] = snap
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	cold := NewCache(len(sources))
	cold.SetStore(st)
	cold.SetDeepVerifyEvery(1 << 30)
	edges := 0
	for i, src := range sources {
		snap, err := cold.Load(src)
		if err != nil {
			t.Fatal(err)
		}
		want := built[i]
		if snap.CanonHash() != want.CanonHash() {
			t.Fatalf("program %d: restored canon digest differs", i)
		}
		if snap.Shape() != want.Shape() {
			t.Fatalf("program %d: restored shape differs", i)
		}
		methods := want.Program().Methods()
		if got := snap.Program().Methods(); len(got) != len(methods) {
			t.Fatalf("program %d: restored %d methods, compiled %d", i, len(got), len(methods))
		}
		for _, m := range methods {
			if snap.MethodDigest(m) != want.MethodDigest(m) {
				t.Fatalf("program %d: restored method digest of %s differs", i, m.FullName())
			}
		}
		got, wantEdges := edgeLines(snap.Graph()), edgeLines(want.Graph())
		if fmt.Sprint(got) != fmt.Sprint(wantEdges) {
			t.Fatalf("program %d: restored graph differs:\n got %q\nwant %q", i, got, wantEdges)
		}
		edges += len(got)
	}
	if stats := cold.Stats(); stats.Compiles != 0 || stats.RestoresDecoded != uint64(len(sources)) {
		t.Fatalf("cold stats = %+v, want %d decoded restores and 0 compiles", stats, len(sources))
	}
	if edges == 0 {
		t.Fatal("no call-graph edges compared")
	}
	t.Logf("%d distinct corpus programs, %d call-graph edges", len(sources), edges)
}

// TestSnapshotWrittenOnce: a snapshot's record is written once, right
// after its front-end build; building its graph writes nothing more, and a
// cold cache that restores it and builds its graph writes nothing at all.
func TestSnapshotWrittenOnce(t *testing.T) {
	st := openStoreT(t)
	c := NewCache(8)
	c.SetStore(st)
	snap, err := c.Load(testSource)
	if err != nil {
		t.Fatal(err)
	}
	snap.Graph()
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if w := c.TierStats().DiskWrites; w != 1 {
		t.Fatalf("load + graph made %d snapshot writes, want 1", w)
	}
	if p := st.Stats().Puts; p != 1 {
		t.Fatalf("load + graph made %d store puts, want 1", p)
	}

	cold := NewCache(8)
	cold.SetStore(st)
	snap, err = cold.Load(testSource)
	if err != nil {
		t.Fatal(err)
	}
	snap.Graph()
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if stats := cold.Stats(); stats.Restores != 1 || stats.GraphBuilds != 1 {
		t.Fatalf("cold stats = %+v, want 1 restore and 1 graph build", stats)
	}
	if w, p := cold.TierStats().DiskWrites, st.Stats().Puts; w != 0 || p != 1 {
		t.Fatalf("restore + graph wrote: %d snapshot writes, %d store puts in total (want 0, 1)", w, p)
	}
}

// reseal recomputes a codec frame's sha256 trailer after a test edits the
// frame, so the edit reaches the checks behind the checksum.
func reseal(frame []byte) []byte {
	sum := sha256.Sum256(frame[:len(frame)-sha256.Size])
	copy(frame[len(frame)-sha256.Size:], sum[:])
	return frame
}

// TestRestoreRejectsTamperedRecord: the codec frame is the record's only
// format layer, so a frame it cannot vouch for — cut short, or re-sealed
// under another codec version or magic — is refused, and the snapshot
// falls back to a full compile.
func TestRestoreRejectsTamperedRecord(t *testing.T) {
	st := openStoreT(t)
	warmStore(t, st, testSource)
	frame, ok := st.Get(snapNamespace, Hash(testSource))
	if !ok {
		t.Fatal("no persisted record")
	}
	version := append([]byte{}, frame...)
	version[5]++ // the low byte of the big-endian codec version
	magic := append([]byte{}, frame...)
	magic[0] = 'X'
	tampered := map[string][]byte{
		"truncated": frame[:len(frame)/2],
		"version":   reseal(version),
		"magic":     reseal(magic),
	}
	for name, raw := range tampered {
		st.Put(snapNamespace, Hash(testSource), raw)
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		cold := NewCache(8)
		cold.SetStore(st)
		snap, err := cold.Load(testSource)
		if err != nil {
			t.Fatal(err)
		}
		if stats := cold.Stats(); stats.Compiles != 1 || stats.Restores != 0 {
			t.Fatalf("%s: stats = %+v, want fallback compile", name, stats)
		}
		if err := snap.Verify(); err != nil {
			t.Fatalf("%s: fallback snapshot fails Verify: %v", name, err)
		}
	}
}

// TestNegativeEntriesNeverPersisted: a compile error is cached in memory
// (negative entry) but must never reach the disk tier.
func TestNegativeEntriesNeverPersisted(t *testing.T) {
	st := openStoreT(t)
	c := NewCache(8)
	c.SetStore(st)
	bad := "class Broken {\n\tvoid f() {\n\t\tundefined_name + 1;\n\t}\n}\n"
	if _, err := c.Load(bad); err == nil {
		t.Fatal("bad source compiled")
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(snapNamespace, Hash(bad)); ok {
		t.Fatal("negative entry reached the disk tier")
	}
	if s := st.Stats(); s.Records != 0 {
		t.Fatalf("store has %d records, want 0", s.Records)
	}
}

// TestArmedRunsNeverPersist: snapshots compiled while a faultinject plan
// is armed (even one whose rules never fire) leave the store untouched.
func TestArmedRunsNeverPersist(t *testing.T) {
	st := openStoreT(t)
	dir := st.Dir()
	c := NewCache(8)
	c.SetStore(st)

	faultinject.Arm(faultinject.NewPlan(7).Set("unrelated.point", faultinject.Panic))
	defer faultinject.Disarm()
	snap, err := c.Load(testSource)
	if err != nil {
		t.Fatal(err)
	}
	snap.Graph()
	faultinject.Disarm()
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "store.log")); err == nil {
		b, _ := os.ReadFile(filepath.Join(dir, "store.log"))
		if len(b) != 0 {
			t.Fatalf("armed run wrote %d bytes to the store", len(b))
		}
	}
}

// TestCorruptedASTNeverPersisted: the program.load Corrupt point damages
// the AST after the canon is captured, and the build persists right after.
// The plan is store-scoped, so store.Put would accept the write: the
// persist path's own Verify must detect the mismatch and refuse it.
func TestCorruptedASTNeverPersisted(t *testing.T) {
	st := openStoreT(t)
	c := NewCache(8)
	c.SetStore(st)

	faultinject.Arm(faultinject.NewPlan(7).ScopeStore().Set("program.load", faultinject.Corrupt))
	_, err := c.Load(testSource)
	faultinject.Disarm()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(snapNamespace, Hash(testSource)); ok {
		t.Fatal("corrupted snapshot reached the disk tier")
	}
}

// TestRestoredCorruptionCaughtByVerify: the program.load Corrupt point
// fires on a restored snapshot too, after its canon digest was taken from
// the decoded AST, so Verify catches the damage exactly as after a build.
func TestRestoredCorruptionCaughtByVerify(t *testing.T) {
	st := openStoreT(t)
	warmStore(t, st, testSource)

	cold := NewCache(8)
	cold.SetStore(st)
	faultinject.Arm(faultinject.NewPlan(7).Set("program.load", faultinject.Corrupt))
	snap, err := cold.Load(testSource)
	faultinject.Disarm()
	if err != nil {
		t.Fatal(err)
	}
	if stats := cold.Stats(); stats.Compiles != 0 || stats.Restores != 1 {
		t.Fatalf("stats = %+v, want a restore", stats)
	}
	if err := snap.Verify(); !errors.Is(err, ErrMutated) {
		t.Fatalf("Verify = %v, want ErrMutated", err)
	}
}
