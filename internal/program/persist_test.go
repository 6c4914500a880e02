package program

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lisa/internal/callgraph"
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
// without compiling — zero Compiles, every derived artifact identical to
// the built original — and rebuilds its call graph from the decoded AST
// into the same edges, in the same order.
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
	if snap.Canon() != built.Canon() || snap.CanonHash() != built.CanonHash() {
		t.Fatal("restored canon differs from built canon")
	}
	if snap.Shape() != built.Shape() {
		t.Fatal("restored shape differs")
	}
	if snap.MethodCanon("PrepProcessor.processCreate") != built.MethodCanon("PrepProcessor.processCreate") {
		t.Fatal("restored method canon differs")
	}
	if err := snap.Verify(); err != nil {
		t.Fatalf("restored snapshot fails Verify: %v", err)
	}
	g := snap.Graph()
	if g == nil {
		t.Fatal("restored snapshot has no graph")
	}
	got, want := edgeLines(g), edgeLines(built.Graph())
	if len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("restored graph differs:\n got %q\nwant %q", got, want)
	}
	if stats := cold.Stats(); stats.Compiles != 0 || stats.GraphBuilds != 1 {
		t.Fatalf("cold graph stats = %+v, want 0 compiles and 1 graph build", stats)
	}
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

// TestRestoreRejectsTamperedRecord: a record whose canon does not match
// what the source actually renders to is refused — the Verify machinery on
// the load path — and the snapshot falls back to a full compile.
func TestRestoreRejectsTamperedRecord(t *testing.T) {
	st := openStoreT(t)
	warmStore(t, st, testSource)

	// Forge the record: well-formed envelope, wrong canon (so the canon no
	// longer matches its stored digest).
	raw, ok := st.Get(snapNamespace, Hash(testSource))
	if !ok {
		t.Fatal("no persisted record")
	}
	rec, ok := decodeRecord(raw)
	if !ok {
		t.Fatal("persisted record does not decode")
	}
	rec.Canon = rec.Canon + "\n// drifted"
	st.Put(snapNamespace, Hash(testSource), encodeRecord(rec))
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
		t.Fatalf("stats = %+v, want fallback compile", stats)
	}
	if err := snap.Verify(); err != nil {
		t.Fatalf("fallback snapshot fails Verify: %v", err)
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
