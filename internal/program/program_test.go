package program

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"lisa/internal/minij"
)

const testSource = `
class Session {
	bool closing;
}

class DataTree {
	map nodes;

	void createEphemeral(string path, Session owner) {
		nodes.put(path, owner);
	}
}

class PrepProcessor {
	DataTree tree;

	void processCreate(string path, Session s) {
		if (s == null || s.closing) {
			throw "KeeperException";
		}
		tree.createEphemeral(path, s);
	}
}
`

// variant returns a distinct compilable source (for filling caches).
func variant(i int) string {
	return fmt.Sprintf("class V%d {\n\tint x;\n\n\tvoid bump() {\n\t\tx = x + %d;\n\t}\n}\n", i, i)
}

func TestLoadBasics(t *testing.T) {
	c := NewCache(8)
	snap, err := c.Load(testSource)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Source() != testSource {
		t.Error("source round-trip mismatch")
	}
	if snap.Hash() != Hash(testSource) {
		t.Error("hash mismatch")
	}
	if snap.Program() == nil || len(snap.Program().Classes) != 3 {
		t.Fatalf("program not compiled: %+v", snap.Program())
	}
	if snap.CanonHash() != Hash(minij.FormatProgram(snap.Program())) {
		t.Error("canonical form not captured")
	}
	if m := snap.Program().Method("PrepProcessor", "processCreate"); snap.MethodDigest(m) != HashParts("canon", minij.FormatMethod(m)) {
		t.Error("missing method digest")
	}
	if snap.MethodDigest(&minij.Method{Class: &minij.Class{Name: "No"}, Name: "such"}) != "" {
		t.Error("phantom method digest")
	}
	if !strings.Contains(snap.Shape(), "class PrepProcessor") {
		t.Errorf("shape missing class: %q", snap.Shape())
	}
	if err := snap.Verify(); err != nil {
		t.Errorf("fresh snapshot failed verify: %v", err)
	}
}

// TestReformattedSourceSharesCanon: two formattings of one program are two
// snapshots (raw-content addressing) with identical canonical identity.
func TestReformattedSourceSharesCanon(t *testing.T) {
	c := NewCache(8)
	a, err := c.Load(testSource)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Load(strings.ReplaceAll(testSource, "\t", "    "))
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("distinct raw sources shared a snapshot")
	}
	if a.CanonHash() != b.CanonHash() {
		t.Error("reformatting changed the canonical content address")
	}
}

// TestSnapshotMutationDetected: snapshots hand out a shared AST; a caller
// that mutates it in spite of the contract is caught by Verify.
func TestSnapshotMutationDetected(t *testing.T) {
	c := NewCache(8)
	snap, err := c.Load(testSource)
	if err != nil {
		t.Fatal(err)
	}
	m := snap.Program().Method("PrepProcessor", "processCreate")
	if m == nil {
		t.Fatal("method not found")
	}
	var mutated bool
	minij.WalkStmts(m.Body, func(s minij.Stmt) {
		ifStmt, ok := s.(*minij.If)
		if !ok || mutated {
			return
		}
		bin, ok := ifStmt.Cond.(*minij.Binary)
		if !ok {
			return
		}
		ifStmt.Cond = bin.X // drop the s.closing disjunct
		mutated = true
	})
	if !mutated {
		t.Fatal("no guard to mutate")
	}
	if err := snap.Verify(); err == nil {
		t.Error("mutated snapshot passed Verify")
	}
}

// TestCompileIsPrivate: Compile returns a caller-owned program — mutating
// it leaves the cached snapshot of the same source intact.
func TestCompileIsPrivate(t *testing.T) {
	c := NewCache(8)
	snap, err := c.Load(testSource)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(testSource)
	if err != nil {
		t.Fatal(err)
	}
	if prog == snap.Program() {
		t.Fatal("Compile returned the shared snapshot program")
	}
	m := prog.Method("DataTree", "createEphemeral")
	m.Body.Stmts = nil
	if err := snap.Verify(); err != nil {
		t.Errorf("mutating a Compile copy corrupted the snapshot: %v", err)
	}
}

// TestLRUEvictionDeterminism: the same load sequence on two caches evicts
// the same entries in the same order and ends in the same state.
func TestLRUEvictionDeterminism(t *testing.T) {
	sequence := []string{
		variant(0), variant(1), variant(2), // fills capacity 3
		variant(0),             // refresh 0 → order 0,2,1
		variant(3),             // evicts 1
		variant(1),             // recompile 1, evicts 2
		variant(0), variant(3), // hits
	}
	run := func() *Cache {
		c := NewCache(3)
		for _, src := range sequence {
			if _, err := c.Load(src); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	a, b := run(), run()
	if a.Stats() != b.Stats() {
		t.Errorf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	ha, hb := a.Hashes(), b.Hashes()
	if strings.Join(ha, ",") != strings.Join(hb, ",") {
		t.Errorf("residency order diverged: %v vs %v", ha, hb)
	}
	st := a.Stats()
	if st.Entries != 3 || st.Evictions != 2 {
		t.Errorf("entries=%d evictions=%d, want 3 and 2", st.Entries, st.Evictions)
	}
	// 4 distinct sources; variant(1) was evicted and recompiled once.
	if st.Compiles != 5 {
		t.Errorf("compiles=%d, want 5", st.Compiles)
	}
	want := []string{Hash(variant(3)), Hash(variant(0)), Hash(variant(1))}
	if strings.Join(ha, ",") != strings.Join(want, ",") {
		t.Errorf("MRU order = %v, want %v", ha, want)
	}
}

// TestConcurrentLoadSharesOneSnapshot: racing loads of one source compile
// it once and all receive the identical snapshot.
func TestConcurrentLoadSharesOneSnapshot(t *testing.T) {
	c := NewCache(8)
	const n = 16
	snaps := make([]*Snapshot, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snap, err := c.Load(testSource)
			if err != nil {
				t.Error(err)
				return
			}
			// Exercise the lazy analyses concurrently too.
			_ = snap.Graph()
			_ = snap.MethodDigest(snap.Program().Method("DataTree", "createEphemeral"))
			_ = snap.Shape()
			snaps[i] = snap
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if snaps[i] != snaps[0] {
			t.Fatalf("load %d returned a different snapshot", i)
		}
	}
	st := c.Stats()
	if st.Compiles != 1 {
		t.Errorf("compiles=%d, want 1", st.Compiles)
	}
	if st.GraphBuilds != 1 {
		t.Errorf("graph builds=%d, want 1", st.GraphBuilds)
	}
	if snaps[0].Graph() == nil {
		t.Error("nil graph")
	}
}

// TestNegativeCaching: a source that fails to compile is cached as a
// failure — the same error comes back without re-parsing.
func TestNegativeCaching(t *testing.T) {
	c := NewCache(8)
	if _, err := c.Load("class Broken {"); err == nil {
		t.Fatal("expected compile error")
	}
	if _, err := c.Load("class Broken {"); err == nil {
		t.Fatal("expected cached compile error")
	}
	if st := c.Stats(); st.Compiles != 1 || st.Hits != 1 {
		t.Errorf("stats=%+v, want 1 compile and 1 hit", st)
	}
}

// TestGraphMemoized: repeated Graph calls return the one build.
func TestGraphMemoized(t *testing.T) {
	c := NewCache(8)
	snap, err := c.Load(testSource)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Graph() != snap.Graph() {
		t.Error("graph rebuilt")
	}
	if st := c.Stats(); st.GraphBuilds != 1 {
		t.Errorf("graph builds=%d, want 1", st.GraphBuilds)
	}
}

// TestDefaultCacheLoad covers the process-wide instance.
func TestDefaultCacheLoad(t *testing.T) {
	c := DefaultCache()
	before := c.Stats()
	a, err := c.Load(testSource)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Load(testSource)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("default cache returned distinct snapshots")
	}
	after := c.Stats()
	if after.Hits <= before.Hits {
		t.Errorf("default cache hits did not advance: %+v → %+v", before, after)
	}
}
