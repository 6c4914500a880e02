package core_test

import (
	"os"
	"testing"

	"lisa/internal/core"
	"lisa/internal/corpus"
	"lisa/internal/minij"
	"lisa/internal/program"
	"lisa/internal/store"
)

// TestV1SnapshotRecordRecompiles: a snapshot record the version-1 codec
// wrote — testdata holds zk-ephemeral's head as that codec encoded it —
// reads as a miss. The head compiles once, its key is rewritten with a
// frame of the current codec, and the report is byte-identical to a
// store-less engine's. A second cold engine restores the rewritten record
// without compiling and renders the same report.
func TestV1SnapshotRecordRecompiles(t *testing.T) {
	const snapNamespace = "snap.v2" // program's snapshot record namespace
	cs := corpus.Load().Get("zk-ephemeral")
	head := cs.Head()
	v1, err := os.ReadFile("testdata/zk-ephemeral-head.v1.frame")
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.Put(snapNamespace, program.Hash(head), v1)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	newEngine := func(st *store.Store) *core.Engine {
		e := core.New()
		e.Snapshots = program.NewCache(0)
		if st != nil {
			e.Snapshots.SetStore(st)
		}
		for _, tk := range cs.Tickets {
			if _, err := e.ProcessTicket(tk); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	render := func(e *core.Engine) (string, program.CacheStats) {
		before := e.Snapshots.Stats()
		rep, err := e.Assert(head, cs.Tests)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Render(), e.Snapshots.Stats().Sub(before)
	}
	want, _ := render(newEngine(nil))

	got, stats := render(newEngine(st))
	if got != want {
		t.Errorf("report over a v1 record differs from a store-less run:\n%s\n---\n%s", got, want)
	}
	if stats.Compiles != 1 || stats.Restores != 0 {
		t.Errorf("stats = %+v, want the v1 record to compile once", stats)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	raw, ok := st.Get(snapNamespace, program.Hash(head))
	if !ok || string(raw) == string(v1) {
		t.Fatal("the compile did not rewrite the v1 record")
	}
	if _, err := minij.DecodeProgram(raw); err != nil {
		t.Fatalf("rewritten record does not decode: %v", err)
	}

	got, stats = render(newEngine(st))
	if got != want {
		t.Errorf("report over the rewritten record differs:\n%s\n---\n%s", got, want)
	}
	if stats.Compiles != 0 || stats.RestoresDecoded != 1 {
		t.Errorf("stats = %+v, want the rewritten record restored", stats)
	}
}
