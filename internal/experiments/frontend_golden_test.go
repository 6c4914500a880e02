package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"lisa/internal/core"
	"lisa/internal/corpus"
	"lisa/internal/minij"
	"lisa/internal/program"
	"lisa/internal/store"
	"lisa/internal/ticket"
)

// frontendVersion is one program the front-end goldens cover: a source,
// and the suite it is linked with.
type frontendVersion struct {
	name  string
	src   string
	tests []ticket.TestCase
}

// frontendVersions lists every corpus version (each case's head, its
// latest when it has one, each ticket's buggy and fixed source), every
// E-M1 guard mutant, and the stress system, each with the suite it is
// asserted with.
func frontendVersions(t *testing.T) []frontendVersion {
	t.Helper()
	var vs []frontendVersion
	for _, cs := range corpus.Load().Cases {
		vs = append(vs, frontendVersion{cs.ID + " head", cs.Head(), cs.Tests})
		if cs.Latest != "" {
			vs = append(vs, frontendVersion{cs.ID + " latest", cs.Latest, cs.Tests})
		}
		e := core.New()
		for _, tk := range cs.Tickets {
			vs = append(vs,
				frontendVersion{cs.ID + " " + tk.ID + ":buggy", tk.BuggySource, cs.Tests},
				frontendVersion{cs.ID + " " + tk.ID + ":fixed", tk.FixedSource, cs.Tests})
			if _, err := e.ProcessTicket(tk); err != nil {
				t.Fatal(err)
			}
		}
		roots := map[string]bool{}
		for _, sem := range e.Registry.All() {
			for slot := range sem.Target.Bind {
				roots[slot] = true
			}
		}
		for i, mu := range MutateGuards(cs, roots) {
			vs = append(vs, frontendVersion{fmt.Sprintf("%s mutant %d", cs.ID, i), mu.Source, cs.Tests})
		}
	}
	src, _ := stressCorpus(4, 6)
	return append(vs, frontendVersion{"stress", src, stressTests()})
}

// frontendPrograms calls visit with every version's program alone, and
// then linked with its suite, or with the error that kept it from
// building. A linked visit also gets the system snapshot it extends.
func frontendPrograms(t *testing.T, visit func(name string, snap, sys *program.Snapshot, err error)) {
	t.Helper()
	for _, v := range frontendVersions(t) {
		e := core.New()
		e.Snapshots = program.NewCache(0)
		snap, err := e.LoadSnapshot(v.src)
		visit(v.name+" alone", snap, nil, err)
		if err != nil {
			continue
		}
		ctx, err := e.PrepareSnapshot(snap, v.tests, nil)
		if err != nil {
			visit(v.name+" linked", nil, snap, err)
			continue
		}
		visit(v.name+" linked", ctx.SnapshotAll, snap, nil)
	}
}

// TestReceiverTypeGolden pins the receiver type the resolver gives every
// instance call, the one fact about types that call-graph edges, callee
// names and getter inlining read: over every program frontendPrograms
// lists, each instance call's canonical text, kind and receiver type must
// equal testdata/receiver_types.golden. A linked program lists the calls
// of the classes it does not share with its system program: its test
// classes, or every class of a concatenated compile.
func TestReceiverTypeGolden(t *testing.T) {
	var sb strings.Builder
	calls := 0
	frontendPrograms(t, func(name string, snap, sys *program.Snapshot, err error) {
		fmt.Fprintf(&sb, "== %s\n", name)
		if err != nil {
			sb.WriteString("error\n")
			return
		}
		prog := snap.Program()
		for _, m := range prog.Methods() {
			if sys != nil && sys.Program().Class(m.Class.Name) == m.Class {
				continue
			}
			minij.WalkExprs(m.Body, func(e minij.Expr) {
				call, ok := e.(*minij.Call)
				if !ok || call.Kind != minij.CallInstance {
					return
				}
				calls++
				fmt.Fprintf(&sb, "%s %s kind=%d recv=%s\n", m.FullName(), minij.CanonExpr(call), call.Kind, call.RecvType)
			})
		}
	})
	if calls == 0 {
		t.Fatal("no instance call visited")
	}
	compareGolden(t, "testdata/receiver_types.golden", sb.String())
}

// compareGolden fails at the first line where got differs from the
// golden file, or rewrites the file under -update.
func compareGolden(t *testing.T, golden, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want, gotLines := strings.Split(string(raw), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(want) || i < len(gotLines); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", golden, i+1, g, w)
		}
	}
}

// TestOneRenderDigests: a snapshot takes its canon digest and its method
// digests from one render, and they must equal what separate renders give:
// CanonHash is the hash of FormatProgram over the classes it covers, and
// MethodDigest of every method is HashParts("canon", FormatMethod(m)).
// Checked over every version frontendVersions lists, built, linked with
// its suite, and restored from the store by a cold cache.
func TestOneRenderDigests(t *testing.T) {
	check := func(name string, snap *program.Snapshot, own []*minij.Class) {
		t.Helper()
		if got, want := snap.CanonHash(), program.Hash(minij.FormatProgram(&minij.Program{Classes: own})); got != want {
			t.Errorf("%s: canon digest %s, want %s", name, got, want)
		}
		for _, m := range snap.Program().Methods() {
			if got, want := snap.MethodDigest(m), program.HashParts("canon", minij.FormatMethod(m)); got != want {
				t.Errorf("%s: digest of %s is %s, want %s", name, m.FullName(), got, want)
			}
		}
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	warm := program.NewCache(0)
	warm.SetStore(st)
	var built []frontendVersion
	links := 0
	for _, v := range frontendVersions(t) {
		snap, err := warm.Load(v.src)
		if err != nil {
			continue
		}
		built = append(built, v)
		check(v.name+" built", snap, snap.Program().Classes)
		e := core.New()
		e.Snapshots = warm
		ctx, err := e.PrepareSnapshot(snap, v.tests, nil)
		if err != nil {
			continue
		}
		// A suite that did not link is compiled with the system, and that
		// snapshot covers every class.
		var own []*minij.Class
		for _, c := range ctx.ProgAll.Classes {
			if snap.Program().Class(c.Name) != c {
				own = append(own, c)
			}
		}
		check(v.name+" linked", ctx.SnapshotAll, own)
		links++
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	cold := program.NewCache(0)
	cold.SetStore(st)
	for _, v := range built {
		snap, err := cold.Load(v.src)
		if err != nil {
			t.Fatal(err)
		}
		check(v.name+" restored", snap, snap.Program().Classes)
	}
	if stats := cold.Stats(); stats.Compiles != 0 || stats.Restores == 0 {
		t.Errorf("cold stats = %+v, want every version restored", stats)
	}
	if links == 0 {
		t.Fatal("no linked snapshot checked")
	}
}
