package experiments

import (
	"testing"

	"lisa/internal/concolic"
	"lisa/internal/core"
	"lisa/internal/corpus"
)

// TestWalkerKeysAreRenders: the path walker names each solver query by a
// key it joins from its condition cells' renders, without building the
// query's formula; the key must equal that formula's render byte for byte,
// or the query cache and the store would file the verdict under another
// query's name. With no solver cache, smt.SATKeyed builds every keyed
// query's formula and panics on a key that is not its render, and the
// engine contains the panic as a job failure. So every corpus version and
// the stress system are asserted on a default, a NoPrune and an IntraOnly
// engine without a cache, and no job may fail. Each reported path's key,
// which the collector joins from renders too, must equal the key of the
// same path rebuilt from its condition.
func TestWalkerKeysAreRenders(t *testing.T) {
	modes := []struct {
		name string
		set  func(*core.Engine)
	}{
		{"default", func(*core.Engine) {}},
		{"noprune", func(e *core.Engine) { e.NoPrune = true }},
		{"intra", func(e *core.Engine) { e.IntraOnly = true }},
	}
	paths := 0
	check := func(name string, rep *core.AssertReport) {
		for _, sr := range rep.Semantics {
			for _, f := range sr.Failures {
				t.Errorf("%s: job %s failed: %s", name, f.Job, f.Detail)
			}
			for _, site := range sr.Sites {
				for _, p := range site.Paths {
					if p.Static == nil {
						continue
					}
					paths++
					rebuilt := &concolic.StaticPath{Cond: p.Static.Cond, FullCond: p.Static.FullCond, Bindings: p.Static.Bindings}
					if got, want := p.Static.Key(), rebuilt.Key(); got != want {
						t.Errorf("%s: path key %q, want %q", name, got, want)
					}
				}
			}
		}
	}
	for _, m := range modes {
		for _, cs := range corpus.Load().Cases {
			e := core.New()
			e.Solver = nil
			m.set(e)
			for _, tk := range cs.Tickets {
				if _, err := e.ProcessTicket(tk); err != nil {
					t.Fatalf("%s: process %s: %v", cs.ID, tk.ID, err)
				}
			}
			srcs := []string{cs.Head(), cs.Latest}
			for _, tk := range cs.Tickets {
				srcs = append(srcs, tk.BuggySource, tk.FixedSource)
			}
			for _, src := range srcs {
				if src == "" {
					continue
				}
				// A version that does not build with its suite walks
				// nothing.
				if rep, err := e.Assert(src, cs.Tests); err == nil {
					check(cs.ID+" "+m.name, rep)
				}
			}
		}
		src, spec := stressCorpus(4, 6)
		e, err := stressEngine(spec)
		if err != nil {
			t.Fatal(err)
		}
		e.Solver = nil
		m.set(e)
		rep, err := e.Assert(src, stressTests())
		if err != nil {
			t.Fatalf("stress %s: %v", m.name, err)
		}
		check("stress "+m.name, rep)
	}
	if paths == 0 {
		t.Fatal("no path reported")
	}
}
