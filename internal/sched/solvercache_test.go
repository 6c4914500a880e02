package sched

import (
	"testing"

	"lisa/internal/corpus"
	"lisa/internal/smt"
)

// TestSolverCacheDoesNotChangeReports: the engine's solver result cache
// must be invisible in rendered output — for every corpus case the
// sequential engine renders byte-identical reports with the cache cold,
// warm, and absent (a nil Engine.Solver solves every query uncached).
func TestSolverCacheDoesNotChangeReports(t *testing.T) {
	for _, cs := range corpus.Load().Cases {
		cs := cs
		t.Run(cs.ID, func(t *testing.T) {
			e := engineForCase(t, cs)
			if e.Registry.Len() == 0 {
				t.Skipf("no rules registered for %s", cs.ID)
			}
			e.Solver = smt.NewQueryCache(0)
			cold, err := e.Assert(cs.Head(), cs.Tests)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := e.Assert(cs.Head(), cs.Tests)
			if err != nil {
				t.Fatal(err)
			}
			e.Solver = nil
			off, err := e.Assert(cs.Head(), cs.Tests)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Render() != warm.Render() {
				t.Errorf("warm solver cache changed the report\n--- cold ---\n%s\n--- warm ---\n%s", cold.Render(), warm.Render())
			}
			if cold.Render() != off.Render() {
				t.Errorf("disabling the solver cache changed the report\n--- on ---\n%s\n--- off ---\n%s", cold.Render(), off.Render())
			}
		})
	}
}
