package server

import (
	"testing"

	"lisa/internal/ci"
	"lisa/internal/core"
	"lisa/internal/corpus"
	"lisa/internal/program"
	"lisa/internal/sched"
	"lisa/internal/smt"
	"lisa/internal/store"
)

// benchCases are the corpus cases the cold-vs-warm comparison gates; a
// small mixed set so the numbers reflect typical, not best-case, reuse.
var benchCases = []string{"zk-ephemeral", "zk-session-expiry", "hdfs-lease-recovery"}

// BenchmarkLocalGateCold is what every CLI invocation pays today: a fresh
// engine, a private (empty) snapshot cache, an empty solver query cache,
// and a from-scratch scheduler for each gate. This is the baseline the
// daemon exists to amortize.
func BenchmarkLocalGateCold(b *testing.B) {
	c := corpus.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range benchCases {
			cs := c.Get(id)
			b.StopTimer()
			smt.DefaultQueryCache().Reset()
			b.StartTimer()
			e := core.New()
			e.Snapshots = program.NewCache(0)
			for _, tk := range cs.Tickets {
				if _, err := e.ProcessTicket(tk); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := ci.GateWith(e, ci.Change{
				Summary:   "bench",
				OldSource: cs.Head(),
				NewSource: cs.Head(),
			}, cs.Tests, ci.GateOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkLocalGateWarmStore is the `lisa gate -store DIR` path on a
// warm store: each gate still pays for a fresh engine and empty memory
// tiers (a cold process), but the snapshot, solver, and fingerprint
// caches sit over a store a previous run populated, so compiles, solver
// searches, and job executions are all served from disk. The gap to
// BenchmarkLocalGateCold is what the disk tier alone buys a cold
// process; the gap to BenchmarkRemoteGateWarm is the residual cost of
// re-reading and re-anchoring records versus hitting live memory.
func BenchmarkLocalGateWarmStore(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	c := corpus.Load()
	gate := func(id string) {
		cs := c.Get(id)
		e := core.New()
		e.Snapshots = program.NewCache(0)
		e.Snapshots.SetStore(st)
		e.Solver = smt.NewQueryCache(0)
		e.Solver.SetStore(st)
		for _, tk := range cs.Tickets {
			if _, err := e.ProcessTicket(tk); err != nil {
				b.Fatal(err)
			}
		}
		s := sched.New()
		s.Cache().SetStore(st)
		if _, err := ci.GateWith(e, ci.Change{
			Summary:   "bench",
			OldSource: cs.Head(),
			NewSource: cs.Head(),
		}, cs.Tests, ci.GateOptions{Scheduler: s}); err != nil {
			b.Fatal(err)
		}
	}
	// Populate the store once; every measured round is a cold process
	// against this warm store.
	for _, id := range benchCases {
		gate(id)
	}
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range benchCases {
			gate(id)
		}
	}
}

// BenchmarkRemoteGateWarm is the same gates served by one long-lived
// daemon over HTTP: after the first round every request rides the warm
// snapshot, fingerprint, and solver query caches. The full round trip —
// JSON encode, TCP, decode — is included, and it still roughly halves
// the in-process cold cost; against a real cold CLI process (which also
// pays exec and corpus load) the gap is wider (see EXPERIMENTS.md).
func BenchmarkRemoteGateWarm(b *testing.B) {
	_, cl, done := newTestServer(b, Config{})
	defer done()
	// Warm every case runtime and cache before the measured rounds.
	for _, id := range benchCases {
		cs := corpusCase(b, id)
		if _, err := cl.Gate(GateRequest{Case: id, Change: cs.Head(), Summary: "bench"}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range benchCases {
			cs := corpusCase(b, id)
			if _, err := cl.Gate(GateRequest{Case: id, Change: cs.Head(), Summary: "bench"}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
