package server

import (
	"testing"

	"lisa/internal/program"
	"lisa/internal/store"
)

// TestServerRestartWarmFromStore: a daemon restarted over the store a
// previous daemon populated starts warm — the first gate on the new
// instance restores the case's registry instead of inferring it, compiles
// no snapshots, executes no jobs, and returns the same report — and
// /stats exposes the store ledger and per-cache tier counters.
func TestServerRestartWarmFromStore(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cs := corpusCase(t, "zk-ephemeral")

	_, clA, doneA := newTestServer(t, Config{Store: st})
	cold, err := clA.Gate(GateRequest{Case: cs.ID, Change: cs.Head()})
	if err != nil {
		t.Fatal(err)
	}
	statsA, err := clA.Stats()
	if err != nil {
		t.Fatal(err)
	}
	doneA()
	if statsA.Store == nil || len(statsA.Tiers) == 0 {
		t.Fatalf("store-backed /stats has no store ledger or tiers: %+v", statsA)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if st.Stats().Records == 0 {
		t.Fatal("daemon A persisted nothing")
	}

	// "Restart": a brand-new server over the same store, all memory tiers
	// empty.
	_, clB, doneB := newTestServer(t, Config{Store: st})
	defer doneB()
	// Inference parses through the process-wide snapshot cache; a restored
	// registry leaves it untouched.
	inferBefore := program.DefaultCache().Stats()
	warm, err := clB.Gate(GateRequest{Case: cs.ID, Change: cs.Head()})
	if err != nil {
		t.Fatal(err)
	}
	if after := program.DefaultCache().Stats(); after != inferBefore {
		t.Errorf("restarted daemon's first gate moved the process-wide snapshot cache (inference ran): %+v -> %+v", inferBefore, after)
	}
	if cold.Report != warm.Report || cold.Pass != warm.Pass {
		t.Fatal("restarted daemon changed the report")
	}
	if warm.Cache.SnapshotCompiles != 0 {
		t.Errorf("restarted daemon compiled %d snapshots, want 0 (restored from store)", warm.Cache.SnapshotCompiles)
	}
	if warm.Cache.SchedExecuted != 0 {
		t.Errorf("restarted daemon executed %d jobs, want 0 (disk-tier hits); delta %+v", warm.Cache.SchedExecuted, warm.Cache)
	}
	statsB, err := clB.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if statsB.Solver.Solves != 0 {
		t.Errorf("restarted daemon ran %d solver searches, want 0 (disk-tier verdicts)", statsB.Solver.Solves)
	}
	var diskHits uint64
	for _, tier := range statsB.Tiers {
		diskHits += tier.DiskHits
	}
	if diskHits == 0 {
		t.Errorf("restarted daemon reports no disk hits: %+v", statsB.Tiers)
	}
	var registry *store.TierStats
	for i := range statsB.Tiers {
		if statsB.Tiers[i].Cache == "registry" {
			registry = &statsB.Tiers[i]
		}
	}
	if registry == nil {
		t.Fatalf("restarted daemon's /stats has no registry tier: %+v", statsB.Tiers)
	}
	if registry.DiskHits != 1 || registry.DiskMisses != 0 || registry.DiskWrites != 0 {
		t.Errorf("restarted daemon's registry tier %+v, want 1 disk hit and no miss or write", *registry)
	}
}

// TestServerWithoutStoreOmitsTiers: store-less daemons keep the previous
// /stats shape — no store ledger, no tier list.
func TestServerWithoutStoreOmitsTiers(t *testing.T) {
	_, cl, done := newTestServer(t, Config{})
	defer done()
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Store != nil || len(stats.Tiers) != 0 {
		t.Fatalf("store-less /stats reports store state: %+v", stats)
	}
}
