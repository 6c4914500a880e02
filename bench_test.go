// Package lisa's root benchmark harness: one testing.B per reproduced
// figure/table (driving the same code as cmd/lisabench) plus
// micro-benchmarks for every substrate. Run with:
//
//	go test -bench=. -benchmem
package lisa

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"lisa/internal/callgraph"
	"lisa/internal/concolic"
	"lisa/internal/contract"
	"lisa/internal/core"
	"lisa/internal/corpus"
	"lisa/internal/diffutil"
	"lisa/internal/embedding"
	"lisa/internal/experiments"
	"lisa/internal/infer"
	"lisa/internal/interp"
	"lisa/internal/minij"
	"lisa/internal/program"
	"lisa/internal/sched"
	"lisa/internal/server"
	"lisa/internal/smt"
	"lisa/internal/store"
	"lisa/internal/ticket"
)

// benchExperiment runs one named experiment per iteration.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	c := corpus.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := experiments.Run(name, c)
		if err != nil || len(out) == 0 {
			b.Fatalf("experiment %s: err=%v len=%d", name, err, len(out))
		}
	}
}

// BenchmarkStudyCorpus regenerates the §2.1 study table (E-S1).
func BenchmarkStudyCorpus(b *testing.B) { benchExperiment(b, "study") }

// BenchmarkTimelineReplay regenerates Figure 1 (E-F1): history replay with
// enforcement.
func BenchmarkTimelineReplay(b *testing.B) { benchExperiment(b, "timeline") }

// BenchmarkEphemeralRegression regenerates Figures 2-3 (E-F2/F3): the
// ZooKeeper ephemeral-node walkthrough.
func BenchmarkEphemeralRegression(b *testing.B) { benchExperiment(b, "ephemeral") }

// BenchmarkComparisonSweep regenerates Figure 4 (E-F4): testing vs LISA vs
// exhaustive checking across the corpus.
func BenchmarkComparisonSweep(b *testing.B) { benchExperiment(b, "comparison") }

// BenchmarkWorkflowEndToEnd regenerates Figure 5 (E-F5): one full pipeline
// run with stage timings.
func BenchmarkWorkflowEndToEnd(b *testing.B) { benchExperiment(b, "workflow") }

// BenchmarkGeneralization regenerates Figure 6 (E-F6): literal vs
// generalized rules.
func BenchmarkGeneralization(b *testing.B) { benchExperiment(b, "generalize") }

// BenchmarkHBaseSnapshotBug regenerates §4 Bug #1 (E-B1).
func BenchmarkHBaseSnapshotBug(b *testing.B) { benchExperiment(b, "hbase") }

// BenchmarkHDFSObserverBug regenerates §4 Bug #2 (E-B2).
func BenchmarkHDFSObserverBug(b *testing.B) { benchExperiment(b, "hdfs") }

// BenchmarkReliabilityCrossCheck runs a reduced E-Q1 sweep per iteration
// (one noise level, one seed) — the full sweep is the lisabench run.
func BenchmarkReliabilityCrossCheck(b *testing.B) {
	c := corpus.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := experiments.ReliabilitySweep(c, []float64{0.3}, 1)
		if len(pts) != 1 {
			b.Fatal("sweep failed")
		}
	}
}

// BenchmarkComposition regenerates the E-Q3 composition study.
func BenchmarkComposition(b *testing.B) { benchExperiment(b, "compose") }

// BenchmarkAblations runs the design-choice ablations (E-A1).
func BenchmarkAblations(b *testing.B) { benchExperiment(b, "ablations") }

// --- Substrate micro-benchmarks -------------------------------------------

func flagshipTicket() *ticket.Ticket {
	return corpus.Load().Get("zk-ephemeral").Tickets[0]
}

// BenchmarkMiniJParse measures parsing + resolving a corpus system.
func BenchmarkMiniJParse(b *testing.B) {
	src := flagshipTicket().FixedSource
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := minij.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		if err := minij.Check(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpreter measures a full test execution under the
// interpreter.
func BenchmarkInterpreter(b *testing.B) {
	cs := corpus.Load().Get("zk-ephemeral")
	tc := cs.Tests[0]
	prog, err := minij.Parse(cs.Head() + "\n" + tc.Source)
	if err != nil {
		b.Fatal(err)
	}
	if err := minij.Check(prog); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := interp.New(prog)
		if _, err := in.CallStatic(tc.Class, tc.Method); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSMTSolver measures the complement check on the paper's worked
// example.
func BenchmarkSMTSolver(b *testing.B) {
	checker := smt.MustParsePredicate(`s != null && s.isClosing() == false && s.ttl > 0`)
	pc := smt.MustParsePredicate(`s != null && s.isClosing() == false`)
	comp := smt.Complement(checker)
	lim := smt.Limits{Cache: smt.NewQueryCache(0)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sat, err := smt.SATLim(smt.NewAnd(pc, comp), lim); err != nil || !sat {
			b.Fatalf("SATLim = %v, %v; want SAT (violation)", sat, err)
		}
	}
}

// solverHotPathQueries builds the gate-shaped query mix: a handful of
// complement checks and prefix conditions over shared integer bounds and
// string modes, discharged over and over the way a CI gate re-asserts the
// same rules across every test's path conditions.
func solverHotPathQueries() []smt.Formula {
	checker := smt.MustParsePredicate(`s != null && s.isClosing() == false && s.ttl > 0 && s.retries < 8`)
	comp := smt.Complement(checker)
	queries := make([]smt.Formula, 0, 12)
	for i := 0; i < 6; i++ {
		pc := smt.MustParsePredicate(fmt.Sprintf(
			`s != null && s.isClosing() == false && q.len >= %d && q.len <= %d && x > %d && x < y && y <= z && z <= 40 && mode == "sync"`,
			i, i+20, i))
		queries = append(queries, pc, smt.NewAnd(pc, comp))
	}
	return queries
}

// BenchmarkSolverHotPath compares the pre-PR solver (per-node closure
// recomputation, no result cache) against the optimized hot path
// (incremental theory propagation + a query cache) on the
// repeated-query workload the assertion gate actually produces.
func BenchmarkSolverHotPath(b *testing.B) {
	queries := solverHotPathQueries()
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, f := range queries {
				if _, _, err := smt.ReferenceSolve(f, smt.Limits{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	solve := func(b *testing.B, lim smt.Limits) {
		for i := 0; i < b.N; i++ {
			for _, f := range queries {
				if _, err := smt.SATLim(f, lim); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("incremental-nocache", func(b *testing.B) { solve(b, smt.Limits{}) })
	b.Run("optimized", func(b *testing.B) { solve(b, smt.Limits{Cache: smt.NewQueryCache(0)}) })
}

// BenchmarkStaticPaths measures per-site path enumeration + verdicts.
func BenchmarkStaticPaths(b *testing.B) {
	tk := flagshipTicket()
	prog, err := minij.Parse(tk.FixedSource)
	if err != nil {
		b.Fatal(err)
	}
	if err := minij.Check(prog); err != nil {
		b.Fatal(err)
	}
	res, err := (&infer.PatchAnalyzer{}).Infer(tk)
	if err != nil || len(res.Semantics) == 0 {
		b.Fatalf("infer: %v", err)
	}
	sites := contract.Match(res.Semantics[0], prog)
	if len(sites) == 0 {
		b.Fatal("no sites")
	}
	lim := smt.Limits{Cache: smt.NewQueryCache(0)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, site := range sites {
			paths, _ := concolic.StaticPaths(prog, site, concolic.Options{Lim: lim})
			for _, p := range paths {
				_, _ = concolic.CheckStaticPathLim(site.Semantic, p, lim)
			}
		}
	}
}

// BenchmarkConcolicRun measures one dynamic concolic test replay.
func BenchmarkConcolicRun(b *testing.B) {
	cs := corpus.Load().Get("zk-ephemeral")
	tk := cs.Tickets[1]
	full := tk.FixedSource
	tc := cs.Tests[0]
	full += "\n" + tc.Source
	prog, err := minij.Parse(full)
	if err != nil {
		b.Fatal(err)
	}
	if err := minij.Check(prog); err != nil {
		b.Fatal(err)
	}
	res, err := (&infer.PatchAnalyzer{}).Infer(tk)
	if err != nil || len(res.Semantics) == 0 {
		b.Fatalf("infer: %v", err)
	}
	sites := contract.Match(res.Semantics[0], prog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := concolic.NewRunner(prog, sites, interp.Options{})
		if err := r.RunStatic(tc.Name, tc.Class, tc.Method); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInference measures full guard extraction from a ticket bundle.
func BenchmarkInference(b *testing.B) {
	tk := flagshipTicket()
	pa := &infer.PatchAnalyzer{Generalize: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pa.Infer(tk)
		if err != nil || len(res.Semantics) == 0 {
			b.Fatalf("infer: %v", err)
		}
	}
}

// BenchmarkCallGraph measures call-graph + execution-tree construction.
func BenchmarkCallGraph(b *testing.B) {
	tk := flagshipTicket()
	prog, err := minij.Parse(tk.FixedSource)
	if err != nil {
		b.Fatal(err)
	}
	if err := minij.Check(prog); err != nil {
		b.Fatal(err)
	}
	target := prog.Method("DataTree", "createEphemeral")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := callgraph.Build(prog)
		tree := g.ExecutionTree(target, callgraph.TreeOptions{})
		if len(tree.Paths) == 0 {
			b.Fatal("no paths")
		}
	}
}

// BenchmarkDiff measures the Myers diff on a corpus patch.
func BenchmarkDiff(b *testing.B) {
	tk := flagshipTicket()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edits := diffutil.Diff(tk.BuggySource, tk.FixedSource)
		if !diffutil.Changed(edits) {
			b.Fatal("no changes")
		}
	}
}

// BenchmarkEmbeddingQuery measures test-corpus retrieval.
func BenchmarkEmbeddingQuery(b *testing.B) {
	var docs []embedding.Doc
	for _, cs := range corpus.Load().Cases {
		for _, tc := range cs.Tests {
			docs = append(docs, embedding.Doc{ID: tc.Name, Text: tc.Name + " " + tc.Description})
		}
	}
	ix := embedding.NewIndex(docs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ix.Query("ephemeral node created on closing session", 3); len(got) == 0 {
			b.Fatal("no matches")
		}
	}
}

// BenchmarkFullAssert measures one engine assertion over a regressed
// version with the full test suite.
func BenchmarkFullAssert(b *testing.B) {
	cs := corpus.Load().Get("zk-ephemeral")
	e := core.New()
	if _, err := e.ProcessTicket(cs.Tickets[0]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := e.Assert(cs.Tickets[1].BuggySource, cs.Tests)
		if err != nil || rep.Counts.Violations == 0 {
			b.Fatalf("assert: err=%v violations=%d", err, rep.Counts.Violations)
		}
	}
}

// BenchmarkMutationSweep runs the guard-weakening mutation experiment
// (E-M1): every mutant of every head, tests vs semantic assertion.
func BenchmarkMutationSweep(b *testing.B) { benchExperiment(b, "mutation") }

// BenchmarkSnapshotReuse measures the front-end cost of the E-F1 timeline
// replay — every version of every corpus case visited once per iteration,
// each visit needing the parse → resolve → call-graph pipeline. "cold"
// recompiles per visit (the pre-snapshot behavior of every call site);
// "warm" serves visits from the snapshot cache, where the pipeline runs
// exactly once per distinct version — verified by the cache's compile and
// graph-build counters.
func BenchmarkSnapshotReuse(b *testing.B) {
	var visits []string
	distinct := map[string]bool{}
	for _, cs := range corpus.Load().Cases {
		for _, tk := range cs.Tickets {
			visits = append(visits, tk.BuggySource, tk.FixedSource)
			distinct[tk.BuggySource] = true
			distinct[tk.FixedSource] = true
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, src := range visits {
				prog, err := program.Compile(src)
				if err != nil {
					b.Fatal(err)
				}
				if g := callgraph.Build(prog); g == nil {
					b.Fatal("nil graph")
				}
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		cache := program.NewCache(program.DefaultCapacity)
		replay := func() {
			for _, src := range visits {
				snap, err := cache.Load(src)
				if err != nil {
					b.Fatal(err)
				}
				if g := snap.Graph(); g == nil {
					b.Fatal("nil graph")
				}
			}
		}
		replay() // prime
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			replay()
		}
		b.StopTimer()
		st := cache.Stats()
		if st.Compiles != uint64(len(distinct)) || st.GraphBuilds != uint64(len(distinct)) {
			b.Fatalf("front end ran more than once per distinct version: %d compiles, %d graph builds, %d distinct",
				st.Compiles, st.GraphBuilds, len(distinct))
		}
	})
	// seedStoreDir populates a fresh store directory with every distinct
	// version's snap.v2 record (the bare binary-AST codec frame), the way a
	// previous process would have left it.
	seedStoreDir := func(b *testing.B) string {
		b.Helper()
		dir := b.TempDir()
		disk, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		seed := program.NewCache(program.DefaultCapacity)
		seed.SetStore(disk)
		for _, src := range visits {
			if _, err := seed.Load(src); err != nil {
				b.Fatal(err)
			}
		}
		if err := disk.Flush(); err != nil {
			b.Fatal(err)
		}
		disk.Close()
		return dir
	}
	// "warmstore" is a cold process over a store a previous process
	// populated: an empty memory LRU warms itself entirely by restoring
	// persisted records — the compile counter must stay at zero — builds
	// each restored version's call graph once (records carry no graph),
	// and then replays at memory-tier speed. The delta to "warm" is the
	// one-time restore tax (decode + render for the canon digest per
	// distinct version) plus one graph build per distinct version,
	// amortized over the iterations.
	b.Run("warmstore", func(b *testing.B) {
		disk, err := store.Open(seedStoreDir(b))
		if err != nil {
			b.Fatal(err)
		}
		defer disk.Close()
		cache := program.NewCache(program.DefaultCapacity)
		cache.SetStore(disk)
		replay := func() {
			for _, src := range visits {
				snap, err := cache.Load(src)
				if err != nil {
					b.Fatal(err)
				}
				if g := snap.Graph(); g == nil {
					b.Fatal("nil graph")
				}
			}
		}
		replay() // the cold process warms itself from the store
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			replay()
		}
		b.StopTimer()
		st := cache.Stats()
		if st.Compiles != 0 {
			b.Fatalf("cold process on warm store recompiled: %d compiles (want 0, all restored)", st.Compiles)
		}
		if st.Restores != uint64(len(distinct)) {
			b.Fatalf("restored %d of %d distinct versions", st.Restores, len(distinct))
		}
		if st.GraphBuilds != uint64(len(distinct)) {
			b.Fatalf("built %d call graphs for %d restored versions (want one each, none on replay)",
				st.GraphBuilds, len(distinct))
		}
	})
	// The restore tax itself, isolated: every iteration is a brand-new cold
	// cache restoring all distinct versions from the store. "warmstore-decoded"
	// is the snap.v2 path (frame decode + one render for the canon digest;
	// deep verify sampled out), "warmstore-reparse" forces a deep verify on
	// every restore — it adds re-parse + check + re-render, the pre-codec
	// restore cost.
	// The E-D2 row in EXPERIMENTS.md tracks the ratio (target: >= 3x).
	restoreTax := func(deepVerifyEvery int, wantDecoded, wantDeepVerified bool) func(*testing.B) {
		return func(b *testing.B) {
			disk, err := store.Open(seedStoreDir(b))
			if err != nil {
				b.Fatal(err)
			}
			defer disk.Close()
			var cache *program.Cache
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cache = program.NewCache(program.DefaultCapacity)
				cache.SetStore(disk)
				cache.SetDeepVerifyEvery(deepVerifyEvery)
				for _, src := range visits {
					if _, err := cache.Load(src); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			st := cache.Stats()
			if st.Compiles != 0 || st.Restores != uint64(len(distinct)) {
				b.Fatalf("restore tax run compiled: %d compiles, %d restores (want 0, %d)",
					st.Compiles, st.Restores, len(distinct))
			}
			if wantDecoded && st.RestoresDecoded != uint64(len(distinct)) {
				b.Fatalf("decoded %d of %d restores", st.RestoresDecoded, len(distinct))
			}
			if wantDeepVerified && st.RestoresDeepVerified != uint64(len(distinct)) {
				b.Fatalf("deep-verified %d of %d restores", st.RestoresDeepVerified, len(distinct))
			}
		}
	}
	b.Run("warmstore-decoded", restoreTax(1<<30, true, false))
	b.Run("warmstore-reparse", restoreTax(1, false, true))
}

// schedWorkload builds a registry of n contracts over n independent
// feature replicas — n*2 guarded call sites, each with branching caller
// chains — so the scheduler has a wide wave of comparable-cost site jobs.
func schedWorkload(b *testing.B, n int) (*core.Engine, string) {
	b.Helper()
	var src, spec strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, `
class Session%d {
	bool closing;
}

class DataTree%d {
	map nodes;

	void createEphemeral(string path, Session%d owner) {
		nodes.put(path, owner);
	}
}

class Prep%d {
	DataTree%d tree;

	void processCreate(string path, Session%d s, int mode) {
		if (s == null || s.closing) {
			throw "KeeperException";
		}
		if (mode > 2) {
			tree.createEphemeral(path, s);
		} else {
			tree.createEphemeral(path, s);
		}
	}

	void route(string path, Session%d s, int mode) {
		if (mode == 1) {
			processCreate(path, s, mode);
		} else {
			if (mode == 2) {
				processCreate(path, s, mode);
			} else {
				processCreate(path, s, mode);
			}
		}
	}

	void frontend(string path, Session%d s, int mode, int retries) {
		if (retries > 0) {
			route(path, s, mode);
		} else {
			route(path, s, mode);
		}
	}
}
`, i, i, i, i, i, i, i, i)
		fmt.Fprintf(&spec, `
rule eph-%d
description: ephemeral create requires a live session (replica %d)
target: DataTree%d.createEphemeral
bind: s = arg 1
require: s != null && s.closing == false
`, i, i, i)
	}
	sems, err := contract.ParseSpec(spec.String())
	if err != nil {
		b.Fatal(err)
	}
	e := core.New()
	for _, sem := range sems {
		if err := e.Registry.Add(sem); err != nil {
			b.Fatal(err)
		}
	}
	return e, src.String()
}

// BenchmarkScheduledAssert compares the sequential engine loop against the
// scheduler: cold parallel runs (one independent site job per contract
// site, pool width GOMAXPROCS) and warm fingerprint-cache runs (every job
// served from cache). On a multi-core machine the parallel run scales with
// the pool; warm runs skip the static stages entirely on any core count.
func BenchmarkScheduledAssert(b *testing.B) {
	e, src := schedWorkload(b, 24)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := e.Assert(src, nil)
			if err != nil || rep.Counts.Verified == 0 || rep.Counts.Violations != 0 {
				b.Fatalf("assert: err=%v counts=%+v", err, rep.Counts)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		workers := runtime.GOMAXPROCS(0)
		for i := 0; i < b.N; i++ {
			rep, _, err := sched.New().Assert(e, src, nil, sched.Options{Workers: workers})
			if err != nil || rep.Counts.Verified == 0 || rep.Counts.Violations != 0 {
				b.Fatalf("assert: err=%v", err)
			}
		}
	})
	b.Run("warm-cache", func(b *testing.B) {
		s := sched.New()
		if _, _, err := s.Assert(e, src, nil, sched.Options{Workers: runtime.GOMAXPROCS(0)}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, stats, err := s.Assert(e, src, nil, sched.Options{Workers: runtime.GOMAXPROCS(0)})
			if err != nil || rep.Counts.Verified == 0 || stats.Executed != 0 {
				b.Fatalf("warm run: err=%v executed=%d", err, stats.Executed)
			}
		}
	})
}

// BenchmarkGateChurn measures the daemon's gate on a stream of distinct
// changes, in process, without the HTTP loop: each op is one Server.Gate
// of a corpus head with a distinct dead local put first in one of its void
// methods, so every op compiles a new system, links the suite onto it,
// diffs it against the head and plans it. The server runs at one worker
// over a fresh store. Every head is gated once before the timer starts,
// and each edit must get its head's verdict.
func BenchmarkGateChurn(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	srv := server.New(server.Config{Corpus: corpus.Load(), Workers: 1, Store: st})
	type head struct {
		cs      *ticket.Case
		bodies  []int // offsets just past the brace of each void method body
		verdict string
	}
	var heads []head
	for _, cs := range corpus.Load().Cases {
		h := head{cs: cs, bodies: voidBodyOffsets(b, cs.Head())}
		resp, err := srv.Gate(server.GateRequest{Case: cs.ID, Change: cs.Head(), Summary: "bench", Incremental: true})
		if err != nil {
			b.Fatal(err)
		}
		h.verdict = resp.Verdict
		heads = append(heads, h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := heads[i%len(heads)]
		src := h.cs.Head()
		off := h.bodies[(i/len(heads))%len(h.bodies)]
		change := src[:off] + " int benchEdit" + strconv.Itoa(i) + " = " + strconv.Itoa(i) + ";" + src[off:]
		resp, err := srv.Gate(server.GateRequest{Case: h.cs.ID, Change: change, Summary: "bench", Incremental: true})
		if err != nil || resp.Verdict != h.verdict {
			b.Fatalf("%s edit %d: verdict %v, err %v; the head's is %s", h.cs.ID, i, resp, err, h.verdict)
		}
	}
}

// voidBodyOffsets returns the byte offset just past the opening brace of
// every void method body in src.
func voidBodyOffsets(b *testing.B, src string) []int {
	prog, err := program.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	lineStart := []int{0}
	for i := 0; i < len(src); i++ {
		if src[i] == '\n' {
			lineStart = append(lineStart, i+1)
		}
	}
	var out []int
	for _, m := range prog.Methods() {
		if m.Ret.Kind != minij.TypeVoid {
			continue
		}
		pos := m.Body.Pos()
		off := lineStart[pos.Line-1] + pos.Col - 1
		if src[off] != '{' {
			b.Fatalf("body of %s is not at %s", m.FullName(), pos)
		}
		out = append(out, off+1)
	}
	if len(out) == 0 {
		b.Fatal("no void method to edit")
	}
	return out
}
