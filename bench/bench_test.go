package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"lisa/internal/corpus"
)

var update = flag.Bool("update", false, "regenerate testdata/verdicts.tsv from fresh-engine gates")

// unknownClass finds the class a compile error says is unknown.
var unknownClass = regexp.MustCompile(`unknown class "(\w+)"`)

// TestMain lets the stress-cold workload re-run the test binary as its
// one-operation child process.
func TestMain(m *testing.M) {
	if spec := os.Getenv(stressOpEnv); spec != "" {
		if err := runStressOp(spec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestOracle regenerates (with -update) or checks the committed corpus
// oracle, and holds it to the documented facts about the corpus: every
// buggy version and every E-M1 mutant blocks on a violation, the two §4
// heads block with 2 and 1 violations, the other 14 heads pass, and every
// fixed version passes. Each answer is a gate with the tests the version
// builds with; a version that does not build with its case's whole suite
// must be refused for exactly that reason, naming a class it lacks.
func TestOracle(t *testing.T) {
	c := corpus.Load()
	versions, err := corpusVersions(c)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		answers := make([]answer, len(versions))
		for i, v := range versions {
			if answers[i], err = freshAnswer(v.cs, v.source, v.tests); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join("testdata", "verdicts.tsv"), []byte(formatOracle(versions, answers)), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skip("regenerated testdata/verdicts.tsv; rebuild before checking it")
	}
	if err := loadOracle(versions); err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	blocked := map[string]int{}
	notBuilding := 0
	for _, v := range versions {
		count[v.class]++
		if v.want.violations < 0 {
			t.Errorf("%s %s %s: oracle answer %s; every version must build with its own tests", v.cs.ID, v.class, v.label, v.want)
		}
		if v.want.verdict == "BLOCKED" && v.want.violations > 0 {
			blocked[v.class]++
		}
		if v.class == "fixed" && v.want.verdict != "PASS" {
			t.Errorf("%s fixed %s: oracle says %s; every fixed version passes with the tests it builds with", v.cs.ID, v.label, v.want)
		}
		if v.builds() {
			continue
		}
		notBuilding++
		res, err := freshGate(v.cs, v.source, v.cs.Tests)
		if err != nil {
			t.Fatal(err)
		}
		var missing []string
		if len(res.Findings) == 1 && strings.HasPrefix(res.Findings[0].Text, "change does not build: system+tests: ") {
			missing = unknownClass.FindStringSubmatch(res.Findings[0].Text)
		}
		if got := resultAnswer(res); got != notBuilt || missing == nil ||
			regexp.MustCompile(`\bclass `+missing[1]+`\b`).MatchString(v.source) {
			t.Errorf("%s %s %s with the whole suite: %s, findings %v; want one \"does not build\" finding naming a class the version lacks",
				v.cs.ID, v.class, v.label, got, res.Findings)
		}
	}
	for class, want := range map[string]int{"head": 16, "buggy": 34, "fixed": 34, "latest": 2, "mutant": 56} {
		if count[class] != want {
			t.Errorf("%d %s versions, want %d", count[class], class, want)
		}
	}
	if blocked["buggy"] != 34 || blocked["mutant"] != 56 {
		t.Errorf("blocked on a violation: %d/34 buggy, %d/56 mutants; every one must", blocked["buggy"], blocked["mutant"])
	}
	if notBuilding != 32 {
		t.Errorf("%d versions do not build with their case's whole suite, want 32 (the timed workloads draw from the other 110)", notBuilding)
	}
	sec4 := map[string]int{"hbase-snapshot-ttl": 2, "hdfs-observer-locations": 1}
	for _, v := range versions {
		if v.class != "head" && v.class != "latest" {
			continue
		}
		want := answer{verdict: "PASS"}
		if n, ok := sec4[v.cs.ID]; ok {
			want = answer{verdict: "BLOCKED", violations: n}
		}
		if v.want != want {
			t.Errorf("%s %s: oracle says %s, want %s", v.cs.ID, v.class, v.want, want)
		}
	}
}

// TestEditsKeepTheBaseAnswer gates 300 seeded dead-local edits on fresh
// engines: each must give its base version's answer, which is what the
// daemon-churn workload checks its gates against.
func TestEditsKeepTheBaseAnswer(t *testing.T) {
	in, err := loadInputs()
	if err != nil {
		t.Fatal(err)
	}
	cfg := &config{workload: "daemon-churn", seed: 7}
	rng := cfg.rng()
	n := 300
	if testing.Short() {
		n = 30
	}
	for k := 1; k <= n; k++ {
		v := in.drawn[rng.IntN(len(in.drawn))]
		got, err := freshAnswer(v.cs, v.edit(k, rng.IntN(1<<20)), v.cs.Tests)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.check(got); err != nil {
			t.Errorf("edit %d: %v", k, err)
		}
	}
}

// TestEditTouchesOnlyVoidMethods checks where edits land.
func TestEditTouchesOnlyVoidMethods(t *testing.T) {
	in, err := loadInputs()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range in.versions {
		for m := range v.voidBodies {
			src := v.edit(42, m)
			i := strings.Index(src, " int benchEdit42 = 42;")
			head := src[:i]
			decl := head[strings.LastIndex(head, "\n")+1:]
			if !strings.Contains(decl, "void ") || !strings.HasSuffix(decl, "{") {
				t.Fatalf("%s %s: edit %d lands after %q, not at the start of a void method", v.cs.ID, v.label, m, decl)
			}
		}
	}
}

// TestWorkloadsSmoke runs every workload at a tiny size, untraced and
// traced, and checks that no operation fails, that every metric is
// printed with its unit, and that the trace covers every layer.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	lisa, err := buildLisa(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	traces := map[string]*tracer{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := &config{workload: w.name, seed: 3, ops: 20, clients: w.clients, setups: 2, sites: 50, lisa: lisa, tmp: t.TempDir()}
			if w.name == "stress-cold" {
				cfg.ops = 3
			}
			if traced {
				cfg.trace = newTracer()
				traces[w.name] = cfg.trace
			}
			r, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if r.Failed != 0 || r.Attempted < cfg.ops {
				t.Errorf("%s traced=%v: %d of %d operations failed (first: %s)", w.name, traced, r.Failed, r.Attempted, r.firstErr)
			}
			specs := endToEnd
			if traced {
				for _, m := range endToEnd {
					if _, ok := r.Metrics[m.name]; !ok {
						t.Errorf("%s traced: end-to-end metric %s missing", w.name, m.name)
					}
				}
				specs = perLayer
			}
			if err := emit(r, traced); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			for _, m := range specs {
				got, ok := r.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.name, got, m.unit)
				}
			}
			if len(r.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(r.Metrics), len(specs))
			}
		}
	}
	checkTraceFile(t, traces)
}

// TestTracedStressReplica checks that the traced stress replica, which
// runs the sequential engine loop from its public stage primitives,
// renders the report core.Engine.Assert renders, byte for byte.
func TestTracedStressReplica(t *testing.T) {
	cfg := &config{workload: "stress-cold", seed: 5}
	sys := newStressSystem(cfg.rng(), 50)
	e, err := sys.engine()
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Assert(sys.src, sys.tests)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.check(want); err != nil {
		t.Fatal(err)
	}
	if e, err = sys.engine(); err != nil {
		t.Fatal(err)
	}
	got, err := replicaAssert(newTracer(), 0, e, sys, perOp{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Render() != want.Render() {
		t.Fatalf("replica report differs from Engine.Assert:\n%s\nwant:\n%s", got.Render(), want.Render())
	}
}

// checkTraceFile checks that a written trace is trace-event JSON with a
// span of every layer the spans cover.
func checkTraceFile(t *testing.T, runs map[string]*tracer) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, runs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 || !strings.HasPrefix(ev.Name, ev.Cat+".") {
			t.Fatalf("bad event %+v", ev)
		}
		seen[ev.Cat] = true
	}
	for _, layer := range []string{"server", "ci", "sched", "program", "callgraph", "contract", "concolic", "smt", "store", "infer", "process"} {
		if !seen[layer] {
			t.Errorf("no %s span in the trace", layer)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json describes this benchmark.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, want %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, at most 200 fit", w.name, len(w.why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d end-to-end and %d per-layer metrics, want %d and %d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end metric %d is %+v, want %+v", i, got, m)
		}
	}
	for i, m := range perLayer {
		got := doc.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d is %+v, want %+v", i, got, m)
		}
	}
}

// TestSpreadMatchesPython pins spreadOf to Python's statistics module:
// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25] and the
// median is 5.5.
func TestSpreadMatchesPython(t *testing.T) {
	med, spread := spreadOf([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if med != 5.5 || spread != (8.25-2.75)/5.5 {
		t.Fatalf("median %v spread %v, want 5.5 and %v", med, spread, (8.25-2.75)/5.5)
	}
}
