package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"lisa/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata/stress_reports.golden from the current engine")

// TestStressReportGolden pins the rendered report of the E-P1 stress system
// (four replicas of six handlers, each site three branching hops below its
// entry, so every site has eight chains over shared caller prefixes)
// asserted with its test on a default, a NoPrune and an IntraOnly engine.
// The corpus golden covers short chains; this one covers deep chains whose
// inherited conditions repeat along every shared prefix.
func TestStressReportGolden(t *testing.T) {
	src, spec := stressCorpus(4, 6)
	modes := []struct {
		name string
		set  func(*core.Engine)
	}{
		{"default", func(*core.Engine) {}},
		{"noprune", func(e *core.Engine) { e.NoPrune = true }},
		{"intra", func(e *core.Engine) { e.IntraOnly = true }},
	}
	var sb strings.Builder
	for _, m := range modes {
		e, err := stressEngine(spec)
		if err != nil {
			t.Fatal(err)
		}
		m.set(e)
		rep, err := e.Assert(src, stressTests())
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		fmt.Fprintf(&sb, "== stress %s\n", m.name)
		sb.WriteString(rep.Render())
	}
	const golden = "testdata/stress_reports.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want, got := strings.Split(string(raw), "\n"), strings.Split(sb.String(), "\n")
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			t.Fatalf("reports differ from %s at line %d:\n got: %s\nwant: %s\n(rerun with -update only when the change is intended)", golden, i+1, g, w)
		}
	}
}
