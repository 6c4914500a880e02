package sched

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"lisa/internal/core"
	"lisa/internal/faultinject"
)

var update = flag.Bool("update", false, "rewrite testdata/unit_faults.golden from the current engine")

// TestSiteUnitFaultsRenderLikeParent: the two sites of each rule sit in
// one Prep.processCreate, so the wave runs them as one unit that walks the
// method's caller chains once. Under a panic armed at the first site's
// job, and separately at the walk of eph-0's method, every run must render
// the bytes the engine rendered before sites ran in units (the golden):
// the sequential loop, and the scheduler at widths 1, 2 and 8 over a
// 36-job wave, which spreads over two goroutines. The job panic fires
// before the first site walks, so the second site must walk its chains
// itself and get the paths of a clean run; a holder served before a walk
// filled it fails that. Neither fault leaves a filled holder behind a
// failed job (the walk panic fires before the walk completes), so the
// emptying of a holder whose walk a deadline cut is pinned by
// TestFailedSiteJobDropsChainTops in core, not here.
func TestSiteUnitFaultsRenderLikeParent(t *testing.T) {
	mk, src, tests := topoWorkload(t, 12)
	clean, err := mk().Assert(src, tests)
	if err != nil {
		t.Fatal(err)
	}
	faults := []struct{ name, point string }{
		{"first site job panics", "job:" + core.JobNameSite("eph-0", 0)},
		{"walk of the site method panics", "concolic.paths:Prep0.processCreate"},
	}
	var golden strings.Builder
	for _, f := range faults {
		faultinject.Arm(faultinject.NewPlan(1).Set(f.point, faultinject.Panic))
		seq, err := mk().Assert(src, tests)
		if err != nil {
			faultinject.Disarm()
			t.Fatal(err)
		}
		want := seq.Render()
		for _, workers := range []int{1, 2, 8} {
			rep, _, err := New().Assert(mk(), src, tests, Options{Workers: workers})
			if err != nil {
				faultinject.Disarm()
				t.Fatal(err)
			}
			if got := rep.Render(); got != want {
				t.Errorf("%s, workers=%d: renders differently from the sequential loop", f.name, workers)
			}
		}
		faultinject.Disarm()
		if f.point == faults[0].point {
			if got, want := siteRender(seq.Semantic("eph-0").Sites[1]), siteRender(clean.Semantic("eph-0").Sites[1]); got != want {
				t.Errorf("%s: second site\n%swant, as in a clean run:\n%s", f.name, got, want)
			}
		}
		fmt.Fprintf(&golden, "== %s (%s)\n%s", f.name, f.point, want)
	}
	const path = "testdata/unit_faults.golden"
	if *update {
		if err := os.WriteFile(path, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if golden.String() != string(want) {
		t.Errorf("armed reports differ from %s:\n%s", path, golden.String())
	}
}

// siteRender renders a site's paths with their verdicts and coverage.
func siteRender(r *core.SiteReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "truncated=%v selected=%v\n", r.TreeTruncated, r.SelectedTests)
	for _, p := range r.Paths {
		fmt.Fprintf(&sb, "%s {%s} %s covered=%v\n", p.Verdict, p.Static, p.Static.Key(), p.CoveredBy)
	}
	return sb.String()
}
