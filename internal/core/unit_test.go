package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"lisa/internal/concolic"
	"lisa/internal/contract"
	"lisa/internal/smt"
)

// TestFailedSiteJobDropsChainTops: Mid.work holds two sites of one rule, a
// unit. Entry.run walks far past the walker's cancellation poll before its
// call to Mid.work, so a first site job whose context is already
// cancelled cuts the chain short and fails. The failure must empty the
// unit's chain tops: the second site job, under a live context, must
// render exactly as it does in a unit of its own.
func TestFailedSiteJobDropsChainTops(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`
class Tgt { int n; void put(int v) { n = v; } }
class Mid { Tgt t; void work(int a) { t.put(a); t.put(a); } }
class Entry { Mid m; void run(int a, int b) {
`)
	for i := 0; i < 300; i++ {
		sb.WriteString("if (b > 0) { return; }\n")
	}
	sb.WriteString("if (a > 1) { b = 1; }\nif (a > 2) { b = 2; }\nm.work(a); } }\n")
	sems, err := contract.ParseSpec(`
rule put-positive
description: put takes a positive value
target: Tgt.put
bind: v = arg 0
require: v > 0
`)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	for _, sem := range sems {
		if err := e.Registry.Add(sem); err != nil {
			t.Fatal(err)
		}
	}
	ctx, err := e.Prepare(sb.String(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sem := sems[0]
	sites := e.MatchSites(ctx, sem, nil)
	if units := SiteUnits(sites, func(s *contract.Site) *contract.Site { return s }); len(units) != 1 || len(units[0]) != 2 {
		t.Fatalf("units = %v, want one unit of Mid.work's two sites", units)
	}
	render := func(r *SiteReport) string {
		var out strings.Builder
		fmt.Fprintf(&out, "truncated=%v\n", r.TreeTruncated)
		for _, p := range r.Paths {
			fmt.Fprintf(&out, "%s %s | %s\n", p.Verdict, p.Static, p.Static.Key())
		}
		return out.String()
	}
	alone := e.SiteChains(ctx, sites[1], nil)
	if fail := e.SiteJob(context.Background(), ctx, JobNameSite(sem.ID, 1), alone, nil); fail != nil {
		t.Fatal(fail)
	}
	if len(alone.Paths) == 0 || alone.TreeTruncated {
		t.Fatalf("the second site alone:\n%swant paths and no cut", render(alone))
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, truncated := concolic.SiteStaticPaths(ctx.ProgAll, sites[0], alone.Chains, concolic.Options{Lim: smt.Limits{Ctx: cancelled}}, nil); !truncated[0] {
		t.Fatal("a walk under a cancelled context reached Mid.work: the caller walk is too short to cut")
	}
	tops := UnitTops(2)
	first := e.SiteChains(ctx, sites[0], nil)
	if fail := e.UnitSiteJob(cancelled, ctx, JobNameSite(sem.ID, 0), first, tops, nil); fail == nil || fail.Reason != FailCancelled {
		t.Fatalf("first site job under a cancelled context: failure %v, want %s", fail, FailCancelled)
	}
	second := e.SiteChains(ctx, sites[1], nil)
	if fail := e.UnitSiteJob(context.Background(), ctx, JobNameSite(sem.ID, 1), second, tops, nil); fail != nil {
		t.Fatal(fail)
	}
	if got, want := render(second), render(alone); got != want {
		t.Errorf("second site after a cancelled first:\n%swant, as alone:\n%s", got, want)
	}
}
