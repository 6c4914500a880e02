package experiments

import (
	"fmt"
	"strings"
	"testing"

	"lisa/internal/callgraph"
	"lisa/internal/concolic"
	"lisa/internal/contract"
	"lisa/internal/core"
	"lisa/internal/corpus"
	"lisa/internal/ticket"
)

// TestSiteWalkMatchesPerChainWalks: the per-site walk shares each chain
// prefix's caller frames between the chains that reach it, so every chain
// must still get exactly the paths and truncation flag ChainStaticPaths
// gives it when walked alone from fresh seeds. The sites of one method
// share their chain tops as well (core.SiteUnits), so every site of a unit
// walked through one ChainTops must get exactly what its own walk gives
// it. It checks every site of every corpus version and of the stress
// system, whose sites each have eight chains over shared prefixes and two
// to a method, under default, NoPrune and NoPrefixPrune options.
func TestSiteWalkMatchesPerChainWalks(t *testing.T) {
	optionSets := map[string]concolic.Options{
		"default":       {},
		"noprune":       {NoPrune: true},
		"noprefixprune": {NoPrefixPrune: true},
	}
	sites, shared, unitSites := 0, 0, 0
	check := func(label string, e *core.Engine, src string, tests []ticket.TestCase) {
		ctx, err := e.Prepare(src, tests, core.StageTimings{})
		if err != nil {
			return // a version that does not build with its suite has no sites
		}
		for _, sem := range e.Registry.All() {
			if sem.Kind == contract.StructuralKind {
				continue
			}
			matched := e.MatchSites(ctx, sem, core.StageTimings{})
			for _, unit := range core.SiteUnits(matched, func(s *contract.Site) *contract.Site { return s }) {
				chains := e.SiteChains(ctx, unit[0], core.StageTimings{}).Chains
				if len(chains) == 0 {
					chains = []callgraph.Path{nil}
				}
				if len(unit) > 1 {
					unitSites += len(unit)
				}
				for name, opts := range optionSets {
					tops := &concolic.ChainTops{}
					for _, site := range unit {
						paths, truncated := concolic.SiteStaticPaths(ctx.ProgAll, site, chains, opts, nil)
						if len(unit) > 1 {
							got, gotTrunc := concolic.SiteStaticPaths(ctx.ProgAll, site, chains, opts, tops)
							for i, chain := range chains {
								if g, w := renderPaths(got[i]), renderPaths(paths[i]); g != w || gotTrunc[i] != truncated[i] {
									t.Fatalf("%s %s %s chain %s (%s):\nshared tops truncated=%v\n%s\nown walk truncated=%v\n%s",
										label, sem.ID, site, chain, name, gotTrunc[i], g, truncated[i], w)
								}
							}
						}
						for i, chain := range chains {
							want, wantTrunc := concolic.ChainStaticPaths(ctx.ProgAll, site, chain, opts)
							if got, w := renderPaths(paths[i]), renderPaths(want); got != w || truncated[i] != wantTrunc {
								t.Fatalf("%s %s %s chain %s (%s):\nsite walk truncated=%v\n%s\nalone truncated=%v\n%s",
									label, sem.ID, site, chain, name, truncated[i], got, wantTrunc, w)
							}
						}
					}
				}
				sites += len(unit)
				if len(chains) > 1 {
					shared += len(unit)
				}
			}
		}
	}
	for _, cs := range corpus.Load().Cases {
		e := core.New()
		for _, tk := range cs.Tickets {
			if _, err := e.ProcessTicket(tk); err != nil {
				t.Fatalf("%s: process %s: %v", cs.ID, tk.ID, err)
			}
		}
		check(cs.ID+" head", e, cs.Head(), cs.Tests)
		if cs.Latest != "" {
			check(cs.ID+" latest", e, cs.Latest, cs.Tests)
		}
		for _, tk := range cs.Tickets {
			check(cs.ID+" "+tk.ID+":buggy", e, tk.BuggySource, cs.Tests)
			check(cs.ID+" "+tk.ID+":fixed", e, tk.FixedSource, cs.Tests)
		}
	}
	src, spec := stressCorpus(4, 6)
	e, err := stressEngine(spec)
	if err != nil {
		t.Fatal(err)
	}
	check("stress", e, src, stressTests())
	e, err = stressEngine(writesSpec)
	if err != nil {
		t.Fatal(err)
	}
	check("shared writes", e, writesSrc, nil)
	if shared < 49 {
		t.Fatalf("%d of %d sites have more than one chain, want the stress system's 48 and the shared-writes site among them", shared, sites)
	}
	if unitSites < 48 {
		t.Fatalf("%d of %d sites share their method with another site, want the stress system's 48 among them", unitSites, sites)
	}
}

// writesSrc has two chains through each of two Mid.relay entry states, and
// relay declares and assigns before its calls: a walk that wrote its seed
// would hand the second chain a different entry state than the first.
const writesSrc = `
class Session {
	bool closing;
}

class DataTree {
	map nodes;

	void createEphemeral(string path, Session owner) {
		nodes.put(path, owner);
	}
}

class Mid {
	DataTree tree;

	void entry(string path, Session s, int mode) {
		if (mode > 0) {
			relay(path, s, mode);
		} else {
			relay(path, s, 0);
		}
	}

	void relay(string path, Session s, int mode) {
		int level = mode;
		mode = 2;
		if (level > 1) {
			create(path, s, mode);
		} else {
			create(path, s, level);
		}
	}

	void create(string path, Session s, int mode) {
		if (mode == 2) {
			if (s == null || s.closing) {
				return;
			}
		}
		tree.createEphemeral(path, s);
	}
}
`

const writesSpec = `
rule walk-writes
description: ephemeral create requires a live session
target: DataTree.createEphemeral
bind: s = arg 1
require: s != null && s.closing == false
`

// renderPaths renders everything a static path carries: its steps with
// their positions, both conditions and the bindings.
func renderPaths(paths []*concolic.StaticPath) string {
	var sb strings.Builder
	for _, p := range paths {
		for _, g := range p.Guards {
			fmt.Fprintf(&sb, "%s@%s ", g, g.Pos)
		}
		fmt.Fprintf(&sb, "| key=%s | full=%s\n", p.Key(), p.FullCond)
	}
	return sb.String()
}
