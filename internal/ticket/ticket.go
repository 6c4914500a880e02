// Package ticket models historical failure tickets: the input bundles that
// LISA's inference stage consumes. A Ticket is the bundle Figure 5 feeds to
// the LLM: the failure description and developer discussion, the buggy and
// patched sources (the code patch is their difference), and the regression
// tests the developers added. The inferencer reads those fields directly,
// so no run forms the bundle's prompt text.
package ticket

import (
	"fmt"
	"sort"
	"strings"
)

// TestCase is one executable test: a static MiniJ entry method plus the
// natural-language summary that the embedding index retrieves by.
type TestCase struct {
	// Name is a unique label, conventionally "Class.method".
	Name string
	// Description summarizes the scenario in natural language.
	Description string
	// Source is the MiniJ source of the test class(es); it is concatenated
	// with the system source before compilation.
	Source string
	// Class and Method locate the static entry point.
	Class  string
	Method string
}

// Ticket is one failure ticket.
type Ticket struct {
	// ID is the tracker key, e.g. "ZK-1208".
	ID string
	// Title is the one-line summary.
	Title string
	// Description is the reported failure narrative.
	Description string
	// Discussion holds developer comments in order.
	Discussion []string
	// BuggySource is the full system source exhibiting the bug.
	BuggySource string
	// FixedSource is the full system source after the patch.
	FixedSource string
	// RegressionTests are the tests added alongside the fix.
	RegressionTests []TestCase
}

// Case is one regression case from the study: an original bug plus at
// least one recurrence of the same low-level semantic, in one system
// feature area.
type Case struct {
	// ID identifies the case, e.g. "zk-ephemeral".
	ID string
	// System is the simulated system, e.g. "zksim".
	System string
	// Feature names the recurring failure area, e.g. "ephemeral nodes".
	Feature string
	// Description summarizes the recurring failure class.
	Description string
	// Tickets are ordered chronologically: the original bug first, then
	// each regression.
	Tickets []*Ticket
	// Latest is the current head version of the system source (what E-B1
	// and E-B2 style experiments scan for still-missing checks). When
	// empty, the last ticket's FixedSource is the head.
	Latest string
	// Tests is the system's full test suite (shared across tickets).
	Tests []TestCase
	// FirstReported and LastReported are years, for the longevity
	// statistics of §2.1 (e.g. ZooKeeper's ephemeral feature: 46 bugs
	// over 14 years).
	FirstReported int
	LastReported  int
	// FeatureBugCount is the total number of tracker bugs historically
	// associated with the feature (a superset of the studied tickets).
	FeatureBugCount int
}

// Head returns the newest system source of the case.
func (c *Case) Head() string {
	if c.Latest != "" {
		return c.Latest
	}
	if n := len(c.Tickets); n > 0 {
		return c.Tickets[n-1].FixedSource
	}
	return ""
}

// Version returns the system source a version spec names: "head" (or
// empty) for Head, "latest" for Latest, or "<ticket-id>:buggy" and
// "<ticket-id>:fixed" for one ticket's sources.
func (c *Case) Version(spec string) (string, error) {
	switch spec {
	case "", "head":
		return c.Head(), nil
	case "latest":
		if c.Latest == "" {
			return "", fmt.Errorf("case %s has no latest head", c.ID)
		}
		return c.Latest, nil
	}
	id, side, ok := strings.Cut(spec, ":")
	if !ok || (side != "buggy" && side != "fixed") {
		return "", fmt.Errorf("bad version %q (want head, latest, or <ticket-id>:buggy|fixed)", spec)
	}
	for _, tk := range c.Tickets {
		if tk.ID != id {
			continue
		}
		if side == "buggy" {
			return tk.BuggySource, nil
		}
		return tk.FixedSource, nil
	}
	return "", fmt.Errorf("no version %q in case %s", spec, c.ID)
}

// Bugs returns the number of bugs in the case (one per ticket).
func (c *Case) Bugs() int { return len(c.Tickets) }

// Corpus is an ordered collection of regression cases.
type Corpus struct {
	Cases []*Case
}

// Add appends a case.
func (c *Corpus) Add(cs *Case) { c.Cases = append(c.Cases, cs) }

// Get returns the case with the given ID, or nil.
func (c *Corpus) Get(id string) *Case {
	for _, cs := range c.Cases {
		if cs.ID == id {
			return cs
		}
	}
	return nil
}

// Stats aggregates the study numbers reported in §2.1.
type Stats struct {
	Cases     int
	Bugs      int
	Systems   int
	TestFiles int
	// BySystem maps system name to its case and bug counts.
	BySystem map[string]SystemStats
}

// SystemStats is the per-system slice of the study.
type SystemStats struct {
	Cases int
	Bugs  int
	Tests int
	Span  int // years between first and last report across cases
}

// ComputeStats aggregates the corpus.
func (c *Corpus) ComputeStats() Stats {
	st := Stats{BySystem: map[string]SystemStats{}}
	systems := map[string]bool{}
	for _, cs := range c.Cases {
		st.Cases++
		st.Bugs += cs.Bugs()
		st.TestFiles += len(cs.Tests)
		systems[cs.System] = true
		ss := st.BySystem[cs.System]
		ss.Cases++
		ss.Bugs += cs.Bugs()
		ss.Tests += len(cs.Tests)
		if span := cs.LastReported - cs.FirstReported; span > ss.Span {
			ss.Span = span
		}
		st.BySystem[cs.System] = ss
	}
	st.Systems = len(systems)
	return st
}

// SystemNames returns the distinct system names in sorted order.
func (c *Corpus) SystemNames() []string {
	seen := map[string]bool{}
	var out []string
	for _, cs := range c.Cases {
		if !seen[cs.System] {
			seen[cs.System] = true
			out = append(out, cs.System)
		}
	}
	sort.Strings(out)
	return out
}
