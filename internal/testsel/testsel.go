// Package testsel selects the tests that exercise a given execution path —
// the paper's RAG-style "LLM-based similarity search over test embeddings"
// (§3.2). A path is summarized as a feature description (its entry
// function, the methods traversed, and the guard conditions along it), and
// the test corpus is ranked against that description. Selected tests are
// over-approximations: they drive the concolic engine with concrete inputs
// likely to cover the path.
package testsel

import (
	"strings"

	"lisa/internal/callgraph"
	"lisa/internal/concolic"
	"lisa/internal/contract"
	"lisa/internal/embedding"
	"lisa/internal/minij"
	"lisa/internal/ticket"
)

// Selector ranks tests against path features.
type Selector struct {
	tests  []ticket.TestCase
	byName map[string]ticket.TestCase
	index  *embedding.Index
}

// New builds a selector over the test corpus. Each test is embedded from
// its name, natural-language description, and source identifiers.
func New(tests []ticket.TestCase) *Selector {
	docs := make([]embedding.Doc, len(tests))
	byName := make(map[string]ticket.TestCase, len(tests))
	for i, tc := range tests {
		docs[i] = embedding.Doc{ID: tc.Name, Text: tc.Name + " " + tc.Description + " " + tc.Source}
		byName[tc.Name] = tc
	}
	return &Selector{tests: tests, byName: byName, index: embedding.NewIndex(docs)}
}

// Len returns the corpus size.
func (s *Selector) Len() int { return len(s.tests) }

// PathFeature summarizes an execution path for retrieval: the chain of
// methods from the entry function to the target plus the intraprocedural
// guards, which together identify the feature and the condition under
// which the feature takes this path.
func PathFeature(target *contract.Site, chain callgraph.Path, static *concolic.StaticPath) string {
	var sb strings.Builder
	for _, m := range callgraph.MethodsOnPath(chain, target.Method) {
		sb.WriteString(m.FullName())
		sb.WriteByte(' ')
	}
	sb.WriteString(minij.CanonStmt(target.Stmt))
	sb.WriteByte(' ')
	if static != nil {
		for _, g := range static.Guards {
			sb.WriteString(g.Guard)
			sb.WriteByte(' ')
		}
	}
	if target.Semantic != nil {
		sb.WriteString(target.Semantic.Description)
	}
	return sb.String()
}

// Select returns the top-k tests for a feature description, in rank order.
func (s *Selector) Select(feature string, k int) []ticket.TestCase {
	matches := s.index.Query(feature, k)
	out := make([]ticket.TestCase, 0, len(matches))
	for _, m := range matches {
		out = append(out, s.byName[m.ID])
	}
	return out
}

// SelectForSite unions the top-k tests across every (chain, static path)
// pair of a site, preserving first-seen rank order — the per-path selection
// of §3.2 rolled up to the site. Select is a function of the feature text
// alone, and chains that differ only in call positions give the same text,
// so each distinct feature is ranked once. The execution tree puts chains
// through the same methods next to each other, so a chain whose methods
// equal the previous chain's renders nothing.
func (s *Selector) SelectForSite(site *contract.Site, chains []callgraph.Path, statics []*concolic.StaticPath, k int) []ticket.TestCase {
	ranked := map[string]bool{}
	seen := map[string]bool{}
	var out []ticket.TestCase
	add := func(tcs []ticket.TestCase) {
		for _, tc := range tcs {
			if !seen[tc.Name] {
				seen[tc.Name] = true
				out = append(out, tc)
			}
		}
	}
	if len(chains) == 0 {
		chains = []callgraph.Path{nil}
	}
	if len(statics) == 0 {
		statics = []*concolic.StaticPath{nil}
	}
	for i, ch := range chains {
		if i > 0 && sameMethods(ch, chains[i-1]) {
			continue
		}
		for _, sp := range statics {
			feature := PathFeature(site, ch, sp)
			if ranked[feature] {
				continue
			}
			ranked[feature] = true
			add(s.Select(feature, k))
		}
	}
	return out
}

// sameMethods reports whether two chains pass through the same methods, so
// that PathFeature renders them alike.
func sameMethods(a, b callgraph.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Caller != b[i].Caller || a[i].Callee != b[i].Callee {
			return false
		}
	}
	return true
}

// All returns every test in corpus order (the no-selection baseline for the
// test-selection ablation).
func (s *Selector) All() []ticket.TestCase {
	out := make([]ticket.TestCase, len(s.tests))
	copy(out, s.tests)
	return out
}
