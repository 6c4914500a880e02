package smt

import (
	"errors"
	"testing"

	"lisa/internal/minij"
)

// FuzzPredicateRoundTrip: any predicate ParsePredicate accepts renders to
// text that parses back to the same render, and every predicate it rejects
// gets a positioned error: a *ParseError, or a wrapped *minij.LexError. The
// solver cache, the store and the fingerprint records key and persist
// formulas by that render, so a render that does not parse back cannot be
// restored from disk. The first seed is a raw non-UTF-8 byte in a string
// constant, which the render quotes as \xdb.
func FuzzPredicateRoundTrip(f *testing.F) {
	f.Add("A!=\"\xdb\"")
	f.Add(`s.mode != "a` + "\x01" + `b"`)
	f.Add(`mode == "tab\there" || mode == "quote\"and\\slash"`)
	f.Add(`s != null && s.isClosing() == false && s.ttl > 0`)
	f.Add(`!(a || b) && x >= -2 && x < y`)
	f.Add(`s.ttl > -x`)
	f.Add(`(a && b`)
	f.Add(`a == "open`)
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParsePredicate(src)
		if err != nil {
			// Every rejection carries its position.
			var perr *ParseError
			var lerr *minij.LexError
			if !errors.As(err, &perr) && !errors.As(err, &lerr) {
				t.Fatalf("%q: error %q carries no position", src, err)
			}
			return
		}
		render := p.String()
		q, err := ParsePredicate(render)
		if err != nil {
			t.Fatalf("render %q of %q does not parse: %v", render, src, err)
		}
		if got := q.String(); got != render {
			t.Fatalf("render %q of %q parses back to %q", render, src, got)
		}
	})
}

// corpusCheckers are the preconditions of the corpus's registered state
// rules, as internal/server/testdata/registry.golden records them.
var corpusCheckers = []string{
	`b.located`,
	`e != null && !(e.stale)`,
	`l != null && !(l.expired)`,
	`n != null && n.fullyReplicated`,
	`node != null && node.alive`,
	`q != null && !(q.exceeded)`,
	`r != null && r.online`,
	`s != null && !(s.closing)`,
	`s != null && !(s.expired)`,
	`s != null && s.validated`,
	`st != null && !(st.safeMode)`,
	`t != null && t.gcEligible`,
	`w != null && !(w.closed)`,
	`w.connected`,
}

// fuzzMaxNodes keeps each solver's search small: the reference solver
// rebuilds its theory state at every node, and an input either solver
// cannot decide within it is skipped.
const fuzzMaxNodes = 1 << 10

// FuzzSolverMatchesReference: for any predicate ParsePredicate accepts
// with at most 12 atoms, the optimized solver with no cache, the same
// query through a fresh result cache (asked twice, so the second answer
// is a memory hit) and the naive reference solver agree. Seeds are the
// corpus checkers, their complements, and the differential tests' random
// formulas.
func FuzzSolverMatchesReference(f *testing.F) {
	for _, checker := range corpusCheckers {
		f.Add(checker)
		f.Add("!(" + checker + ")")
	}
	r := newTestRng(42)
	for i := 0; i < 32; i++ {
		f.Add(genDiffFormula(r, 4).String())
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParsePredicate(src)
		if err != nil || len(Atoms(p)) > 12 {
			return
		}
		lim := Limits{MaxNodes: fuzzMaxNodes}
		ref, _, refErr := ReferenceSolve(p, lim)
		direct, directErr := SATLim(p, lim)
		c := NewQueryCache(0)
		lim.Cache = c
		cold, coldErr := SATLim(p, lim)
		warm, warmErr := SATLim(p, lim)
		for _, err := range []error{refErr, directErr, coldErr, warmErr} {
			if errors.Is(err, ErrBudget) {
				return
			}
			if err != nil {
				t.Fatalf("%q: unexpected solver error %v", src, err)
			}
		}
		if direct != ref || cold != ref || warm != ref {
			t.Fatalf("%q: reference sat=%v, uncached %v, cached cold %v, cached warm %v", src, ref, direct, cold, warm)
		}
		if _, isConst := p.(*Const); !isConst && c.memHits.Load() != 1 {
			t.Fatalf("%q: second cached ask was not a memory hit (%d memory hits)", src, c.memHits.Load())
		}
	})
}
