package smt

import "testing"

// FuzzPredicateRoundTrip: any predicate ParsePredicate accepts renders to
// text that parses back to the same render. The solver cache, the store
// and the fingerprint records key and persist formulas by that render, so
// a render that does not parse back cannot be restored from disk. The
// first seed is a raw non-UTF-8 byte in a string constant, which the
// render quotes as \xdb.
func FuzzPredicateRoundTrip(f *testing.F) {
	f.Add("A!=\"\xdb\"")
	f.Add(`s.mode != "a` + "\x01" + `b"`)
	f.Add(`mode == "tab\there" || mode == "quote\"and\\slash"`)
	f.Add(`s != null && s.isClosing() == false && s.ttl > 0`)
	f.Add(`!(a || b) && x >= -2 && x < y`)
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParsePredicate(src)
		if err != nil {
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
