package contract_test

import (
	"errors"
	"reflect"
	"testing"

	"lisa/internal/contract"
	"lisa/internal/core"
	"lisa/internal/corpus"
)

// specView is what a spec says about one rule, in comparable form.
type specView struct {
	ID, Description, HighLevel string
	Kind                       contract.Kind
	Callee, Within             string
	Bind                       map[string]int
	Pre, Post                  string
	Hazard                     string
	Scope                      []string
}

func viewOf(sems []*contract.Semantic) []specView {
	out := make([]specView, len(sems))
	for i, sem := range sems {
		v := specView{
			ID: sem.ID, Description: sem.Description, HighLevel: sem.HighLevel, Kind: sem.Kind,
			Callee: sem.Target.Callee, Within: sem.Target.Within, Bind: sem.Target.Bind,
		}
		if sem.Pre != nil {
			v.Pre = sem.Pre.String()
		}
		if sem.Post != nil {
			v.Post = sem.Post.String()
		}
		if sem.Structural != nil {
			v.Hazard = sem.Structural.Hazard.Rule()
			v.Scope = sem.Structural.Scope()
		}
		out[i] = v
	}
	return out
}

// FuzzSpecRoundTrip: for any spec ParseSpec accepts, FormatSpec of the
// rules parses again, formatting those gives the same bytes, and both
// parses agree on every rule's ID, kind, target, bindings, conditions,
// scope and descriptions; every spec it rejects gets a
// *contract.ParseError, which carries the line. A case's registry record is its rules'
// FormatSpec, restored with ParseSpec, so a spec that fails this could
// not be restored. Seeds: every corpus case's inferred registry and the
// specs of this package's tests.
func FuzzSpecRoundTrip(f *testing.F) {
	for _, cs := range corpus.Load().Cases {
		e := core.New()
		for _, tk := range cs.Tickets {
			if _, err := e.ProcessTicket(tk); err != nil {
				f.Fatalf("%s: %v", tk.ID, err)
			}
		}
		f.Add(contract.FormatSpec(e.Registry.All()))
	}
	for _, spec := range contract.SpecSeeds {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, src string) {
		first, err := contract.ParseSpec(src)
		if err != nil {
			// Every rejection carries its line.
			var perr *contract.ParseError
			if !errors.As(err, &perr) {
				t.Fatalf("%q: error %q is not a contract.ParseError", src, err)
			}
			return
		}
		text := contract.FormatSpec(first)
		second, err := contract.ParseSpec(text)
		if err != nil {
			t.Fatalf("FormatSpec of %q does not parse: %v\n%s", src, err, text)
		}
		if again := contract.FormatSpec(second); again != text {
			t.Fatalf("FormatSpec of %q is not stable:\n%s\nthen:\n%s", src, text, again)
		}
		if a, b := viewOf(first), viewOf(second); !reflect.DeepEqual(a, b) {
			t.Fatalf("round trip of %q changed the rules:\n%+v\nthen:\n%+v", src, a, b)
		}
	})
}
