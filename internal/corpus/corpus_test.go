package corpus

import (
	"strings"
	"testing"

	"lisa/internal/contract"
	"lisa/internal/core"
	"lisa/internal/infer"
	"lisa/internal/interp"
	"lisa/internal/minij"
)

func TestStudyStatistics(t *testing.T) {
	c := Load()
	st := c.ComputeStats()
	if st.Cases != 16 {
		t.Errorf("cases = %d, want 16", st.Cases)
	}
	if st.Bugs != 34 {
		t.Errorf("bugs = %d, want 34", st.Bugs)
	}
	if st.Systems != 4 {
		t.Errorf("systems = %d, want 4", st.Systems)
	}
	names := c.SystemNames()
	want := []string{"cassandrasim", "hbasesim", "hdfssim", "zksim"}
	for i, w := range want {
		if names[i] != w {
			t.Errorf("system %d = %q, want %q", i, names[i], w)
		}
	}
	zk := c.Get("zk-ephemeral")
	if zk == nil || zk.FeatureBugCount != 46 || zk.LastReported-zk.FirstReported != 14 {
		t.Errorf("zk-ephemeral longevity stats wrong: %+v", zk)
	}
}

// TestEveryVersionCompiles validates every source snapshot in the corpus.
func TestEveryVersionCompiles(t *testing.T) {
	for _, cs := range Load().Cases {
		for _, tk := range cs.Tickets {
			for _, src := range map[string]string{"buggy": tk.BuggySource, "fixed": tk.FixedSource} {
				prog, err := minij.Parse(src)
				if err != nil {
					t.Errorf("%s/%s: parse: %v", cs.ID, tk.ID, err)
					continue
				}
				if err := minij.Check(prog); err != nil {
					t.Errorf("%s/%s: check: %v", cs.ID, tk.ID, err)
				}
			}
			if tk.BuggySource == tk.FixedSource {
				t.Errorf("%s/%s: buggy and fixed are identical", cs.ID, tk.ID)
			}
		}
		if cs.Latest != "" {
			prog, err := minij.Parse(cs.Latest)
			if err != nil {
				t.Errorf("%s: latest: %v", cs.ID, err)
				continue
			}
			if err := minij.Check(prog); err != nil {
				t.Errorf("%s: latest check: %v", cs.ID, err)
			}
		}
	}
}

// TestSuitePassesOnHead replays every case's full test suite against its
// newest source: the suites must be green at head, like any real system's.
func TestSuitePassesOnHead(t *testing.T) {
	for _, cs := range Load().Cases {
		head := cs.Head()
		for _, tc := range cs.Tests {
			full := head + "\n" + tc.Source
			prog, err := minij.Parse(full)
			if err != nil {
				t.Errorf("%s/%s: parse: %v", cs.ID, tc.Name, err)
				continue
			}
			if err := minij.Check(prog); err != nil {
				t.Errorf("%s/%s: check: %v", cs.ID, tc.Name, err)
				continue
			}
			in := interp.New(prog)
			if _, err := in.CallStatic(tc.Class, tc.Method); err != nil {
				t.Errorf("%s/%s: run: %v", cs.ID, tc.Name, err)
			}
		}
	}
}

// TestRegressionTestsPassOnFix replays each ticket's regression tests on
// that ticket's fixed source.
func TestRegressionTestsPassOnFix(t *testing.T) {
	for _, cs := range Load().Cases {
		for _, tk := range cs.Tickets {
			for _, tc := range tk.RegressionTests {
				full := tk.FixedSource + "\n" + tc.Source
				prog, err := minij.Parse(full)
				if err != nil {
					t.Errorf("%s/%s/%s: parse: %v", cs.ID, tk.ID, tc.Name, err)
					continue
				}
				if err := minij.Check(prog); err != nil {
					t.Errorf("%s/%s/%s: check: %v", cs.ID, tk.ID, tc.Name, err)
					continue
				}
				in := interp.New(prog)
				if _, err := in.CallStatic(tc.Class, tc.Method); err != nil {
					t.Errorf("%s/%s/%s: run: %v", cs.ID, tk.ID, tc.Name, err)
				}
			}
		}
	}
}

// TestEveryTicketYieldsGroundedSemantics checks that inference extracts at
// least one cross-check-grounded semantic from every ticket bundle.
func TestEveryTicketYieldsGroundedSemantics(t *testing.T) {
	pa := &infer.PatchAnalyzer{Generalize: true}
	for _, cs := range Load().Cases {
		for _, tk := range cs.Tickets {
			res, err := pa.Infer(tk)
			if err != nil {
				t.Errorf("%s/%s: infer: %v", cs.ID, tk.ID, err)
				continue
			}
			if len(res.Semantics) == 0 {
				t.Errorf("%s/%s: no semantics inferred", cs.ID, tk.ID)
				continue
			}
			kept, rejected := infer.FilterGrounded(res, tk)
			if len(kept) == 0 {
				t.Errorf("%s/%s: nothing grounded; rejections: %v", cs.ID, tk.ID, rejected)
			}
		}
	}
}

// TestRulePreventsEveryRegression is the corpus-wide Figure 1/3 replay:
// for every case, the rule inferred from the FIRST fix must flag every
// later ticket's buggy version (the regression) while passing that
// ticket's fixed version.
func TestRulePreventsEveryRegression(t *testing.T) {
	for _, cs := range Load().Cases {
		e := core.New()
		if _, err := e.ProcessTicket(cs.Tickets[0]); err != nil {
			t.Errorf("%s: process first ticket: %v", cs.ID, err)
			continue
		}
		if e.Registry.Len() == 0 {
			t.Errorf("%s: no rules registered from first fix", cs.ID)
			continue
		}
		for _, tk := range cs.Tickets[1:] {
			rep, err := e.Assert(tk.BuggySource, nil)
			if err != nil {
				t.Errorf("%s/%s: assert buggy: %v", cs.ID, tk.ID, err)
				continue
			}
			if rep.Counts.Violations == 0 {
				t.Errorf("%s/%s: regression NOT caught by rule from first fix", cs.ID, tk.ID)
			}
			repFixed, err := e.Assert(tk.FixedSource, nil)
			if err != nil {
				t.Errorf("%s/%s: assert fixed: %v", cs.ID, tk.ID, err)
				continue
			}
			if repFixed.Counts.Violations != 0 {
				t.Errorf("%s/%s: false positives on fixed version: %v", cs.ID, tk.ID, repFixed.Violations())
			}
		}
	}
}

// TestLatestHeadsCarryUnknownBugs reproduces §4: on the two cases with a
// "latest" head, the rules inferred from the historical fixes flag the
// still-unguarded paths (Bug #1 in hbasesim, Bug #2 in hdfssim).
func TestLatestHeadsCarryUnknownBugs(t *testing.T) {
	cases := map[string]struct {
		wantViolations int
		wantMethods    []string
	}{
		"hbase-snapshot-ttl": {
			wantViolations: 2,
			wantMethods:    []string{"ExportHandler.exportSnapshot", "ScanHandler.scanSnapshot"},
		},
		"hdfs-observer-locations": {
			wantViolations: 1,
			wantMethods:    []string{"BatchedListingServer.getBatchedListing"},
		},
	}
	corpus := Load()
	for id, want := range cases {
		cs := corpus.Get(id)
		if cs == nil || cs.Latest == "" {
			t.Errorf("%s: missing latest head", id)
			continue
		}
		e := core.New()
		for _, tk := range cs.Tickets {
			if _, err := e.ProcessTicket(tk); err != nil {
				t.Errorf("%s/%s: %v", id, tk.ID, err)
			}
		}
		rep, err := e.Assert(cs.Latest, cs.Tests)
		if err != nil {
			t.Errorf("%s: assert latest: %v", id, err)
			continue
		}
		if rep.Counts.Violations != want.wantViolations {
			t.Errorf("%s: violations = %d, want %d:\n%v", id, rep.Counts.Violations, want.wantViolations, rep.Violations())
		}
		found := map[string]bool{}
		for _, v := range rep.Violations() {
			for _, m := range want.wantMethods {
				if strings.Contains(v, m) {
					found[m] = true
				}
			}
		}
		for _, m := range want.wantMethods {
			if !found[m] {
				t.Errorf("%s: expected violation in %s; got %v", id, m, rep.Violations())
			}
		}
		// Sanity: the guarded paths still verify.
		for _, sr := range rep.Semantics {
			if sr.Semantic.Kind == contract.StateKind && !sr.SanityOK {
				t.Errorf("%s: sanity failed for %s", id, sr.Semantic.ID)
			}
		}
	}
}

// TestFigure6Generalization replays the zk-sync-serialize case: the
// literal (scoped) rule from the first fix misses the ACL cache regression
// while the generalized rule catches it.
func TestFigure6Generalization(t *testing.T) {
	cs := Load().Get("zk-sync-serialize")
	pa := &infer.PatchAnalyzer{Generalize: true}
	res, err := pa.Infer(cs.Tickets[0])
	if err != nil {
		t.Fatal(err)
	}
	var literal, general *contract.Semantic
	for _, s := range res.Semantics {
		if s.Kind != contract.StructuralKind {
			continue
		}
		if len(s.Structural.Only) > 0 {
			literal = s
		} else {
			general = s
		}
	}
	if literal == nil || general == nil {
		t.Fatalf("expected literal and general rules, got %v", res.Semantics)
	}
	regressed, err := minij.Parse(cs.Tickets[1].BuggySource)
	if err != nil {
		t.Fatal(err)
	}
	if err := minij.Check(regressed); err != nil {
		t.Fatal(err)
	}
	if vs := literal.Structural.Check(regressed); len(vs) != 0 {
		t.Errorf("literal rule unexpectedly caught the new-function regression: %v", vs)
	}
	vs := general.Structural.Check(regressed)
	if len(vs) == 0 {
		t.Error("generalized rule missed the ACL cache regression")
	}
	for _, v := range vs {
		if v.Method.FullName() != "ReferenceCountedACLCache.serialize" {
			t.Errorf("unexpected violation site: %v", v)
		}
	}
}

// TestDynamicConfirmationOnRegressions replays each case's full test suite
// on the last regression's buggy version and requires at least one case
// where a selected test dynamically covers the violating path.
func TestDynamicAssertOverSuites(t *testing.T) {
	for _, cs := range Load().Cases {
		e := core.New()
		if _, err := e.ProcessTicket(cs.Tickets[0]); err != nil {
			t.Fatalf("%s: %v", cs.ID, err)
		}
		last := cs.Tickets[len(cs.Tickets)-1]
		rep, err := e.Assert(last.BuggySource, cs.Tests)
		if err != nil {
			// Suites may reference classes added only at head (e.g. the
			// latest-only servers); skip those combinations.
			continue
		}
		if rep.Counts.Violations == 0 {
			t.Errorf("%s: no violations on last regression with suite", cs.ID)
		}
	}
}
