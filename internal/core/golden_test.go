package core

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"lisa/internal/corpus"
)

var update = flag.Bool("update", false, "rewrite testdata/corpus_reports.golden from the current engine")

// TestCorpusReportsGolden pins the rendered report of every corpus version
// (each case's head, its latest when it has one, and each ticket's buggy
// and fixed source) asserted with the case's test suite on a default, a
// NoPrune and an IntraOnly engine. A version that does not build with its
// suite records its error line instead. Static enumeration and concolic
// replay both feed these reports, so any drift in either half shows here.
func TestCorpusReportsGolden(t *testing.T) {
	type mode struct {
		name string
		set  func(*Engine)
	}
	modes := []mode{
		{"default", func(*Engine) {}},
		{"noprune", func(e *Engine) { e.NoPrune = true }},
		{"intra", func(e *Engine) { e.IntraOnly = true }},
	}
	var sb strings.Builder
	versions, reports := 0, 0
	for _, cs := range corpus.Load().Cases {
		type version struct{ name, src string }
		vs := []version{{"head", cs.Head()}}
		if cs.Latest != "" {
			vs = append(vs, version{"latest", cs.Latest})
		}
		for _, tk := range cs.Tickets {
			vs = append(vs, version{tk.ID + ":buggy", tk.BuggySource}, version{tk.ID + ":fixed", tk.FixedSource})
		}
		versions += len(vs)
		for _, m := range modes {
			e := New()
			m.set(e)
			for _, tk := range cs.Tickets {
				if _, err := e.ProcessTicket(tk); err != nil {
					t.Fatalf("%s: process %s: %v", cs.ID, tk.ID, err)
				}
			}
			for _, v := range vs {
				fmt.Fprintf(&sb, "== %s %s %s\n", cs.ID, v.name, m.name)
				rep, err := e.Assert(v.src, cs.Tests)
				if err != nil {
					fmt.Fprintf(&sb, "error: %v\n", err)
					continue
				}
				reports++
				sb.WriteString(rep.Render())
			}
		}
	}
	if versions != 86 {
		t.Errorf("%d corpus versions, want 86", versions)
	}
	const golden = "testdata/corpus_reports.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if reports != 162 {
		t.Errorf("%d reports rendered, want 162 (54 building versions in 3 modes)", reports)
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
