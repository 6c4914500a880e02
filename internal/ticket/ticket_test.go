package ticket

import (
	"strings"
	"testing"
)

func sample() *Ticket {
	return &Ticket{
		ID:          "SYS-1",
		Title:       "Thing breaks",
		Description: "The thing broke under load.",
		Discussion:  []string{"root cause is the missing guard", "add the check"},
		BuggySource: "class A {\n\tvoid m() {\n\t\tlog(1);\n\t}\n}\n",
		FixedSource: "class A {\n\tvoid m() {\n\t\tlog(2);\n\t}\n}\n",
	}
}

func TestCaseHead(t *testing.T) {
	cs := &Case{
		Tickets: []*Ticket{
			{ID: "T1", FixedSource: "v2"},
			{ID: "T2", FixedSource: "v4"},
		},
	}
	if cs.Head() != "v4" {
		t.Errorf("head = %q, want last fixed source", cs.Head())
	}
	cs.Latest = "v5"
	if cs.Head() != "v5" {
		t.Errorf("head = %q, want latest", cs.Head())
	}
	if cs.Bugs() != 2 {
		t.Errorf("bugs = %d", cs.Bugs())
	}
}

func TestCorpusStats(t *testing.T) {
	c := &Corpus{}
	c.Add(&Case{ID: "a", System: "x", Tickets: []*Ticket{{}, {}},
		Tests: []TestCase{{Name: "t1"}}, FirstReported: 2010, LastReported: 2020})
	c.Add(&Case{ID: "b", System: "x", Tickets: []*Ticket{{}},
		Tests: []TestCase{{Name: "t2"}, {Name: "t3"}}, FirstReported: 2015, LastReported: 2018})
	c.Add(&Case{ID: "c", System: "y", Tickets: []*Ticket{{}, {}, {}}})
	st := c.ComputeStats()
	if st.Cases != 3 || st.Bugs != 6 || st.Systems != 2 || st.TestFiles != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.BySystem["x"].Cases != 2 || st.BySystem["x"].Bugs != 3 || st.BySystem["x"].Span != 10 {
		t.Errorf("x stats = %+v", st.BySystem["x"])
	}
	if c.Get("b") == nil || c.Get("zzz") != nil {
		t.Error("Get broken")
	}
	names := c.SystemNames()
	if len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Errorf("names = %v", names)
	}
}

func TestCaseVersion(t *testing.T) {
	tk := sample()
	c := &Case{ID: "sys", Tickets: []*Ticket{tk}}
	withLatest := &Case{ID: "sys", Tickets: []*Ticket{tk}, Latest: "class Latest {\n}\n"}
	for _, tt := range []struct {
		c       *Case
		spec    string
		want    string
		wantErr string
	}{
		{c, "", tk.FixedSource, ""},
		{c, "head", tk.FixedSource, ""},
		{withLatest, "head", withLatest.Latest, ""},
		{withLatest, "latest", withLatest.Latest, ""},
		{c, "latest", "", "has no latest head"},
		{c, "SYS-1:buggy", tk.BuggySource, ""},
		{c, "SYS-1:fixed", tk.FixedSource, ""},
		{c, "SYS-1:bugy", "", "bad version"},
		{c, "SYS-1", "", "bad version"},
		{c, "SYS-2:buggy", "", "no version"},
	} {
		got, err := tt.c.Version(tt.spec)
		if tt.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Errorf("Version(%q): err = %v, want %q", tt.spec, err, tt.wantErr)
			}
			continue
		}
		if err != nil || got != tt.want {
			t.Errorf("Version(%q) = %q, %v; want %q", tt.spec, got, err, tt.want)
		}
	}
}
