package contract

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"lisa/internal/corpus"
	"lisa/internal/minij"
)

// guardedTwiceSrc has statements inside two and three nested synchronized
// blocks.
const guardedTwiceSrc = `
class Store {
	map a;
	map b;
	map c;

	void flush(string k) {
		synchronized (a) {
			synchronized (b) {
				ioWrite("store", k);
			}
		}
	}

	void drain(string k) {
		synchronized (a) {
			synchronized (b) {
				synchronized (c) {
					c.put(k, k);
				}
			}
		}
	}
}
`

// TestLockRuleReportsEachStatementOnce: a statement inside nested
// synchronized blocks is one finding per hazard, not one per enclosing
// block.
func TestLockRuleReportsEachStatementOnce(t *testing.T) {
	prog := compile(t, guardedTwiceSrc)
	for _, tt := range []struct {
		rule *LockRule
		want []string
	}{
		{&LockRule{Hazard: BlockingIO}, []string{
			"no-blocking-io-in-sync: Store.flush @10:5 blocks on ioWrite via [builtin.ioWrite]",
		}},
		{&LockRule{Hazard: NestedLock}, []string{
			"no-nested-sync: Store.drain @17:4 blocks on synchronized via [synchronized]",
			"no-nested-sync: Store.drain @18:5 blocks on synchronized via [synchronized]",
			"no-nested-sync: Store.flush @9:4 blocks on synchronized via [synchronized]",
		}},
	} {
		var got []string
		for _, v := range tt.rule.Check(prog) {
			got = append(got, v.String())
		}
		if !slices.Equal(got, tt.want) {
			t.Errorf("%s findings:\n%s\nwant:\n%s", tt.rule.Name(), strings.Join(got, "\n"), strings.Join(tt.want, "\n"))
		}
	}
}

// lockGoldenDuplicates are the findings the golden file, captured from the
// two checkers LockRule replaced, lists twice because they walked every
// synchronized block, nested ones included. LockRule reports them once.
var lockGoldenDuplicates = []string{
	"no-blocking-io-in-sync: Store.flush @10:5 blocks on ioWrite via [builtin.ioWrite]",
	"no-nested-sync: Store.drain @18:5 blocks on synchronized via [synchronized]",
}

// TestLockRuleGolden: both hazards render the same findings as the checkers
// they replaced on every corpus program that compiles (each head, latest,
// buggy and fixed source, and each head with its suite) and on the
// programs these tests compile, except for the duplicates above.
func TestLockRuleGolden(t *testing.T) {
	type program struct{ name, src string }
	var progs []program
	for _, cs := range corpus.Load().Cases {
		progs = append(progs, program{cs.ID + " head", cs.Head()})
		if cs.Latest != "" {
			progs = append(progs, program{cs.ID + " latest", cs.Latest})
		}
		for _, tk := range cs.Tickets {
			progs = append(progs,
				program{cs.ID + " " + tk.ID + ":buggy", tk.BuggySource},
				program{cs.ID + " " + tk.ID + ":fixed", tk.FixedSource})
		}
		full := cs.Head()
		for _, tc := range cs.Tests {
			full += "\n" + tc.Source
		}
		progs = append(progs, program{cs.ID + " head+tests", full})
	}
	progs = append(progs,
		program{"contract zkLike", zkLikeSrc},
		program{"contract receiver", receiverSrc},
		program{"contract syncBlocking", syncBlockingSrc},
		program{"contract exprPath", exprPathSrc},
		program{"contract nestedSync", nestedSyncSrc},
		program{"contract nestedSync+drive", nestedSyncSrc + driveSrc},
		program{"contract guardedTwice", guardedTwiceSrc},
	)
	var sb strings.Builder
	compiled := 0
	for _, p := range progs {
		prog, err := minij.Parse(p.src)
		if err == nil {
			err = minij.Check(prog)
		}
		if err != nil {
			continue
		}
		compiled++
		fmt.Fprintf(&sb, "== %s\n", p.name)
		for _, h := range []Hazard{BlockingIO, NestedLock} {
			for _, v := range (&LockRule{Hazard: h}).Check(prog) {
				fmt.Fprintf(&sb, "%s\n", v)
			}
		}
	}
	if compiled != 109 {
		t.Errorf("%d programs compiled, want 102 corpus programs and 7 test programs", compiled)
	}
	raw, err := os.ReadFile("testdata/lockrule_findings.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(raw), "\n")
	for _, dup := range lockGoldenDuplicates {
		i := slices.Index(want, dup)
		if i < 0 || i+1 == len(want) || want[i+1] != dup {
			t.Fatalf("golden file does not list %q twice", dup)
		}
		want = slices.Delete(want, i, i+1)
	}
	if got := sb.String(); got != strings.Join(want, "\n") {
		t.Errorf("findings differ from the golden file:\n%s", got)
	}
}
