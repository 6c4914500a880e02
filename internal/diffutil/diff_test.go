package diffutil

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDiffIdentical(t *testing.T) {
	a := "one\ntwo\nthree\n"
	edits := Diff(a, a)
	if Changed(edits) {
		t.Errorf("identical inputs produced changes: %v", edits)
	}
	if s := scriptStats(edits); s.Kept != 3 || s.Added != 0 || s.Removed != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestDiffInsertDelete(t *testing.T) {
	a := "a\nb\nc\n"
	b := "a\nx\nc\nd\n"
	edits := Diff(a, b)
	s := scriptStats(edits)
	if s.Added != 2 || s.Removed != 1 {
		t.Errorf("stats = %+v, want 2 added 1 removed", s)
	}
}

func TestDiffEmptySides(t *testing.T) {
	if edits := Diff("", ""); len(edits) != 0 {
		t.Errorf("empty diff = %v", edits)
	}
	edits := Diff("", "a\nb\n")
	if s := scriptStats(edits); s.Added != 2 || s.Removed != 0 {
		t.Errorf("insert-only stats = %+v", s)
	}
	edits = Diff("a\nb\n", "")
	if s := scriptStats(edits); s.Removed != 2 || s.Added != 0 {
		t.Errorf("delete-only stats = %+v", s)
	}
}

// scriptStats counts an edit script's lines by kind.
func scriptStats(edits []Edit) Stats {
	var s Stats
	for _, e := range edits {
		switch e.Kind {
		case Insert:
			s.Added++
		case Delete:
			s.Removed++
		default:
			s.Kept++
		}
	}
	return s
}

// Property: reconstructing each side from the edit script yields the
// original inputs (normalized to trailing-newline form).
func TestDiffReconstructs(t *testing.T) {
	f := func(aw, bw []uint8) bool {
		a := wordsToText(aw)
		b := wordsToText(bw)
		edits := Diff(a, b)
		return ReconstructA(edits) == a && ReconstructB(edits) == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the edit script is minimal enough to never mark a line both
// kept and changed, and keeps are actually equal lines.
func TestDiffKeepsAreEqualLines(t *testing.T) {
	f := func(aw, bw []uint8) bool {
		a := wordsToText(aw)
		b := wordsToText(bw)
		al, bl := SplitLines(a), SplitLines(b)
		for _, e := range Diff(a, b) {
			if e.Kind == Keep {
				if e.ALine < 1 || e.ALine > len(al) || e.BLine < 1 || e.BLine > len(bl) {
					return false
				}
				if al[e.ALine-1] != bl[e.BLine-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Count gives the line counts of Diff's edit script.
func TestCountMatchesDiff(t *testing.T) {
	f := func(aw, bw []uint8) bool {
		a := wordsToText(aw)
		b := wordsToText(bw)
		return Count(a, b) == scriptStats(Diff(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// FuzzDiffStats: for any two sources, Count gives the line counts of
// Diff's edit script.
func FuzzDiffStats(f *testing.F) {
	f.Add("a\nb\nc\n", "a\nX\nc\nd\n")
	f.Add("", "a\nb\n")
	f.Add("a\nb\n", "")
	f.Add("x\ny\nx\ny\n", "y\nx\ny\nx")
	f.Add("same\n", "same")
	f.Fuzz(func(t *testing.T, a, b string) {
		if got, want := Count(a, b), scriptStats(Diff(a, b)); got != want {
			t.Fatalf("Count = %+v, Diff's script counts %+v", got, want)
		}
	})
}

// wordsToText maps random bytes onto a tiny vocabulary so diffs contain
// realistic mixes of matches and mismatches.
func wordsToText(ws []uint8) string {
	vocab := []string{"alpha", "beta", "gamma", "delta"}
	var lines []string
	for _, w := range ws {
		lines = append(lines, vocab[int(w)%len(vocab)])
	}
	if len(lines) == 0 {
		return ""
	}
	return strings.Join(lines, "\n") + "\n"
}

func TestUnifiedFormat(t *testing.T) {
	a := "one\ntwo\nthree\nfour\nfive\nsix\nseven\n"
	b := "one\ntwo\nTHREE\nfour\nfive\nsix\nseven\n"
	out := Unified("file.mj", Diff(a, b), 2)
	if !strings.HasPrefix(out, "--- a/file.mj\n+++ b/file.mj\n") {
		t.Errorf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "-three\n+THREE\n") {
		t.Errorf("missing change lines:\n%s", out)
	}
	if strings.Contains(out, " seven") {
		t.Errorf("context too wide (seven beyond 2 lines of context):\n%s", out)
	}
	if !strings.Contains(out, "@@ ") {
		t.Errorf("missing hunk header:\n%s", out)
	}
}

func TestUnifiedNoChanges(t *testing.T) {
	if out := Unified("f", Diff("a\n", "a\n"), 3); out != "" {
		t.Errorf("unchanged unified = %q, want empty", out)
	}
}

func TestUnifiedMergesNearbyHunks(t *testing.T) {
	a := "1\n2\n3\n4\n5\n"
	b := "1\nX\n3\nY\n5\n"
	out := Unified("f", Diff(a, b), 2)
	if strings.Count(out, "@@ ") != 1 {
		t.Errorf("want 1 merged hunk, got:\n%s", out)
	}
}
