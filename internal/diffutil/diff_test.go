package diffutil

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDiffIdentical(t *testing.T) {
	a := "one\ntwo\nthree\n"
	if s := Count(a, a); s.Kept != 3 || s.Added != 0 || s.Removed != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestDiffInsertDelete(t *testing.T) {
	if s := Count("a\nb\nc\n", "a\nx\nc\nd\n"); s.Added != 2 || s.Removed != 1 {
		t.Errorf("stats = %+v, want 2 added 1 removed", s)
	}
}

func TestDiffEmptySides(t *testing.T) {
	if s := Count("", ""); s != (Stats{}) {
		t.Errorf("empty stats = %+v", s)
	}
	if s := Count("", "a\nb\n"); s.Added != 2 || s.Removed != 0 {
		t.Errorf("insert-only stats = %+v", s)
	}
	if s := Count("a\nb\n", ""); s.Removed != 2 || s.Added != 0 {
		t.Errorf("delete-only stats = %+v", s)
	}
}

// lcsStats is Count's reference: a minimal insert/delete script keeps a
// longest common subsequence of the lines, removes a's other lines and
// adds b's. The LCS length comes from dynamic programming, not from Myers'
// furthest reaches.
func lcsStats(a, b string) Stats {
	al, bl := SplitLines(a), SplitLines(b)
	// prev[j] is the LCS length of the lines of a seen so far and bl[:j].
	prev, cur := make([]int, len(bl)+1), make([]int, len(bl)+1)
	for _, x := range al {
		for j, y := range bl {
			if x == y {
				cur[j+1] = prev[j] + 1
			} else {
				cur[j+1] = max(prev[j+1], cur[j])
			}
		}
		prev, cur = cur, prev
	}
	lcs := prev[len(bl)]
	return Stats{Added: len(bl) - lcs, Removed: len(al) - lcs, Kept: lcs}
}

// Property: Count gives the line counts of a script that keeps a longest
// common subsequence.
func TestCountMatchesLCS(t *testing.T) {
	f := func(aw, bw []uint8) bool {
		a := wordsToText(aw)
		b := wordsToText(bw)
		return Count(a, b) == lcsStats(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// FuzzDiffStats: for any two sources, Count gives the line counts of a
// script that keeps a longest common subsequence.
func FuzzDiffStats(f *testing.F) {
	f.Add("a\nb\nc\n", "a\nX\nc\nd\n")
	f.Add("", "a\nb\n")
	f.Add("a\nb\n", "")
	f.Add("x\ny\nx\ny\n", "y\nx\ny\nx")
	f.Add("same\n", "same")
	f.Fuzz(func(t *testing.T, a, b string) {
		if got, want := Count(a, b), lcsStats(a, b); got != want {
			t.Fatalf("Count = %+v, the LCS script counts %+v", got, want)
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
