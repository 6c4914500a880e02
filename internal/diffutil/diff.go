// Package diffutil implements a line-based Myers diff and unified-format
// rendering. Ticket bundles carry the code patch both as text (for the
// embedding index and for display) and as the pair of full sources (for the
// AST-level guard extraction in the inference engine); this package produces
// the textual form, and the line counts a gate reports.
package diffutil

import (
	"fmt"
	"strings"
)

// EditKind classifies one line of a diff script.
type EditKind int

// Edit kinds.
const (
	Keep EditKind = iota
	Delete
	Insert
)

// Edit is one line-level edit. ALine/BLine are 1-based line numbers in the
// respective sides; a Delete has BLine 0 and an Insert has ALine 0.
type Edit struct {
	Kind  EditKind
	Text  string
	ALine int
	BLine int
}

// SplitLines splits s into lines without trailing newlines. An empty string
// yields no lines.
func SplitLines(s string) []string {
	if s == "" {
		return nil
	}
	s = strings.TrimSuffix(s, "\n")
	return strings.Split(s, "\n")
}

// Diff computes a minimal line-based edit script turning a into b using the
// Myers O(ND) algorithm.
func Diff(a, b string) []Edit {
	al, bl := SplitLines(a), SplitLines(b)
	return diffLines(al, bl)
}

func diffLines(a, b []string) []Edit {
	n, m := len(a), len(b)
	maxD := n + m
	if maxD == 0 {
		return nil
	}
	// v[k] = furthest x on diagonal k; offset by maxD.
	v := make([]int, 2*maxD+1)
	var trace [][]int
	var endD int
found:
	for d := 0; d <= maxD; d++ {
		vc := make([]int, len(v))
		copy(vc, v)
		trace = append(trace, vc)
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[maxD+k-1] < v[maxD+k+1]) {
				x = v[maxD+k+1]
			} else {
				x = v[maxD+k-1] + 1
			}
			y := x - k
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			v[maxD+k] = x
			if x >= n && y >= m {
				endD = d
				break found
			}
		}
	}
	// Backtrack.
	var rev []Edit
	x, y := n, m
	for d := endD; d > 0; d-- {
		// trace[d] snapshots v at the start of iteration d, i.e. the state
		// after iteration d-1 completed.
		vPrev := trace[d]
		k := x - y
		var prevK int
		if k == -d || (k != d && vPrev[maxD+k-1] < vPrev[maxD+k+1]) {
			prevK = k + 1
		} else {
			prevK = k - 1
		}
		prevX := vPrev[maxD+prevK]
		prevY := prevX - prevK
		for x > prevX && y > prevY {
			rev = append(rev, Edit{Kind: Keep, Text: a[x-1], ALine: x, BLine: y})
			x--
			y--
		}
		if x == prevX {
			rev = append(rev, Edit{Kind: Insert, Text: b[y-1], BLine: y})
			y--
		} else {
			rev = append(rev, Edit{Kind: Delete, Text: a[x-1], ALine: x})
			x--
		}
	}
	for x > 0 && y > 0 {
		rev = append(rev, Edit{Kind: Keep, Text: a[x-1], ALine: x, BLine: y})
		x--
		y--
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Stats summarizes a diff.
type Stats struct {
	Added   int
	Removed int
	Kept    int
}

// Count returns the line counts of a minimal edit script turning a into b,
// the counts of Diff's script, without building a script: it runs Myers'
// forward pass, which keeps one array of furthest reaches, over the lines
// between the common prefix and suffix. Its memory is O(N+M) where Diff's
// is O(D·(N+M)), so a large change costs a gate its lines, not their
// product with the edit distance.
func Count(a, b string) Stats {
	al, bl := SplitLines(a), SplitLines(b)
	pre := 0
	for pre < len(al) && pre < len(bl) && al[pre] == bl[pre] {
		pre++
	}
	suf := 0
	for suf < len(al)-pre && suf < len(bl)-pre && al[len(al)-1-suf] == bl[len(bl)-1-suf] {
		suf++
	}
	x, y := al[pre:len(al)-suf], bl[pre:len(bl)-suf]
	d := editDistance(x, y)
	// A minimal script of d edits deletes (d+N-M)/2 lines and inserts the
	// rest, whichever minimal script it is.
	removed := (d + len(x) - len(y)) / 2
	return Stats{Added: d - removed, Removed: removed, Kept: len(al) - removed}
}

// editDistance is the number of insertions and deletions in a shortest
// edit script turning a into b.
func editDistance(a, b []string) int {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return n + m
	}
	maxD := n + m
	// v[k] = furthest x on diagonal k; offset by maxD.
	v := make([]int, 2*maxD+1)
	for d := 0; ; d++ {
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[maxD+k-1] < v[maxD+k+1]) {
				x = v[maxD+k+1]
			} else {
				x = v[maxD+k-1] + 1
			}
			y := x - k
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			v[maxD+k] = x
			if x >= n && y >= m {
				return d
			}
		}
	}
}

// Changed reports whether the edit script contains any insert or delete.
func Changed(edits []Edit) bool {
	for _, e := range edits {
		if e.Kind != Keep {
			return true
		}
	}
	return false
}

// ReconstructA rebuilds the left side of a diff from its edit script.
func ReconstructA(edits []Edit) string {
	var lines []string
	for _, e := range edits {
		if e.Kind != Insert {
			lines = append(lines, e.Text)
		}
	}
	return joinLines(lines)
}

// ReconstructB rebuilds the right side of a diff from its edit script.
func ReconstructB(edits []Edit) string {
	var lines []string
	for _, e := range edits {
		if e.Kind != Delete {
			lines = append(lines, e.Text)
		}
	}
	return joinLines(lines)
}

func joinLines(lines []string) string {
	if len(lines) == 0 {
		return ""
	}
	return strings.Join(lines, "\n") + "\n"
}

// Unified renders the edit script in unified diff format with the given
// number of context lines.
func Unified(name string, edits []Edit, context int) string {
	if !Changed(edits) {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "--- a/%s\n+++ b/%s\n", name, name)
	hunks := hunkRanges(edits, context)
	for _, h := range hunks {
		aStart, aLen, bStart, bLen := hunkHeader(edits[h.lo:h.hi])
		fmt.Fprintf(&sb, "@@ -%d,%d +%d,%d @@\n", aStart, aLen, bStart, bLen)
		for _, e := range edits[h.lo:h.hi] {
			switch e.Kind {
			case Keep:
				sb.WriteString(" ")
			case Delete:
				sb.WriteString("-")
			case Insert:
				sb.WriteString("+")
			}
			sb.WriteString(e.Text)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

type hunk struct{ lo, hi int }

// hunkRanges groups non-keep edits with surrounding context, merging hunks
// whose context overlaps.
func hunkRanges(edits []Edit, context int) []hunk {
	var out []hunk
	i := 0
	for i < len(edits) {
		if edits[i].Kind == Keep {
			i++
			continue
		}
		lo := i - context
		if lo < 0 {
			lo = 0
		}
		hi := i
		last := i // last non-keep seen
		for hi < len(edits) {
			if edits[hi].Kind != Keep {
				last = hi
				hi++
				continue
			}
			if hi-last > 2*context {
				break
			}
			hi++
		}
		end := last + context + 1
		if end > len(edits) {
			end = len(edits)
		}
		if end < hi {
			hi = end
		}
		out = append(out, hunk{lo: lo, hi: hi})
		i = hi
	}
	return out
}

func hunkHeader(es []Edit) (aStart, aLen, bStart, bLen int) {
	for _, e := range es {
		if e.Kind != Insert {
			if aStart == 0 {
				aStart = e.ALine
			}
			aLen++
		}
		if e.Kind != Delete {
			if bStart == 0 {
				bStart = e.BLine
			}
			bLen++
		}
	}
	if aStart == 0 {
		aStart = 1
	}
	if bStart == 0 {
		bStart = 1
	}
	return aStart, aLen, bStart, bLen
}
