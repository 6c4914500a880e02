// Package diffutil counts the lines a change adds and removes: the
// `+N -M lines` a gate reports, and whether a new snapshot's source differs
// from the old one at all.
package diffutil

import "strings"

// SplitLines splits s into lines without trailing newlines. An empty string
// yields no lines.
func SplitLines(s string) []string {
	if s == "" {
		return nil
	}
	s = strings.TrimSuffix(s, "\n")
	return strings.Split(s, "\n")
}

// Stats summarizes a diff.
type Stats struct {
	Added   int
	Removed int
	Kept    int
}

// Count returns the line counts of a minimal insert/delete script turning a
// into b, without building a script: it runs Myers' forward pass, which
// keeps one array of furthest reaches, over the lines between the common
// prefix and suffix, so its memory is O(N+M) and a large change costs a
// gate its lines, not their product with the edit distance.
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
