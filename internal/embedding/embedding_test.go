package embedding

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"createEphemeralNode", []string{"create", "ephemeral", "node"}},
		{"session.isClosing()", []string{"session", "is", "closing"}},
		{"HBase snapshot TTL", []string{"hbase", "snapshot", "ttl"}},
		{"getBatchedListing v2", []string{"get", "batched", "listing", "v2"}},
		{"", nil},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Tokenize(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func testDocs() []Doc {
	return []Doc{
		{ID: "t1", Text: "create ephemeral node on live session and verify it exists"},
		{ID: "t2", Text: "close session and verify ephemeral node removed"},
		{ID: "t3", Text: "snapshot restore rejects expired snapshot with TTL elapsed"},
		{ID: "t4", Text: "observer namenode returns block locations for listing"},
		{ID: "t5", Text: "compaction purges tombstones after gc grace period"},
	}
}

func TestQueryRanking(t *testing.T) {
	ix := NewIndex(testDocs())
	got := ix.Query("ephemeral node created while session closing", 2)
	if len(got) != 2 {
		t.Fatalf("matches = %v", got)
	}
	if got[0].ID != "t2" && got[0].ID != "t1" {
		t.Errorf("top match = %s, want an ephemeral/session test", got[0].ID)
	}
	for _, m := range got {
		if m.ID == "t5" {
			t.Error("tombstone test should not match an ephemeral query strongly")
		}
	}

	got = ix.Query("expired snapshot TTL check", 1)
	if len(got) == 0 || got[0].ID != "t3" {
		t.Errorf("snapshot query top = %v, want t3", got)
	}

	got = ix.Query("block locations observer", 1)
	if len(got) == 0 || got[0].ID != "t4" {
		t.Errorf("observer query top = %v, want t4", got)
	}
}

func TestQueryNoMatches(t *testing.T) {
	ix := NewIndex(testDocs())
	if got := ix.Query("zzzz qqqq", 5); len(got) != 0 {
		t.Errorf("unknown-term query = %v, want empty", got)
	}
}

func TestSelfSimilarityIsMaximal(t *testing.T) {
	ix := NewIndex(testDocs())
	for _, d := range testDocs() {
		got := ix.Query(d.Text, 1)
		if len(got) == 0 || got[0].ID != d.ID {
			t.Errorf("self query for %s = %v", d.ID, got)
		}
		if math.Abs(got[0].Score-1.0) > 1e-9 {
			t.Errorf("self similarity = %v, want 1.0", got[0].Score)
		}
	}
}

// Property: cosine similarity is symmetric and within [0, 1] for any pair
// of texts drawn from a small vocabulary.
func TestSimilarityProperties(t *testing.T) {
	ix := NewIndex(testDocs())
	vocab := []string{"session", "node", "snapshot", "ttl", "observer", "block", "purge"}
	mk := func(sel []uint8) string {
		var words []string
		for _, s := range sel {
			words = append(words, vocab[int(s)%len(vocab)])
		}
		if len(words) == 0 {
			return "empty"
		}
		out := words[0]
		for _, w := range words[1:] {
			out += " " + w
		}
		return out
	}
	f := func(aw, bw []uint8) bool {
		a, b := mk(aw), mk(bw)
		s1 := ix.Similarity(a, b)
		s2 := ix.Similarity(b, a)
		return math.Abs(s1-s2) < 1e-9 && s1 >= -1e-9 && s1 <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQueryLimitAndOrder(t *testing.T) {
	ix := NewIndex(testDocs())
	all := ix.Query("session node snapshot observer", 0)
	for i := 1; i < len(all); i++ {
		if all[i].Score > all[i-1].Score {
			t.Errorf("matches not sorted: %v", all)
		}
	}
	limited := ix.Query("session node snapshot observer", 2)
	if len(limited) > 2 {
		t.Errorf("limit ignored: %v", limited)
	}
}

// TestQueryTopKMatchesStableSort: Query's k-slot buffer returns exactly the
// first k of a stable sort of every match by score, on random corpora
// whose many repeated documents force exact ties, for k = 0 (every match),
// 1, 3, the corpus size and past it.
func TestQueryTopKMatchesStableSort(t *testing.T) {
	words := []string{"session", "node", "snapshot", "observer", "lease", "ephemeral", "closing", "tree"}
	rng := rand.New(rand.NewSource(1))
	text := func(n int) string {
		parts := make([]string, n)
		for i := range parts {
			parts[i] = words[rng.Intn(len(words))]
		}
		return strings.Join(parts, " ")
	}
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(30)
		// A few distinct texts repeated: equal texts tie exactly.
		distinct := make([]string, 1+rng.Intn(4))
		for i := range distinct {
			distinct[i] = text(1 + rng.Intn(4))
		}
		docs := make([]Doc, n)
		for i := range docs {
			docs[i] = Doc{ID: fmt.Sprintf("d%d", i), Text: distinct[rng.Intn(len(distinct))]}
		}
		ix := NewIndex(docs)
		query := text(1 + rng.Intn(5))
		qv := ix.Embed(query)
		var want []Match
		for i, d := range docs {
			if s := cosine(qv, ix.vecs[i]); s > 0 {
				want = append(want, Match{ID: d.ID, Score: s})
			}
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].Score > want[j].Score })
		for _, k := range []int{0, 1, 3, n, n + 2} {
			w := want
			if k > 0 && len(w) > k {
				w = w[:k]
			}
			if got := ix.Query(query, k); !slices.Equal(got, w) {
				t.Fatalf("round %d, k=%d, query %q over %v:\ngot  %v\nwant %v", round, k, query, docs, got, w)
			}
		}
	}
}
