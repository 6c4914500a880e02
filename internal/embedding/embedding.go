// Package embedding provides TF-IDF text embeddings with cosine-similarity
// retrieval. It substitutes for the hosted embedding model the paper uses
// (text-embedding-3-large) in the RAG-style test-selection stage: the only
// property that stage needs is a similarity ranking between a path's
// feature description and the test corpus, which TF-IDF preserves at this
// scale.
package embedding

import (
	"math"
	"sort"
	"strings"
	"unicode"
)

// Doc is one indexed document.
type Doc struct {
	ID   string
	Text string
}

// Match is one retrieval result.
type Match struct {
	ID    string
	Score float64
}

// Index is an immutable TF-IDF index over a document set.
type Index struct {
	docs  []Doc
	vocab map[string]int
	idf   []float64
	vecs  [][]sparseEntry
}

type sparseEntry struct {
	term int
	w    float64
}

// Tokenize splits text into lowercase terms, breaking camelCase and
// punctuation, so code identifiers ("createEphemeralNode") share terms with
// prose descriptions ("create an ephemeral node").
func Tokenize(text string) []string {
	var terms []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			terms = append(terms, strings.ToLower(cur.String()))
			cur.Reset()
		}
	}
	prevLower := false
	for _, r := range text {
		switch {
		case unicode.IsLetter(r):
			if unicode.IsUpper(r) && prevLower {
				flush()
			}
			cur.WriteRune(r)
			prevLower = unicode.IsLower(r)
		case unicode.IsDigit(r):
			cur.WriteRune(r)
			prevLower = false
		default:
			flush()
			prevLower = false
		}
	}
	flush()
	return terms
}

// NewIndex builds an index over docs.
func NewIndex(docs []Doc) *Index {
	ix := &Index{docs: docs, vocab: map[string]int{}}
	// Document frequencies.
	tfs := make([]map[int]int, len(docs))
	df := []int{}
	for i, d := range docs {
		tf := map[int]int{}
		for _, term := range Tokenize(d.Text) {
			id, ok := ix.vocab[term]
			if !ok {
				id = len(ix.vocab)
				ix.vocab[term] = id
				df = append(df, 0)
			}
			if tf[id] == 0 {
				df[id]++
			}
			tf[id]++
		}
		tfs[i] = tf
	}
	n := float64(len(docs))
	ix.idf = make([]float64, len(df))
	for t, c := range df {
		// Smoothed IDF keeps ubiquitous terms from zeroing out entirely.
		ix.idf[t] = math.Log((n+1)/(float64(c)+1)) + 1
	}
	ix.vecs = make([][]sparseEntry, len(docs))
	for i, tf := range tfs {
		ix.vecs[i] = ix.vectorize(tf)
	}
	return ix
}

// vectorize builds a unit-norm sparse TF-IDF vector. The norm is summed in
// term order, not map order, so one text always gets the same weights to
// the last bit and equal texts tie exactly.
func (ix *Index) vectorize(tf map[int]int) []sparseEntry {
	vec := make([]sparseEntry, 0, len(tf))
	for t, c := range tf {
		vec = append(vec, sparseEntry{term: t, w: (1 + math.Log(float64(c))) * ix.idf[t]})
	}
	sort.Slice(vec, func(i, j int) bool { return vec[i].term < vec[j].term })
	var norm float64
	for _, e := range vec {
		norm += e.w * e.w
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for i := range vec {
			vec[i].w /= norm
		}
	}
	return vec
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int { return len(ix.docs) }

// Embed converts query text into the index's vector space. Terms outside
// the vocabulary are ignored.
func (ix *Index) Embed(text string) []sparseEntry {
	tf := map[int]int{}
	for _, term := range Tokenize(text) {
		if id, ok := ix.vocab[term]; ok {
			tf[id]++
		}
	}
	return ix.vectorize(tf)
}

// cosine of two unit-norm sorted sparse vectors.
func cosine(a, b []sparseEntry) float64 {
	var dot float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].term < b[j].term:
			i++
		case a[i].term > b[j].term:
			j++
		default:
			dot += a[i].w * b[j].w
			i++
			j++
		}
	}
	return dot
}

// Query returns the top-k documents by cosine similarity to text, ties
// broken by document order; k <= 0 returns every match. Documents with zero
// similarity are omitted.
func (ix *Index) Query(text string, k int) []Match {
	if k <= 0 || k > len(ix.docs) {
		k = len(ix.docs)
	}
	qv := ix.Embed(text)
	// A k-slot buffer ordered by score, the earlier document first on
	// ties, holds exactly what a stable sort of every match would put
	// first.
	top := make([]Match, 0, k)
	for i, d := range ix.docs {
		s := cosine(qv, ix.vecs[i])
		if s <= 0 || (len(top) == k && s <= top[k-1].Score) {
			continue
		}
		if len(top) < k {
			top = append(top, Match{})
		}
		// Entries scoring below s move down a slot; a full buffer drops
		// its last.
		j := len(top) - 1
		for j > 0 && top[j-1].Score < s {
			top[j] = top[j-1]
			j--
		}
		top[j] = Match{ID: d.ID, Score: s}
	}
	return top
}

// Similarity returns the cosine similarity between two texts in this
// index's space.
func (ix *Index) Similarity(a, b string) float64 {
	return cosine(ix.Embed(a), ix.Embed(b))
}
