// Package program provides immutable, content-addressed snapshots of one
// program version. A Snapshot owns the whole front-end pipeline for its
// source — parse → resolve → canonical print/hash → call graph — computed
// once and memoized, so every layer that replays the same version (the
// engine's Prepare, the scheduler's fingerprints and dirty sets, the CI
// gate, the corpus-replay experiments) shares one compilation instead of
// re-doing the front-end work per call site.
//
// Snapshots are keyed by the sha256 of their raw source and served from a
// bounded LRU Cache: a private one, or the process-wide DefaultCache that
// callers name.
// A system snapshot's analysis program — the system with its test suite —
// is a linked snapshot in the same LRU (Cache.Link): the suite, parsed
// once, is linked onto the system's shared program instead of compiling
// the concatenated sources.
// Everything a Snapshot exposes is computed lazily at most once and is
// read-only from then on; Verify detects a caller that mutated the shared
// AST in spite of the contract. Callers that need a mutable AST (e.g. the
// mutation experiments) use Compile, which returns a fresh, caller-owned
// program that never touches the cache.
package program

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"lisa/internal/callgraph"
	"lisa/internal/faultinject"
	"lisa/internal/lru"
	"lisa/internal/minij"
	"lisa/internal/store"
)

// DefaultCapacity is the entry bound of the process-wide cache: large
// enough to hold every distinct version of the corpus replay sweeps
// (heads, buggy/fixed pairs, and mutants with their test combinations).
const DefaultCapacity = 512

// Snapshot is one immutable program version. The zero value is not usable;
// snapshots are created by a Cache (shared, content-addressed) or not at
// all — Compile hands out raw programs for callers that must mutate.
type Snapshot struct {
	source string
	hash   string
	cache  *Cache

	compileOnce sync.Once
	prog        *minij.Program
	err         error
	// digests are taken from the program's one canonical render.
	digests

	graphOnce sync.Once
	graph     *callgraph.Graph

	shapeOnce sync.Once
	shape     string

	memoMu sync.Mutex
	memo   map[string]any

	// A linked snapshot (Cache.Link) has no source of its own: it extends
	// sys's program with a private copy of suite's classes, testClasses.
	sys         *Snapshot
	suite       *Suite
	testClasses []*minij.Class
	linkFailed  bool
}

// Hash returns the content address of a source string (sha256, hex).
func Hash(source string) string {
	return hashBytes([]byte(source))
}

func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// HashParts digests a sequence of strings into a short fingerprint (the
// first 16 bytes of a sha256, hex). Each part is framed as "<len>:<part>",
// so part boundaries cannot alias. Every fingerprint derived from a
// snapshot — the test corpus digest, the scheduler's job keys, a method's
// digest — shares this one framing, and persisted keys depend on its exact
// bytes.
func HashParts(parts ...string) string {
	n := 0
	for _, p := range parts {
		n += len(p) + 21 // a decimal int64 and the colon
	}
	buf := make([]byte, 0, n)
	for _, p := range parts {
		buf = appendPartHead(buf, len(p))
		buf = append(buf, p...)
	}
	return shortDigest(buf)
}

// appendPartHead appends the "<len>:" framing of a part of n bytes.
func appendPartHead(buf []byte, n int) []byte {
	buf = strconv.AppendInt(buf, int64(n), 10)
	return append(buf, ':')
}

// shortDigest is the fingerprint HashParts returns for framed parts.
func shortDigest(framed []byte) string {
	sum := sha256.Sum256(framed)
	var out [32]byte
	hex.Encode(out[:], sum[:16])
	return string(out[:])
}

// digests are what a snapshot or a suite keeps of its canonical render:
// the digest of the whole render, and each method's digest keyed by its
// class and name.
type digests struct {
	canonHash string
	methods   map[methodKey]string
}

// methodKey names a method by its class and its own name, so a lookup
// builds no "Class.method" string.
type methodKey struct{ class, name string }

// digestRender renders classes canonically, once, into a buffer of
// sizeHint bytes to start with, and returns the render and its digests. A
// method's digest is HashParts("canon", minij.FormatMethod(m)), hashed
// from the method's part of the render; the scheduler's fingerprints and
// the dirty sets compare them, so persisted job keys depend on its bytes.
func digestRender(classes []*minij.Class, sizeHint int) ([]byte, digests) {
	n := 0
	for _, c := range classes {
		n += len(c.Methods)
	}
	d := digests{methods: make(map[methodKey]string, n)}
	var framed []byte
	canon := minij.AppendProgram(make([]byte, 0, sizeHint), classes, func(m *minij.Method, text []byte) {
		// The framing of HashParts("canon", FullName+"\n"+text).
		framed = append(framed[:0], "5:canon"...)
		framed = appendPartHead(framed, len(m.Class.Name)+1+len(m.Name)+1+len(text))
		framed = append(framed, m.Class.Name...)
		framed = append(framed, '.')
		framed = append(framed, m.Name...)
		framed = append(framed, '\n')
		framed = append(framed, text...)
		d.methods[methodKey{m.Class.Name, m.Name}] = shortDigest(framed)
	})
	d.canonHash = hashBytes(canon)
	return canon, d
}

// Source returns the raw source text the snapshot was loaded from; a
// linked snapshot (Cache.Link) has none and returns "".
func (s *Snapshot) Source() string { return s.source }

// Hash returns the snapshot's content address: sha256 of the raw source,
// or a linked snapshot's link key.
func (s *Snapshot) Hash() string { return s.hash }

// Program returns the parsed and resolved program. The AST is shared by
// every holder of this snapshot and must not be mutated; use Compile for a
// private mutable copy.
func (s *Snapshot) Program() *minij.Program { return s.prog }

// CanonHash returns the content address of the program's canonical
// pretty-printing (minij.FormatProgram). This is the identity fingerprint
// callers hash into cache keys: it is stable across reformatting, unlike
// Hash. A linked snapshot's covers only its test classes.
func (s *Snapshot) CanonHash() string { return s.canonHash }

// Graph returns the call graph, built by callgraph.Build on first use and
// memoized. Compiled and restored snapshots take the same path: the store
// record carries no graph, because rebuilding it from the (decoded) AST is
// cheaper than re-anchoring a persisted one.
func (s *Snapshot) Graph() *callgraph.Graph {
	s.graphOnce.Do(func() {
		if s.prog == nil {
			return
		}
		if s.cache != nil {
			s.cache.graphBuilds.Add(1)
		}
		s.graph = callgraph.Build(s.prog)
	})
	return s.graph
}

// MethodDigest returns the digest of the canonical text of this
// version's method with m's class and name — HashParts("canon",
// minij.FormatMethod(method)) — or "" when it has no such method. The
// digests come from the render that took the canon digest, so every
// fingerprint and dirty-set computation over this version reads them and
// renders nothing. A linked snapshot holds its suite's test methods and
// serves system methods from the system snapshot.
func (s *Snapshot) MethodDigest(m *minij.Method) string {
	key := methodKey{m.Class.Name, m.Name}
	if d, ok := s.methods[key]; ok || s.sys == nil {
		return d
	}
	return s.sys.methods[key]
}

// ownClasses lists the classes this snapshot's canon digest covers: the
// whole program, or a linked snapshot's test classes.
func (s *Snapshot) ownClasses() []*minij.Class {
	if s.sys != nil {
		return s.testClasses
	}
	if s.prog == nil {
		return nil
	}
	return s.prog.Classes
}

// Shape returns the program's declaration skeleton: class names, fields,
// and method signatures, without bodies. Two versions with equal shape
// differ at most in method bodies, so resolution context outside a changed
// body is preserved — the dirty-set localization precondition.
func (s *Snapshot) Shape() string {
	s.shapeOnce.Do(func() {
		if s.prog == nil {
			return
		}
		s.shape = classShape(s.prog)
	})
	return s.shape
}

// Memo returns the value memoized on snap under key, calling build the
// first time the key is asked for. It is for pure functions of the
// snapshot and of the inputs the key names (callers prefix their keys, so
// users cannot collide). Two concurrent first callers may both build; the
// first value stored is kept and returned to both, and never replaced.
// Memo values are process-local — never persisted — and die with the
// snapshot, so the snapshot cache's bound bounds them too. They are shared
// by every holder of the snapshot and must be treated as read-only.
func Memo[T any](snap *Snapshot, key string, build func() T) T {
	snap.memoMu.Lock()
	v, ok := snap.memo[key]
	snap.memoMu.Unlock()
	if ok {
		return v.(T)
	}
	t := build()
	snap.memoMu.Lock()
	defer snap.memoMu.Unlock()
	if v, ok := snap.memo[key]; ok {
		return v.(T)
	}
	if snap.memo == nil {
		snap.memo = map[string]any{}
	}
	snap.memo[key] = t
	return t
}

// ErrMutated reports a snapshot whose shared AST no longer matches the
// canonical digest taken at compile time — some holder mutated it, or a
// cache entry was corrupted. Callers match it with errors.Is.
var ErrMutated = errors.New("program: snapshot mutated")

// Verify checks the immutability contract: it re-renders the shared AST
// and compares the render's digest against the one taken at compile time.
// A non-nil error wrapping ErrMutated means some holder mutated the
// snapshot's program. A linked snapshot checks its test classes; the
// system snapshot's own Verify covers the classes it shares.
func (s *Snapshot) Verify() error {
	if s.err != nil {
		return s.err
	}
	if hashBytes(minij.AppendProgram(nil, s.ownClasses(), nil)) != s.canonHash {
		return fmt.Errorf("%w: %.12s canonical AST drifted from its content address", ErrMutated, s.hash)
	}
	return nil
}

// build runs the compile stage exactly once per snapshot.
func (s *Snapshot) build() {
	if s.cache != nil {
		s.cache.compiles.Add(1)
	}
	prog, err := minij.Parse(s.source)
	if err != nil {
		s.err = err
		return
	}
	if err := minij.Check(prog); err != nil {
		s.err = err
		return
	}
	s.prog = prog
	_, s.digests = digestRender(prog.Classes, len(s.source))
	injectLoadFault(prog.Classes)
}

// injectLoadFault is the program.load fault-injection point, fired on
// built, restored and linked snapshots alike: a Corrupt rule damages one
// of classes — the ones the snapshot's canon digest covers — *after* the
// digest was taken, modeling a bad cache entry. Verify must catch it.
func injectLoadFault(classes []*minij.Class) {
	if faultinject.Armed() {
		if k, ok := faultinject.At("program.load"); ok && k == faultinject.Corrupt {
			corruptClasses(classes)
		}
	}
}

// corruptClasses deterministically damages the AST: it drops the last
// statement of the first method that has a body. The canonical rendering
// then no longer matches the captured one.
func corruptClasses(classes []*minij.Class) {
	for _, c := range classes {
		for _, m := range c.Methods {
			if m.Body != nil && len(m.Body.Stmts) > 0 {
				m.Body.Stmts = m.Body.Stmts[:len(m.Body.Stmts)-1]
				return
			}
		}
	}
}

func classShape(p *minij.Program) string {
	var sb strings.Builder
	for _, c := range p.Classes {
		sb.WriteString("class ")
		sb.WriteString(c.Name)
		sb.WriteByte('\n')
		for _, f := range c.Fields {
			fmt.Fprintf(&sb, "  field %s %s\n", f.Type.String(), f.Name)
		}
		for _, m := range c.Methods {
			fmt.Fprintf(&sb, "  method static=%v %s %s(", m.Static, m.Ret.String(), m.Name)
			for i, p := range m.Params {
				if i > 0 {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, "%s %s", p.Type.String(), p.Name)
			}
			sb.WriteString(")\n")
		}
	}
	return sb.String()
}

// Cache is a bounded LRU of snapshots keyed on source content hash. All
// methods are safe for concurrent use; concurrent Loads of one source
// compile it once and share the identical snapshot. Failed compiles are
// cached too (negative entries), so replay sweeps that probe versions a
// test cannot build against do not re-parse the failure every pass.
//
// The embedded Tier is the optional disk tier (SetStore): a memory miss
// restores the snapshot from its persisted record when one verifies, and
// a fresh build writes its record through (persist.go). Linked snapshots
// are never persisted: a link costs less than restoring a record would.
type Cache struct {
	*store.Tier

	mu     sync.Mutex
	mem    *lru.Cache[string, *Snapshot]
	hits   uint64
	misses uint64

	compiles      atomic.Uint64
	graphBuilds   atomic.Uint64
	links         atomic.Uint64
	linkFallbacks atomic.Uint64

	// Disk restores split by path: decoded (codec frame only) vs deep
	// verified (re-parse + re-render comparison — the sampled slow path).
	restoresDecoded  atomic.Uint64
	restoresVerified atomic.Uint64

	// restoreTick drives deep-verify sampling; deepVerifyEvery is the
	// knob (0: DefaultDeepVerifyEvery).
	restoreTick     atomic.Uint64
	deepVerifyEvery atomic.Int64
}

// DefaultDeepVerifyEvery is the default deep-verification sampling
// interval: one restore in every N re-parses the source and compares its
// render with the decoded program's, so systematic store corruption is
// still caught process-locally without paying the per-restore re-parse
// tax. faultinject-armed runs deep-verify every restore
// regardless of the knob.
const DefaultDeepVerifyEvery = 16

// SetDeepVerifyEvery sets the deep-verification sampling interval: every
// nth disk restore re-parses the source and compares renders (the
// trust-nothing path). 1 deep-verifies every restore; n <= 0
// resets to DefaultDeepVerifyEvery. Safe to call concurrently with loads.
func (c *Cache) SetDeepVerifyEvery(n int) { c.deepVerifyEvery.Store(int64(n)) }

func (c *Cache) deepVerifyInterval() uint64 {
	if n := c.deepVerifyEvery.Load(); n > 0 {
		return uint64(n)
	}
	return DefaultDeepVerifyEvery
}

// NewCache returns an empty cache bounded to capacity entries
// (DefaultCapacity when capacity <= 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	c := &Cache{mem: lru.New[string, *Snapshot](capacity)}
	c.Tier = store.NewTier("snapshot", c.memTier, snapNamespace)
	return c
}

// memTier fills the snapshot cache's side of its tier row: the LRU's
// hits and misses, and the disk hits split by restore path.
func (c *Cache) memTier(ts *store.TierStats) {
	c.mu.Lock()
	ts.MemHits, ts.MemMisses = c.hits, c.misses
	c.mu.Unlock()
	ts.DiskHitsDecoded, ts.DiskHitsVerified = c.restoresDecoded.Load(), c.restoresVerified.Load()
}

// Load returns the snapshot for source, compiling it at most once per
// residency. The error (a parse or resolution failure) is the same on every
// load of the same bad source.
func (c *Cache) Load(source string) (*Snapshot, error) {
	h := Hash(source)
	c.mu.Lock()
	snap, ok := c.mem.Get(h)
	if ok {
		c.hits++
	} else {
		c.misses++
		snap = &Snapshot{source: source, hash: h, cache: c}
		c.mem.Put(h, snap)
	}
	c.mu.Unlock()
	// A concurrent loader may have inserted the entry and not finished
	// compiling; Do blocks until the one compile completes.
	snap.compileOnce.Do(snap.compile)
	return snap.result()
}

func (s *Snapshot) result() (*Snapshot, error) {
	if s.err != nil {
		return nil, s.err
	}
	return s, nil
}

// CacheStats is a point-in-time counter snapshot. Compiles counts actual
// parse+resolve executions — on a warm replay it equals the number of
// distinct versions, however many times each was loaded. GraphBuilds
// likewise counts call-graph constructions (at most one per snapshot,
// whether it was compiled, restored or linked). Links counts test suites
// linked onto a system snapshot (Cache.Link), which are not compiles, and
// LinkFallbacks the links that failed and loaded the concatenated source
// instead.
type CacheStats struct {
	Entries       int
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Compiles      uint64
	GraphBuilds   uint64
	Links         uint64
	LinkFallbacks uint64
	// Restores counts snapshots adopted from the disk tier instead of
	// compiled; RestoresDecoded of those came through the parse-free
	// binary-AST path (codec checksum only), while
	// RestoresDeepVerified re-derived everything from source and compared
	// (the sampled deep-verify path). All stay zero without a store.
	Restores             uint64
	RestoresDecoded      uint64
	RestoresDeepVerified uint64
}

// Sub returns the field-wise counter delta s − base. Entries is a
// point-in-time gauge, not a counter, so the current value is kept. A
// delta counts every load through the cache instance: exact for the runs
// that own it, and the sum over every run that shares it.
func (s CacheStats) Sub(base CacheStats) CacheStats {
	return CacheStats{
		Entries:              s.Entries,
		Hits:                 s.Hits - base.Hits,
		Misses:               s.Misses - base.Misses,
		Evictions:            s.Evictions - base.Evictions,
		Compiles:             s.Compiles - base.Compiles,
		GraphBuilds:          s.GraphBuilds - base.GraphBuilds,
		Links:                s.Links - base.Links,
		LinkFallbacks:        s.LinkFallbacks - base.LinkFallbacks,
		Restores:             s.Restores - base.Restores,
		RestoresDecoded:      s.RestoresDecoded - base.RestoresDecoded,
		RestoresDeepVerified: s.RestoresDeepVerified - base.RestoresDeepVerified,
	}
}

// Stats returns cumulative counters and the current entry count.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	decoded, verified := c.restoresDecoded.Load(), c.restoresVerified.Load()
	return CacheStats{
		Entries:              c.mem.Len(),
		Hits:                 c.hits,
		Misses:               c.misses,
		Evictions:            c.mem.Evictions(),
		Compiles:             c.compiles.Load(),
		GraphBuilds:          c.graphBuilds.Load(),
		Links:                c.links.Load(),
		LinkFallbacks:        c.linkFallbacks.Load(),
		Restores:             decoded + verified,
		RestoresDecoded:      decoded,
		RestoresDeepVerified: verified,
	}
}

// Hashes lists the resident snapshot hashes, most recently used first
// (for introspection and eviction-determinism tests).
func (c *Cache) Hashes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mem.Keys()
}

// defaultCache is the process-wide snapshot store: core.New's engines,
// ticket inference and the experiment harnesses name it.
var defaultCache = NewCache(DefaultCapacity)

// DefaultCache returns the process-wide snapshot cache instance.
func DefaultCache() *Cache { return defaultCache }

// Compile parses and resolves source into a fresh, caller-owned program,
// bypassing the cache. Use it when the AST will be mutated (snapshots are
// shared and must stay immutable).
func Compile(source string) (*minij.Program, error) {
	prog, err := minij.Parse(source)
	if err != nil {
		return nil, err
	}
	if err := minij.Check(prog); err != nil {
		return nil, err
	}
	return prog, nil
}
