package program

import (
	"sync"
	"sync/atomic"

	"lisa/internal/minij"
)

// Suite is a test suite parsed at most once and linked onto any number of
// system snapshots by Cache.Link. Its source is the suite's text exactly
// as it is appended to a system source for the concatenated compile, which
// a failed link falls back to. A Suite is safe for concurrent use.
type Suite struct {
	key    string
	source string

	once  sync.Once
	frame []byte
	err   error
	// digests are those of the suite's classes and test methods, taken
	// from one render of its parse; every linked snapshot shares them
	// read-only.
	digests digests
	// fresh is the parse that produced frame, handed to the first link
	// only: every later link decodes a private copy of its own.
	fresh atomic.Pointer[minij.Program]
}

// NewSuite returns the suite whose text is source. key identifies it in
// link keys, so it must change whenever source does (the engine passes its
// corpus digest, which covers every test's source).
func NewSuite(key, source string) *Suite {
	return &Suite{key: key, source: source}
}

// program returns a private, unresolved copy of the suite's AST for one
// link to own. The first call parses the source, keeps its codec frame and
// takes the suite's digests from one render of the parse; it links the
// fresh parse itself, so a process that links once parses once and decodes
// nothing, and no link renders.
func (s *Suite) program() (*minij.Program, error) {
	s.once.Do(func() {
		prog, err := minij.Parse(s.source)
		if err == nil {
			s.frame, err = minij.EncodeProgram(prog)
		}
		if err != nil {
			s.err = err
			return
		}
		_, s.digests = digestRender(prog.Classes, len(s.source))
		s.fresh.Store(prog)
	})
	if s.err != nil {
		return nil, s.err
	}
	if prog := s.fresh.Swap(nil); prog != nil {
		return prog, nil
	}
	return minij.DecodeProgram(s.frame)
}

// Link returns the analysis snapshot of sys with suite linked onto it: the
// program minij.Link builds from sys's shared program and a private copy
// of the suite's AST, equal to what compiling sys's source with the
// suite's appended would give. It is served from the same LRU as Load,
// keyed by the system hash and the suite key, built at most once per
// residency (concurrent callers share the one link), and never persisted.
//
// When the suite does not link — it does not parse on its own, a test
// class reopens a system class, or a test fails to resolve — Link loads
// the concatenated source instead, so the caller gets exactly the
// concatenated compile's program or error.
func (c *Cache) Link(sys *Snapshot, suite *Suite) (*Snapshot, error) {
	key := HashParts("link", sys.hash, suite.key)
	c.mu.Lock()
	snap, ok := c.mem.Get(key)
	// An entry linked onto an evicted copy of sys is replaced, so the
	// analysis program always extends the snapshot the caller verified.
	if ok && snap.sys == sys {
		c.hits++
	} else {
		c.misses++
		snap = &Snapshot{hash: key, cache: c, sys: sys, suite: suite}
		c.mem.Put(key, snap)
	}
	c.mu.Unlock()
	snap.compileOnce.Do(snap.link)
	if snap.linkFailed {
		return c.Load(sys.source + suite.source)
	}
	return snap, nil
}

// link populates a linked snapshot exactly once. Its canon digest covers
// only the test classes: the system snapshot's own digest covers the rest.
// Both it and the test methods' digests are the suite's, which a private
// copy of the suite's AST renders to as well. The program.load fault point
// fires as in build, on a test class, so a corrupt link never damages the
// shared system program.
func (s *Snapshot) link() {
	tests, err := s.suite.program()
	var prog *minij.Program
	if err == nil {
		prog, err = minij.Link(s.sys.prog, tests)
	}
	if err != nil {
		s.linkFailed = true
		s.cache.linkFallbacks.Add(1)
		return
	}
	s.cache.links.Add(1)
	s.prog = prog
	s.testClasses = tests.Classes
	s.digests = s.suite.digests
	injectLoadFault(s.testClasses)
}
