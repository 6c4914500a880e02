package smt

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestQueryCacheLRU: capacity bounds the cache, eviction drops the least
// recently used key, and hits refresh recency.
func TestQueryCacheLRU(t *testing.T) {
	c := NewQueryCache(2)
	solves := 0
	get := func(key string) {
		t.Helper()
		sat, err := c.load(key, DefaultMaxNodes, func() (bool, int, error) {
			solves++
			return true, 1, nil
		})
		if err != nil || !sat {
			t.Fatalf("load(%s) = %v, %v", key, sat, err)
		}
	}
	get("a")
	get("b")
	get("a") // refresh a: b is now LRU
	get("c") // evicts b
	if solves != 3 {
		t.Fatalf("solves = %d, want 3", solves)
	}
	get("a")
	get("c")
	if solves != 3 {
		t.Fatalf("solves after warm hits = %d, want 3", solves)
	}
	get("b") // was evicted: re-solves
	if solves != 4 {
		t.Fatalf("solves after evicted key = %d, want 4", solves)
	}
}

// TestQueryCacheNeverCachesErrors: a failed solve is not stored; the next
// caller re-solves.
func TestQueryCacheNeverCachesErrors(t *testing.T) {
	c := NewQueryCache(4)
	calls := 0
	boom := errors.New("boom")
	if _, err := c.load("k", 100, func() (bool, int, error) {
		calls++
		return false, 0, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	sat, err := c.load("k", 100, func() (bool, int, error) {
		calls++
		return true, 1, nil
	})
	if err != nil || !sat || calls != 2 {
		t.Fatalf("after error: sat=%v err=%v calls=%d, want true/nil/2", sat, err, calls)
	}
	if _, err := c.load("k", 100, func() (bool, int, error) {
		calls++
		return false, 0, nil
	}); err != nil || calls != 2 {
		t.Fatalf("warm hit re-solved: calls=%d err=%v", calls, err)
	}
}

// TestQueryCacheBudgetAwareHits: a hit is only served when the cached
// decision fit inside the caller's node budget, so ErrBudget surfaces
// byte-identically warm or cold.
func TestQueryCacheBudgetAwareHits(t *testing.T) {
	c := NewQueryCache(4)
	if _, err := c.load("k", 1000, func() (bool, int, error) { return true, 50, nil }); err != nil {
		t.Fatal(err)
	}
	// A caller allowed fewer nodes than the decision needed must re-solve
	// (and here, run out of budget exactly as a cold process would).
	if _, err := c.load("k", 10, func() (bool, int, error) { return false, 0, ErrBudget }); !errors.Is(err, ErrBudget) {
		t.Fatalf("small-budget caller: err = %v, want ErrBudget", err)
	}
	// A caller whose budget covers the cached decision hits without solving.
	solved := false
	sat, err := c.load("k", 50, func() (bool, int, error) { solved = true; return false, 0, nil })
	if err != nil || !sat || solved {
		t.Fatalf("covered-budget caller: sat=%v err=%v solved=%v, want hit", sat, err, solved)
	}
}

// TestSolverCacheConcurrent hammers one shared solver cache from 8
// goroutines over a shared formula pool; every answer must match the
// reference solver's. Runs under -race in verify.sh.
func TestSolverCacheConcurrent(t *testing.T) {
	r := newTestRng(99)
	formulas := make([]Formula, 0, 64)
	for len(formulas) < 64 {
		f := genDiffFormula(r, 3)
		if _, isConst := f.(*Const); isConst {
			continue
		}
		formulas = append(formulas, f)
	}
	want := make([]bool, len(formulas))
	for i, f := range formulas {
		sat, _, err := ReferenceSolve(f, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sat
	}
	c := NewQueryCache(0)
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := newTestRng(int64(1000 + g))
			for iter := 0; iter < 500; iter++ {
				i := rng.intn(len(formulas))
				sat, err := SATLim(formulas[i], Limits{Cache: c})
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: SATLim(%s): %v", g, formulas[i], err)
					return
				}
				if sat != want[i] {
					errs <- fmt.Errorf("goroutine %d: SATLim(%s) = %v, want %v", g, formulas[i], sat, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestQueryCacheDisabledStillCorrect: a query that names no cache goes
// straight to the solver with the reference solver's answers.
func TestQueryCacheDisabledStillCorrect(t *testing.T) {
	r := newTestRng(5)
	for i := 0; i < 200; i++ {
		f := genDiffFormula(r, 3)
		got, err := SATLim(f, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		wantSat, _, err := ReferenceSolve(f, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if got != wantSat {
			t.Fatalf("#%d %s: uncached SATLim = %v, reference = %v", i, f, got, wantSat)
		}
	}
}

// TestNilCacheSolvesUncached: a query whose Limits name no cache runs a
// solve every time and touches no cache instance, while the package
// counters behind Stats still count it. The process-wide instance is only
// used by callers that name it.
func TestNilCacheSolvesUncached(t *testing.T) {
	f := MustParsePredicate(`s != null && !(s.closing) && s.ttl <= 0`)
	defaultBefore, before := DefaultQueryCache().Stats(), Stats()
	for i := 0; i < 2; i++ {
		sat, err := SATLim(f, Limits{})
		if err != nil || !sat {
			t.Fatalf("ask %d: SATLim = %v, %v; want true, nil", i+1, sat, err)
		}
	}
	if after := DefaultQueryCache().Stats(); after != defaultBefore {
		t.Errorf("uncached queries moved the process-wide cache: %+v -> %+v", defaultBefore, after)
	}
	after := Stats()
	if got := after.Solves - before.Solves; got != 2 {
		t.Errorf("Stats().Solves grew by %d, want 2 (one solve per uncached ask)", got)
	}
	if got := after.Queries - before.Queries; got != 2 {
		t.Errorf("Stats().Queries grew by %d, want 2", got)
	}
	if hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses; hits != 0 || misses != 0 {
		t.Errorf("uncached queries counted %d cache hits and %d misses, want none", hits, misses)
	}
	// On decided queries the uncached answer is the cached one.
	c := NewQueryCache(0)
	for _, src := range []string{"a > 0", "a > 0 && a <= 0", "s != null && s.isClosing() == false"} {
		g := MustParsePredicate(src)
		direct, err := SATLim(g, Limits{})
		if err != nil {
			t.Fatalf("SATLim(%s): %v", src, err)
		}
		cached, err := SATLim(g, Limits{Cache: c})
		if err != nil {
			t.Fatalf("SATLim(%s) through a cache: %v", src, err)
		}
		if direct != cached {
			t.Errorf("SATLim(%s) = %v uncached, %v cached", src, direct, cached)
		}
	}
}

// TestSingleflightConcurrentSameQuery: N goroutines racing on one cold key
// produce exactly one solve; everyone sees the leader's verdict. The leader
// blocks on a gate until all racers have launched, so the overlap is real.
func TestSingleflightConcurrentSameQuery(t *testing.T) {
	c := NewQueryCache(16)
	gate := make(chan struct{})
	var calls, entered atomic.Int64
	const n = 8
	results := make([]bool, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			entered.Add(1)
			results[g], errs[g] = c.load("hot", DefaultMaxNodes, func() (bool, int, error) {
				<-gate
				calls.Add(1)
				return true, 5, nil
			})
		}(g)
	}
	for entered.Load() < n {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let late racers reach the join
	close(gate)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("solves = %d, want exactly 1", calls.Load())
	}
	for g := 0; g < n; g++ {
		if errs[g] != nil || !results[g] {
			t.Fatalf("goroutine %d: sat=%v err=%v, want true/nil", g, results[g], errs[g])
		}
	}
	if st := c.Stats(); st.Solves != 1 {
		t.Fatalf("instance solves = %d, want 1", st.Solves)
	}
}

// TestSingleflightBudgetErrorToAllWaiters: when the gated leader exhausts
// its budget, every same-budget waiter receives ErrBudget directly — one
// doomed search, not N.
func TestSingleflightBudgetErrorToAllWaiters(t *testing.T) {
	c := NewQueryCache(16)
	gate := make(chan struct{})
	var calls, entered atomic.Int64
	const n = 6
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			entered.Add(1)
			_, errs[g] = c.load("doomed", 100, func() (bool, int, error) {
				<-gate
				calls.Add(1)
				return false, 0, ErrBudget
			})
		}(g)
	}
	for entered.Load() < n {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("solves = %d, want 1 (waiters must inherit ErrBudget)", calls.Load())
	}
	for g := 0; g < n; g++ {
		if !errors.Is(errs[g], ErrBudget) {
			t.Fatalf("goroutine %d: err = %v, want ErrBudget", g, errs[g])
		}
	}
}

// TestSingleflightOtherErrorsResolvePerWaiter: a leader that fails with a
// non-budget error (cancellation, say) hands no verdict to its waiters:
// each re-solves under its own limits, and a successful re-solve is
// cached.
func TestSingleflightOtherErrorsResolvePerWaiter(t *testing.T) {
	c := NewQueryCache(16)
	boom := errors.New("boom")
	gate := make(chan struct{})
	var calls, entered atomic.Int64
	const n = 6
	sats := make([]bool, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			entered.Add(1)
			sats[g], errs[g] = c.load("k", 100, func() (bool, int, error) {
				if calls.Add(1) == 1 {
					<-gate
					return false, 0, boom
				}
				return true, 1, nil
			})
		}(g)
	}
	for entered.Load() < n {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	failed := 0
	for g := 0; g < n; g++ {
		switch {
		case errors.Is(errs[g], boom):
			failed++
		case errs[g] != nil || !sats[g]:
			t.Fatalf("goroutine %d: sat=%v err=%v, want true/nil after re-solving", g, sats[g], errs[g])
		}
	}
	if failed != 1 {
		t.Fatalf("%d callers got the leader's error, want only the leader", failed)
	}
	before := calls.Load()
	if sat, err := c.load("k", 100, func() (bool, int, error) { calls.Add(1); return false, 0, nil }); err != nil || !sat || calls.Load() != before {
		t.Fatalf("re-solved verdict not cached: sat=%v err=%v solves %d -> %d", sat, err, before, calls.Load())
	}
}

// TestSingleflightSolvesEachQueryOnce: four goroutines, started one after
// another, ask the same fresh queries in the same order, so an asker often
// arrives just as another finishes solving. A query that arrives then must
// find the verdict if it no longer finds the in-flight entry: each query is
// solved exactly once, and the node count equals a one-goroutine run's.
func TestSingleflightSolvesEachQueryOnce(t *testing.T) {
	const queries, askers = 20_000, 4
	formulas := make([]Formula, queries)
	for i := range formulas {
		formulas[i] = MustParsePredicate(fmt.Sprintf("a%d > %d && (b < a%d || b == %d)", i, i, i, i))
	}
	askAll := func(c *QueryCache) error {
		for _, f := range formulas {
			if _, err := SATLim(f, Limits{Cache: c}); err != nil {
				return fmt.Errorf("SATLim(%s): %v", f, err)
			}
		}
		return nil
	}
	alone := NewQueryCache(queries)
	if err := askAll(alone); err != nil {
		t.Fatal(err)
	}
	want := alone.Stats()
	if want.Solves != queries {
		t.Fatalf("one asker solved %d queries, want %d", want.Solves, queries)
	}

	c := NewQueryCache(queries)
	errs := make([]error, askers)
	var wg sync.WaitGroup
	for g := range askers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = askAll(c)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats(); got.Solves != want.Solves || got.Nodes != want.Nodes {
		t.Fatalf("%d askers: %d solves and %d nodes, want %d and %d as one asker", askers, got.Solves, got.Nodes, want.Solves, want.Nodes)
	}
}
