package concolic

import (
	"slices"
	"sort"
	"strings"

	"lisa/internal/callgraph"
	"lisa/internal/contract"
	"lisa/internal/minij"
	"lisa/internal/smt"
)

// maxChainStates bounds the symbolic states carried across each frame of a
// chain.
const maxChainStates = 64

// ChainStaticPaths enumerates static paths to a site along one
// execution-tree chain, inheriting guard conditions from caller frames:
// conditions recorded in a caller that constrain values passed as call
// arguments are renamed into the callee's parameter vocabulary and carried
// down — the interprocedural half of the paper's execution-tree assertion.
// An empty chain reduces to the intraprocedural StaticPaths. It is the
// one-chain case of SiteStaticPaths.
func ChainStaticPaths(prog *minij.Program, site *contract.Site, chain callgraph.Path, opts Options) ([]*StaticPath, bool) {
	paths, truncated := SiteStaticPaths(prog, site, []callgraph.Path{chain}, opts, nil)
	return paths[0], truncated[0]
}

// ChainTops holds the chain tops of one site method's caller-chain walk:
// each chain's seed states after its last edge, with that chain's
// truncation flag, in walk order. The sites of one method share every
// chain, so a later site of the method walks only its own method from the
// kept seeds. The zero value is empty.
//
// A holder serves one unit: sites of one method, walked over the same
// chains under the same Options, one after another on one goroutine. The
// caller keeps that contract; the holder does not check it. The seeds keep
// their decided prefix verdicts, so no two walks may use a holder at once,
// and its owner empties it (assigns the zero value) when the walk that
// filled it was cut short by a deadline or a panic.
type ChainTops struct {
	// order is the walk's chain order, non-nil once a walk filled the
	// holder; tops[k] is the top of chain order[k].
	order []int
	tops  []chainPrefix
}

// SiteStaticPaths enumerates the static paths to a site along each of its
// chains: paths[i] and truncated[i] are what ChainStaticPaths gives for
// chains[i]. The chains are walked as one prefix tree, so a caller frame
// that several chains reach through the same edges is walked once: chains
// are visited in order of their edge numbers, which puts chains sharing a
// prefix next to each other, and a stack keeps the seed states after each
// edge of the current chain. Only the states of the current chain's prefix
// are live, at most maxChainStates per edge.
//
// A non-nil tops keeps every chain's top as well: when an earlier site of
// the unit filled it, the caller walk is skipped and only the site's method
// is walked from each kept top, in the same chain order; an empty holder is
// filled by the walk. A nil tops keeps nothing.
func SiteStaticPaths(prog *minij.Program, site *contract.Site, chains []callgraph.Path, opts Options, tops *ChainTops) (paths [][]*StaticPath, truncated []bool) {
	paths = make([][]*StaticPath, len(chains))
	truncated = make([]bool, len(chains))
	memo := condMemo{}
	fromTop := func(i int, top chainPrefix) {
		truncated[i] = top.truncated
		// An empty seed set means no caller path reaches a call site of
		// the chain: nothing flows down, and the chain has no paths.
		if len(top.seeds) > 0 {
			var trunc bool
			paths[i], trunc = staticPathsFrom(prog, site, opts, top.seeds, memo)
			truncated[i] = truncated[i] || trunc
		}
	}
	if tops != nil && tops.order != nil {
		for k, i := range tops.order {
			fromTop(i, tops.tops[k])
		}
		return paths, truncated
	}

	// Number each distinct call edge in first-seen order.
	ids := map[callgraph.CallSite]int{}
	keys := make([][]int, len(chains))
	order := make([]int, len(chains))
	for i, chain := range chains {
		keys[i] = make([]int, len(chain))
		for j, edge := range chain {
			id, ok := ids[edge]
			if !ok {
				id = len(ids)
				ids[edge] = id
			}
			keys[i][j] = id
		}
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return slices.Compare(keys[order[a]], keys[order[b]]) < 0 })

	// The holder is filled only once the walk completes, so a walk a panic
	// ends leaves it empty.
	var kept []chainPrefix
	if tops != nil {
		kept = make([]chainPrefix, 0, len(chains))
	}
	// stack[d] is the state after the current chain's first d edges.
	stack := []chainPrefix{{seeds: []*sframe{newSFrame(prog)}}}
	var prev []int
	for _, i := range order {
		key := keys[i]
		shared := 0
		for shared < len(key) && shared < len(prev) && key[shared] == prev[shared] {
			shared++
		}
		stack = stack[:min(len(stack), shared+1)]
		for d := len(stack) - 1; d < len(key) && len(stack[d].seeds) > 0; d++ {
			stack = append(stack, enterCallee(prog, chains[i][d], stack[d], opts, memo))
		}
		top := stack[len(stack)-1]
		if tops != nil {
			kept = append(kept, top)
		}
		fromTop(i, top)
		prev = key
	}
	if tops != nil {
		*tops = ChainTops{order: order, tops: kept}
	}
	return paths, truncated
}

// chainPrefix is the state after a chain prefix: the callee's distinct
// entry states, and whether a caller walk on the way was cut short.
type chainPrefix struct {
	seeds     []*sframe
	truncated bool
}

// enterCallee walks edge's caller from each seed of from to the call,
// taking branch cells from memo, and enters the callee from every state
// that reaches it.
func enterCallee(prog *minij.Program, edge callgraph.CallSite, from chainPrefix, opts Options, memo condMemo) chainPrefix {
	stmt := stmtOfCall(prog, edge.Caller, edge.Call)
	if stmt == nil {
		// Should not happen for a well-formed chain; fall back to an
		// unconstrained entry into the callee.
		return chainPrefix{seeds: []*sframe{newSFrame(prog)}, truncated: from.truncated}
	}
	var states []*sframe
	collect := func(st *sframe) {
		if len(states) < maxChainStates {
			states = append(states, st.clone())
		}
	}
	// Fork-level pruning is deliberately off here: chain states carrying
	// an unsatisfiable prefix die at the next frame's seed check (one
	// query per seed), which costs far less than checking every fork of
	// every intermediate state.
	trunc := walkSeeds(prog, edge.Caller, stmt.ID(), maxChainStates, from.seeds, opts, false, collect,
		func() bool { return len(states) >= maxChainStates }, memo)
	next := make([]*sframe, 0, len(states))
	dedup := map[string]bool{}
	for _, st := range states {
		child := inheritFrame(prog, st, edge.Callee, edge.Call)
		key := frameKey(child)
		if dedup[key] {
			continue
		}
		dedup[key] = true
		next = append(next, child)
	}
	return chainPrefix{seeds: next, truncated: from.truncated || trunc}
}

// stmtOfCall locates the statement of m that directly performs the given
// call expression.
func stmtOfCall(prog *minij.Program, m *minij.Method, call *minij.Call) minij.Stmt {
	var found minij.Stmt
	minij.WalkStmts(m.Body, func(s minij.Stmt) {
		if found != nil {
			return
		}
		minij.WalkExprs(s, func(e minij.Expr) {
			if e == minij.Expr(call) {
				// The *innermost* statement owning the call: refine by
				// checking nested statements later in the walk; WalkStmts
				// visits parents before children, so keep overwriting.
				found = s
			}
		})
	})
	if found == nil {
		return nil
	}
	// Refine to the innermost owning statement.
	inner := found
	minij.WalkStmts(found, func(s minij.Stmt) {
		if slices.Contains(minij.OwnCalls(s), call) {
			inner = s
		}
	})
	return inner
}

// inheritFrame builds the callee's entry state from a caller state at a
// call site: caller conditions over argument values are renamed into
// parameter vocabulary and become the callee's own first conditions;
// everything else is dropped (not expressible in the callee). Chain
// enumeration and replay both enter a callee with it.
func inheritFrame(prog *minij.Program, caller *sframe, callee *minij.Method, call *minij.Call) *sframe {
	child := newSFrame(prog)
	// Argument path -> parameter name renames.
	renames := map[string]string{}
	for i, p := range callee.Params {
		if i >= len(call.Args) {
			break
		}
		if t, ok := translateTerm(call.Args[i], caller); ok {
			if t.isPath {
				renames[t.path] = p.Name
			} else if t.isConst {
				// A constant argument becomes a known constant of the
				// parameter (normalization across the call boundary).
				child.own()
				child.consts[p.Name] = t.c
				child.assigned[p.Name] = true
			}
		}
	}
	// Carry renamed constants (caller facts about argument state).
	for path, c := range caller.consts {
		if renamed, ok := renamePath(path, renames); ok {
			child.own()
			child.consts[renamed] = c
		}
	}
	// Carry conditions whose every root renames into parameter vocabulary.
	for _, rc := range caller.conds {
		f, ok := renameFormula(rc.f, renames)
		if !ok {
			continue
		}
		child.conds = append(child.conds, &recordedCond{f: f, guard: rc.guard, taken: rc.taken, inherited: true, roots: condRoots(f)})
	}
	return child
}

// renamePath rewrites a dotted path whose prefix matches an argument path
// into parameter vocabulary.
func renamePath(path string, renames map[string]string) (string, bool) {
	if param, ok := renames[path]; ok {
		return param, true
	}
	for argPath, param := range renames {
		if strings.HasPrefix(path, argPath+".") {
			return param + path[len(argPath):], true
		}
	}
	return "", false
}

// renameFormula rewrites every path of f through renames; ok is false when
// any path does not rename (the condition is not expressible in the
// callee).
func renameFormula(f smt.Formula, renames map[string]string) (smt.Formula, bool) {
	ok := true
	out := smt.MapAtoms(f, func(a smt.Atom) smt.Atom {
		if p, k := renamePath(a.Path, renames); k {
			a.Path = p
		} else {
			ok = false
		}
		if a.Kind == smt.AtomCmpV {
			if p, k := renamePath(a.Path2, renames); k {
				a.Path2 = p
			} else {
				ok = false
			}
		}
		return a
	})
	if !ok {
		return nil, false
	}
	return out, true
}

// frameKey fingerprints a seed state for deduplication.
func frameKey(st *sframe) string {
	var sb strings.Builder
	for _, rc := range st.conds {
		sb.WriteString(rc.render())
		sb.WriteByte(';')
	}
	keys := make([]string, 0, len(st.consts))
	for p := range st.consts {
		keys = append(keys, p)
	}
	sort.Strings(keys)
	for _, p := range keys {
		sb.WriteString(p)
		sb.WriteByte('=')
		sb.WriteString(FormatConst(st.consts[p]))
		sb.WriteByte(';')
	}
	return sb.String()
}
