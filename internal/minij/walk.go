package minij

// WalkStmts visits s and every statement nested within it, in source order,
// calling fn on each. Nil statements are skipped.
func WalkStmts(s Stmt, fn func(Stmt)) {
	InspectStmts(s, func(st Stmt) bool {
		fn(st)
		return true
	})
}

// InspectStmts is WalkStmts with pruning: when fn returns false, the
// statements nested within the visited one are skipped.
func InspectStmts(s Stmt, fn func(Stmt) bool) {
	if s == nil || !fn(s) {
		return
	}
	switch n := s.(type) {
	case *Block:
		for _, st := range n.Stmts {
			InspectStmts(st, fn)
		}
	case *If:
		InspectStmts(n.Then, fn)
		InspectStmts(n.Else, fn)
	case *While:
		InspectStmts(n.Body, fn)
	case *For:
		InspectStmts(n.Init, fn)
		InspectStmts(n.Post, fn)
		InspectStmts(n.Body, fn)
	case *ForEach:
		InspectStmts(n.Body, fn)
	case *Try:
		InspectStmts(n.Body, fn)
		InspectStmts(n.Catch, fn)
	case *Sync:
		InspectStmts(n.Body, fn)
	}
}

// WalkExprs visits every expression contained in statement s (including
// nested statements' expressions), calling fn on each expression node and
// its subexpressions in evaluation order.
func WalkExprs(s Stmt, fn func(Expr)) {
	WalkStmts(s, func(st Stmt) {
		es, n := stmtExprs(st)
		for _, e := range es[:n] {
			walkExpr(e, fn)
		}
	})
}

// stmtExprs returns the immediate expressions of a statement (not those of
// nested statements): the first n entries of the array. Returning an
// array keeps the statement walks free of allocation.
func stmtExprs(s Stmt) (es [2]Expr, n int) {
	switch st := s.(type) {
	case *VarDecl:
		if st.Init != nil {
			return [2]Expr{st.Init}, 1
		}
	case *Assign:
		return [2]Expr{st.Target, st.Value}, 2
	case *If:
		return [2]Expr{st.Cond}, 1
	case *While:
		return [2]Expr{st.Cond}, 1
	case *For:
		if st.Cond != nil {
			return [2]Expr{st.Cond}, 1
		}
	case *ForEach:
		return [2]Expr{st.Iter}, 1
	case *Return:
		if st.Value != nil {
			return [2]Expr{st.Value}, 1
		}
	case *Throw:
		return [2]Expr{st.Value}, 1
	case *Sync:
		return [2]Expr{st.Lock}, 1
	case *ExprStmt:
		return [2]Expr{st.E}, 1
	}
	return es, 0
}

// walkExpr visits e and its subexpressions.
func walkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch n := e.(type) {
	case *FieldAccess:
		walkExpr(n.Recv, fn)
	case *Call:
		walkExpr(n.Recv, fn)
		for _, a := range n.Args {
			walkExpr(a, fn)
		}
	case *New:
		for _, a := range n.Args {
			walkExpr(a, fn)
		}
	case *Unary:
		walkExpr(n.X, fn)
	case *Binary:
		walkExpr(n.X, fn)
		walkExpr(n.Y, fn)
	}
}

// OwnCalls returns the calls statement s itself performs (not those of
// nested statements), in evaluation order: a contract site anchors on the
// statement that directly performs its call. A for statement's condition
// is left out: it runs after the statement's init, in the loop's own
// scope, so a site anchored on the for statement would be reached before
// the operands it binds (typically the loop variable) exist.
func OwnCalls(s Stmt) []*Call {
	if _, ok := s.(*For); ok {
		return nil
	}
	var out []*Call
	es, n := stmtExprs(s)
	for _, e := range es[:n] {
		walkExpr(e, func(x Expr) {
			if c, ok := x.(*Call); ok {
				out = append(out, c)
			}
		})
	}
	return out
}

// IdentsIn returns the set of bare identifier names appearing in expression e.
func IdentsIn(e Expr) map[string]bool {
	out := map[string]bool{}
	walkExpr(e, func(x Expr) {
		if id, ok := x.(*Ident); ok {
			out[id.Name] = true
		}
	})
	return out
}
