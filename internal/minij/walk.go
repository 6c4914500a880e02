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
		for _, e := range stmtExprs(st) {
			walkExpr(e, fn)
		}
	})
}

// stmtExprs returns the immediate expressions of a statement (not those of
// nested statements).
func stmtExprs(s Stmt) []Expr {
	switch n := s.(type) {
	case *VarDecl:
		if n.Init != nil {
			return []Expr{n.Init}
		}
	case *Assign:
		return []Expr{n.Target, n.Value}
	case *If:
		return []Expr{n.Cond}
	case *While:
		return []Expr{n.Cond}
	case *For:
		if n.Cond != nil {
			return []Expr{n.Cond}
		}
	case *ForEach:
		return []Expr{n.Iter}
	case *Return:
		if n.Value != nil {
			return []Expr{n.Value}
		}
	case *Throw:
		return []Expr{n.Value}
	case *Sync:
		return []Expr{n.Lock}
	case *ExprStmt:
		return []Expr{n.E}
	}
	return nil
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
	for _, e := range stmtExprs(s) {
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
