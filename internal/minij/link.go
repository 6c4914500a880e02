package minij

import "fmt"

// Link builds the program Parse and Check would build from sys's source
// with tests' source appended, without parsing or resolving sys again: the
// result holds sys's classes followed by tests' classes under one class
// table, keeps every sys statement ID, numbers tests' statements after
// sys's in their own order, and resolves only tests' methods, against the
// combined table.
//
// sys must be resolved; Link only reads it, so concurrent links onto one
// sys are safe. tests must be a private, unresolved parse of the suite:
// Link writes its statement IDs, call kinds and receiver types, and the
// result takes ownership of it.
//
// A test class that reopens a sys class fails the link (Parse would merge
// the two), and so does any resolution error. The error's text is not the
// concatenated compile's: a caller that reports diagnostics compiles the
// concatenated source for them.
func Link(sys, tests *Program) (*Program, error) {
	for _, c := range tests.Classes {
		if sys.byName[c.Name] != nil {
			return nil, fmt.Errorf("minij: link: test class %s reopens a system class", c.Name)
		}
	}
	n := len(sys.stmts)
	p := &Program{
		Classes:    make([]*Class, 0, len(sys.Classes)+len(tests.Classes)),
		byName:     make(map[string]*Class, len(sys.byName)+len(tests.byName)),
		stmts:      make([]Stmt, 0, n+len(tests.stmts)),
		stmtMethod: make([]*Method, 0, n+len(tests.stmts)),
	}
	p.Classes = append(append(p.Classes, sys.Classes...), tests.Classes...)
	for name, c := range sys.byName {
		p.byName[name] = c
	}
	for name, c := range tests.byName {
		p.byName[name] = c
	}
	p.stmts = append(append(p.stmts, sys.stmts...), tests.stmts...)
	p.stmtMethod = append(append(p.stmtMethod, sys.stmtMethod...), tests.stmtMethod...)
	for i, s := range tests.stmts {
		s.setID(n + i)
	}
	if err := checkError(resolveMethods(p, tests.Classes)); err != nil {
		return nil, err
	}
	return p, nil
}
