package interp

import (
	"fmt"
	"strings"

	"lisa/internal/minij"
)

// eval evaluates an expression, returning its value, a MiniJ exception, or
// an interpreter-level error. Exactly one of the three results is
// meaningful.
func (in *Interp) eval(e minij.Expr, fr *Frame) (Value, *Exception, error) {
	switch n := e.(type) {
	case *minij.IntLit:
		return Int(n.Value), nil, nil
	case *minij.BoolLit:
		return Bool(n.Value), nil, nil
	case *minij.StrLit:
		return Str(n.Value), nil, nil
	case *minij.NullLit:
		return Null{}, nil, nil
	case *minij.Ident:
		if v, ok := fr.Lookup(n.Name); ok {
			return v, nil, nil
		}
		if fr.This != nil {
			if v, ok := fr.This.Fields[n.Name]; ok {
				return v, nil, nil
			}
		}
		return nil, nil, fmt.Errorf("interp: %s: undefined variable %q", n.Pos(), n.Name)
	case *minij.FieldAccess:
		recv, exc, err := in.eval(n.Recv, fr)
		if err != nil || exc != nil {
			return nil, exc, err
		}
		obj, ok := recv.(*Object)
		if !ok {
			if IsNull(recv) {
				return nil, &Exception{Value: "NullPointerException", Pos: n.Pos()}, nil
			}
			return nil, &Exception{Value: "TypeError", Pos: n.Pos()}, nil
		}
		v, ok := obj.Fields[n.Name]
		if !ok {
			return nil, &Exception{Value: "TypeError", Pos: n.Pos()}, nil
		}
		return v, nil, nil
	case *minij.Call:
		return in.evalCall(n, fr)
	case *minij.New:
		c := in.Prog.Class(n.Class)
		if c == nil {
			return nil, nil, fmt.Errorf("interp: %s: unknown class %q", n.Pos(), n.Class)
		}
		args, exc, err := in.evalArgs(n.Args, fr)
		if err != nil || exc != nil {
			return nil, exc, err
		}
		obj := in.newObject(c)
		if init := c.Method("init"); init != nil {
			_, exc, err := in.callMethod(init, obj, args, n.Pos(), nil)
			if err != nil || exc != nil {
				return nil, exc, err
			}
		}
		return obj, nil, nil
	case *minij.Unary:
		x, exc, err := in.eval(n.X, fr)
		if err != nil || exc != nil {
			return nil, exc, err
		}
		switch n.Op {
		case "!":
			b, ok := x.(Bool)
			if !ok {
				return nil, &Exception{Value: "TypeError", Pos: n.Pos()}, nil
			}
			return Bool(!b), nil, nil
		case "-":
			i, ok := x.(Int)
			if !ok {
				return nil, &Exception{Value: "TypeError", Pos: n.Pos()}, nil
			}
			return Int(-i), nil, nil
		}
		return nil, nil, fmt.Errorf("interp: unknown unary %q", n.Op)
	case *minij.Binary:
		return in.evalBinary(n, fr)
	}
	return nil, nil, fmt.Errorf("interp: unhandled expression %T", e)
}

func (in *Interp) evalArgs(args []minij.Expr, fr *Frame) ([]Value, *Exception, error) {
	out := make([]Value, len(args))
	for i, a := range args {
		v, exc, err := in.eval(a, fr)
		if err != nil || exc != nil {
			return nil, exc, err
		}
		out[i] = v
	}
	return out, nil, nil
}

func (in *Interp) evalBinary(n *minij.Binary, fr *Frame) (Value, *Exception, error) {
	// Short-circuit logic first.
	if n.Op == "&&" || n.Op == "||" {
		x, exc, err := in.eval(n.X, fr)
		if err != nil || exc != nil {
			return nil, exc, err
		}
		xb, ok := x.(Bool)
		if !ok {
			return nil, &Exception{Value: "TypeError", Pos: n.Pos()}, nil
		}
		if n.Op == "&&" && !bool(xb) {
			return Bool(false), nil, nil
		}
		if n.Op == "||" && bool(xb) {
			return Bool(true), nil, nil
		}
		y, exc, err := in.eval(n.Y, fr)
		if err != nil || exc != nil {
			return nil, exc, err
		}
		yb, ok := y.(Bool)
		if !ok {
			return nil, &Exception{Value: "TypeError", Pos: n.Pos()}, nil
		}
		return yb, nil, nil
	}
	x, exc, err := in.eval(n.X, fr)
	if err != nil || exc != nil {
		return nil, exc, err
	}
	y, exc, err := in.eval(n.Y, fr)
	if err != nil || exc != nil {
		return nil, exc, err
	}
	switch n.Op {
	case "==":
		return Bool(Equal(x, y)), nil, nil
	case "!=":
		return Bool(!Equal(x, y)), nil, nil
	case "+":
		if xs, ok := x.(Str); ok {
			return xs + Str(Format(y)), nil, nil
		}
		if ys, ok := y.(Str); ok {
			return Str(Format(x)) + ys, nil, nil
		}
	}
	xi, xok := x.(Int)
	yi, yok := y.(Int)
	if !xok || !yok {
		return nil, &Exception{Value: "TypeError", Pos: n.Pos()}, nil
	}
	switch n.Op {
	case "+":
		return xi + yi, nil, nil
	case "-":
		return xi - yi, nil, nil
	case "*":
		return xi * yi, nil, nil
	case "/":
		if yi == 0 {
			return nil, &Exception{Value: "ArithmeticException", Pos: n.Pos()}, nil
		}
		return xi / yi, nil, nil
	case "%":
		if yi == 0 {
			return nil, &Exception{Value: "ArithmeticException", Pos: n.Pos()}, nil
		}
		return xi % yi, nil, nil
	case "<":
		return Bool(xi < yi), nil, nil
	case "<=":
		return Bool(xi <= yi), nil, nil
	case ">":
		return Bool(xi > yi), nil, nil
	case ">=":
		return Bool(xi >= yi), nil, nil
	}
	return nil, nil, fmt.Errorf("interp: unknown operator %q", n.Op)
}

func (in *Interp) evalCall(n *minij.Call, fr *Frame) (Value, *Exception, error) {
	switch n.Kind {
	case minij.CallBuiltin:
		args, exc, err := in.evalArgs(n.Args, fr)
		if err != nil || exc != nil {
			return nil, exc, err
		}
		return in.callBuiltin(n.Name, args, n.Pos())
	case minij.CallSelf:
		m := fr.Method.Class.Method(n.Name)
		if m == nil {
			return nil, nil, fmt.Errorf("interp: %s: no sibling method %q", n.Pos(), n.Name)
		}
		args, exc, err := in.evalArgs(n.Args, fr)
		if err != nil || exc != nil {
			return nil, exc, err
		}
		this := fr.This
		if m.Static {
			this = nil
		}
		return in.callMethod(m, this, args, n.Pos(), n)
	case minij.CallStatic:
		className := n.Recv.(*minij.Ident).Name
		m := in.Prog.Method(className, n.Name)
		if m == nil {
			return nil, nil, fmt.Errorf("interp: %s: no method %s.%s", n.Pos(), className, n.Name)
		}
		args, exc, err := in.evalArgs(n.Args, fr)
		if err != nil || exc != nil {
			return nil, exc, err
		}
		return in.callMethod(m, nil, args, n.Pos(), n)
	case minij.CallInstance:
		recv, exc, err := in.eval(n.Recv, fr)
		if err != nil || exc != nil {
			return nil, exc, err
		}
		args, exc, err := in.evalArgs(n.Args, fr)
		if err != nil || exc != nil {
			return nil, exc, err
		}
		switch r := recv.(type) {
		case *Object:
			m := r.Class.Method(n.Name)
			if m == nil {
				return nil, &Exception{Value: "TypeError", Pos: n.Pos()}, nil
			}
			return in.callMethod(m, r, args, n.Pos(), n)
		case *List:
			return in.callList(r, n.Name, args, n.Pos())
		case *Map:
			return in.callMap(r, n.Name, args, n.Pos())
		case Null:
			return nil, &Exception{Value: "NullPointerException", Pos: n.Pos()}, nil
		}
		return nil, &Exception{Value: "TypeError", Pos: n.Pos()}, nil
	}
	return nil, nil, fmt.Errorf("interp: %s: unresolved call %q (program not checked?)", n.Pos(), n.Name)
}

func (in *Interp) callBuiltin(name string, args []Value, pos minij.Pos) (Value, *Exception, error) {
	sig, ok := minij.Builtin(name)
	if !ok {
		return nil, nil, fmt.Errorf("interp: %s: unknown builtin %q", pos, name)
	}
	emit := func(detail string) {
		method := ""
		if len(in.curMethod) > 0 {
			method = in.curMethod[len(in.curMethod)-1].FullName()
		}
		ev := IOEvent{Builtin: name, Detail: detail, Blocking: sig.Blocking, LocksHeld: len(in.lockHolders), Pos: pos, Method: method}
		in.IOLog = append(in.IOLog, ev)
		if in.Hooks.OnBuiltin != nil {
			in.Hooks.OnBuiltin(ev)
		}
	}
	switch name {
	case "now":
		return Int(in.Clock), nil, nil
	case "log":
		in.Log = append(in.Log, Format(args[0]))
		return Null{}, nil, nil
	case "ioWrite":
		key, ok := args[0].(Str)
		if !ok {
			return nil, &Exception{Value: "TypeError", Pos: pos}, nil
		}
		in.Files[string(key)] = Format(args[1])
		emit(string(key))
		return Null{}, nil, nil
	case "ioRead":
		key, ok := args[0].(Str)
		if !ok {
			return nil, &Exception{Value: "TypeError", Pos: pos}, nil
		}
		emit(string(key))
		return Str(in.Files[string(key)]), nil, nil
	case "ioFlush":
		emit("")
		return Null{}, nil, nil
	case "netSend":
		addr, ok := args[0].(Str)
		if !ok {
			return nil, &Exception{Value: "TypeError", Pos: pos}, nil
		}
		emit(string(addr) + " <- " + Format(args[1]))
		return Null{}, nil, nil
	case "sleep":
		d, ok := args[0].(Int)
		if !ok {
			return nil, &Exception{Value: "TypeError", Pos: pos}, nil
		}
		in.Clock += int64(d)
		emit(Format(args[0]))
		return Null{}, nil, nil
	case "newList":
		return &List{}, nil, nil
	case "newMap":
		return NewMap(), nil, nil
	case "len":
		switch v := args[0].(type) {
		case Str:
			return Int(len(v)), nil, nil
		case *List:
			return Int(len(v.Elems)), nil, nil
		case *Map:
			return Int(v.Len()), nil, nil
		}
		return nil, &Exception{Value: "TypeError", Pos: pos}, nil
	case "str":
		return Str(Format(args[0])), nil, nil
	case "strContains":
		s, ok1 := args[0].(Str)
		sub, ok2 := args[1].(Str)
		if !ok1 || !ok2 {
			return nil, &Exception{Value: "TypeError", Pos: pos}, nil
		}
		return Bool(strings.Contains(string(s), string(sub))), nil, nil
	case "min", "max":
		a, ok1 := args[0].(Int)
		b, ok2 := args[1].(Int)
		if !ok1 || !ok2 {
			return nil, &Exception{Value: "TypeError", Pos: pos}, nil
		}
		if (name == "min") == (a < b) {
			return a, nil, nil
		}
		return b, nil, nil
	case "abort":
		return nil, &Exception{Value: "Abort: " + Format(args[0]), Pos: pos}, nil
	case "assertTrue":
		cond, ok := args[0].(Bool)
		if !ok {
			return nil, &Exception{Value: "TypeError", Pos: pos}, nil
		}
		if !cond {
			return nil, &Exception{Value: "AssertionError: " + Format(args[1]), Pos: pos}, nil
		}
		return Null{}, nil, nil
	}
	return nil, nil, fmt.Errorf("interp: builtin %q not implemented", name)
}

func (in *Interp) callList(l *List, name string, args []Value, pos minij.Pos) (Value, *Exception, error) {
	switch name {
	case "add":
		l.Elems = append(l.Elems, args[0])
		return Null{}, nil, nil
	case "addAll":
		other, ok := args[0].(*List)
		if !ok {
			return nil, &Exception{Value: "TypeError", Pos: pos}, nil
		}
		l.Elems = append(l.Elems, other.Elems...)
		return Null{}, nil, nil
	case "get":
		i, ok := args[0].(Int)
		if !ok {
			return nil, &Exception{Value: "TypeError", Pos: pos}, nil
		}
		if i < 0 || int(i) >= len(l.Elems) {
			return nil, &Exception{Value: "IndexOutOfBounds", Pos: pos}, nil
		}
		return l.Elems[i], nil, nil
	case "size":
		return Int(len(l.Elems)), nil, nil
	case "isEmpty":
		return Bool(len(l.Elems) == 0), nil, nil
	case "contains":
		for _, e := range l.Elems {
			if Equal(e, args[0]) {
				return Bool(true), nil, nil
			}
		}
		return Bool(false), nil, nil
	case "remove":
		for i, e := range l.Elems {
			if Equal(e, args[0]) {
				l.Elems = append(l.Elems[:i], l.Elems[i+1:]...)
				return Bool(true), nil, nil
			}
		}
		return Bool(false), nil, nil
	case "removeAt":
		i, ok := args[0].(Int)
		if !ok {
			return nil, &Exception{Value: "TypeError", Pos: pos}, nil
		}
		if i < 0 || int(i) >= len(l.Elems) {
			return nil, &Exception{Value: "IndexOutOfBounds", Pos: pos}, nil
		}
		l.Elems = append(l.Elems[:i], l.Elems[i+1:]...)
		return Null{}, nil, nil
	case "clear":
		l.Elems = nil
		return Null{}, nil, nil
	}
	return nil, &Exception{Value: "TypeError", Pos: pos}, nil
}

func (in *Interp) callMap(m *Map, name string, args []Value, pos minij.Pos) (Value, *Exception, error) {
	switch name {
	case "put":
		if !validKey(args[0]) {
			return nil, &Exception{Value: "TypeError", Pos: pos}, nil
		}
		m.Put(args[0], args[1])
		return Null{}, nil, nil
	case "get":
		return m.Get(args[0]), nil, nil
	case "has":
		return Bool(m.Has(args[0])), nil, nil
	case "remove":
		return m.Remove(args[0]), nil, nil
	case "size":
		return Int(m.Len()), nil, nil
	case "isEmpty":
		return Bool(m.Len() == 0), nil, nil
	case "keys":
		return &List{Elems: m.Keys()}, nil, nil
	case "values":
		vals := make([]Value, 0, m.Len())
		for _, k := range m.Keys() {
			vals = append(vals, m.Get(k))
		}
		return &List{Elems: vals}, nil, nil
	case "clear":
		m.Clear()
		return Null{}, nil, nil
	}
	return nil, &Exception{Value: "TypeError", Pos: pos}, nil
}

// validKey reports whether v may key a MiniJ map. Mutable containers are
// allowed as keys by identity, matching Java HashMap semantics closely
// enough for the corpus; only interpreter-internal values are rejected.
func validKey(v Value) bool {
	switch v.(type) {
	case Int, Bool, Str, Null, *Object:
		return true
	}
	return false
}
