package interp

import (
	"context"
	"errors"
	"fmt"

	"lisa/internal/faultinject"
	"lisa/internal/minij"
)

// ErrStepBudget is returned when execution exceeds the configured statement
// budget (a runaway-loop backstop, not a MiniJ exception).
var ErrStepBudget = errors.New("interp: step budget exhausted")

// ErrStackDepth is returned when the call stack exceeds its depth limit.
var ErrStackDepth = errors.New("interp: call stack too deep")

// Exception is a MiniJ exception in flight. Runtime faults surface as
// exceptions with conventional values: "NullPointerException",
// "ArithmeticException", "TypeError", "IndexOutOfBounds".
type Exception struct {
	Value string
	Pos   minij.Pos
}

// Error implements the error interface.
func (e *Exception) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Value) }

// UncaughtError wraps an exception that escaped the entry method.
type UncaughtError struct {
	Exc *Exception
}

// Error implements the error interface.
func (e *UncaughtError) Error() string {
	return "uncaught exception: " + e.Exc.Error()
}

// Frame is one activation record. Hooks receive the current frame so the
// concolic engine can resolve identifier bindings at branch points.
type Frame struct {
	Method *minij.Method
	This   *Object
	scopes []map[string]Value
}

func (f *Frame) push() { f.scopes = append(f.scopes, map[string]Value{}) }
func (f *Frame) pop()  { f.scopes = f.scopes[:len(f.scopes)-1] }

func (f *Frame) declare(name string, v Value) {
	f.scopes[len(f.scopes)-1][name] = v
}

// Lookup resolves a local or parameter name in the frame, innermost scope
// first.
func (f *Frame) Lookup(name string) (Value, bool) {
	for i := len(f.scopes) - 1; i >= 0; i-- {
		if v, ok := f.scopes[i][name]; ok {
			return v, true
		}
	}
	return nil, false
}

// assign rebinds an existing local, reporting whether the name was found.
func (f *Frame) assign(name string, v Value) bool {
	for i := len(f.scopes) - 1; i >= 0; i-- {
		if _, ok := f.scopes[i][name]; ok {
			f.scopes[i][name] = v
			return true
		}
	}
	return false
}

// IOEvent records one builtin I/O call.
type IOEvent struct {
	Builtin   string
	Detail    string
	Blocking  bool
	LocksHeld int
	Pos       minij.Pos
	// Method is the qualified name of the method executing the builtin.
	Method string
}

// Hooks are optional observation points. Any field may be nil.
type Hooks struct {
	// OnStmt fires before each statement executes.
	OnStmt func(s minij.Stmt, fr *Frame)
	// OnBranch fires after a branch condition evaluates, with the taken
	// direction. It fires for if, while, and for conditions.
	OnBranch func(s minij.Stmt, cond minij.Expr, taken bool, fr *Frame)
	// OnEnter fires when a method is entered, after parameters bind. call
	// is the call expression that created the frame, or nil for public
	// entry points and constructor invocations.
	OnEnter func(m *minij.Method, fr *Frame, call *minij.Call)
	// OnExit fires when a method returns or unwinds.
	OnExit func(m *minij.Method)
	// OnBuiltin fires for each builtin call with the lock-nesting depth at
	// the call site (structural contracts key on blocking+locks).
	OnBuiltin func(ev IOEvent)
}

// Options configure an interpreter.
type Options struct {
	StepBudget int // statements; 0 means DefaultStepBudget
	MaxDepth   int // frames; 0 means DefaultMaxDepth
	Clock      int64
	// Ctx, when non-nil, is polled cooperatively in the statement loop
	// (every ctxPollMask+1 steps); cancellation or deadline expiry aborts
	// execution with the context's error, so a run under a wall-clock
	// budget returns promptly even from runaway MiniJ loops.
	Ctx context.Context
}

// ctxPollMask throttles the cancellation poll: the step loop checks
// Options.Ctx when steps&ctxPollMask == 0, bounding cancellation latency
// to ~1k statements while keeping the common path branch-cheap.
const ctxPollMask = 1<<10 - 1

// Default execution limits.
const (
	DefaultStepBudget = 2_000_000
	DefaultMaxDepth   = 2_000
)

// Interp executes MiniJ programs. The program must have been resolved with
// minij.Check (call kinds are consulted during dispatch).
type Interp struct {
	Prog  *minij.Program
	Hooks Hooks

	// Clock is the logical time returned by now(); sleep(n) advances it.
	Clock int64
	// Log collects log() output.
	Log []string
	// IOLog collects every I/O builtin invocation.
	IOLog []IOEvent
	// Files backs ioWrite/ioRead.
	Files map[string]string

	steps     int
	budget    int
	ctx       context.Context
	depth     int
	curMethod []*minij.Method
	maxDepth  int
	// lockHolders has one entry per synchronized block being executed,
	// outermost first: the method whose body contains the block.
	lockHolders []*minij.Method
}

// New returns an interpreter for prog with default options.
func New(prog *minij.Program) *Interp {
	return NewWithOptions(prog, Options{})
}

// NewWithOptions returns an interpreter with explicit limits.
func NewWithOptions(prog *minij.Program, opts Options) *Interp {
	budget := opts.StepBudget
	if budget <= 0 {
		budget = DefaultStepBudget
	}
	maxDepth := opts.MaxDepth
	if maxDepth <= 0 {
		maxDepth = DefaultMaxDepth
	}
	return &Interp{
		Prog:     prog,
		Clock:    opts.Clock,
		Files:    map[string]string{},
		budget:   budget,
		ctx:      opts.Ctx,
		maxDepth: maxDepth,
	}
}

// Steps reports how many statements have executed so far.
func (in *Interp) Steps() int { return in.steps }

// LocksHeld reports the current synchronized-block nesting depth.
func (in *Interp) LocksHeld() int { return len(in.lockHolders) }

// LockHolders returns the method lexically containing each synchronized
// block being executed, outermost first. The slice is the interpreter's
// own; callers must not modify or retain it.
func (in *Interp) LockHolders() []*minij.Method { return in.lockHolders }

// CallStatic invokes a static method by qualified name with the given
// arguments. An exception escaping the method is returned as *UncaughtError.
func (in *Interp) CallStatic(class, method string, args ...Value) (Value, error) {
	m := in.Prog.Method(class, method)
	if m == nil {
		return nil, fmt.Errorf("interp: no method %s.%s", class, method)
	}
	if !m.Static {
		return nil, fmt.Errorf("interp: %s.%s is not static", class, method)
	}
	return in.invoke(m, nil, args)
}

// CallInstance invokes an instance method on obj.
func (in *Interp) CallInstance(obj *Object, method string, args ...Value) (Value, error) {
	m := obj.Class.Method(method)
	if m == nil {
		return nil, fmt.Errorf("interp: class %s has no method %s", obj.Class.Name, method)
	}
	return in.invoke(m, obj, args)
}

// invoke adapts the internal calling convention for public entry points.
func (in *Interp) invoke(m *minij.Method, this *Object, args []Value) (Value, error) {
	v, exc, err := in.callMethod(m, this, args, m.DeclPos, nil)
	if err != nil {
		return nil, err
	}
	if exc != nil {
		return nil, &UncaughtError{Exc: exc}
	}
	return v, nil
}

// Instantiate creates an object of the named class, running its init method
// when present.
func (in *Interp) Instantiate(class string, args ...Value) (*Object, error) {
	c := in.Prog.Class(class)
	if c == nil {
		return nil, fmt.Errorf("interp: unknown class %s", class)
	}
	obj := in.newObject(c)
	if init := c.Method("init"); init != nil {
		if _, exc, err := in.callMethod(init, obj, args, init.DeclPos, nil); err != nil {
			return nil, err
		} else if exc != nil {
			return nil, &UncaughtError{Exc: exc}
		}
	}
	return obj, nil
}

func (in *Interp) newObject(c *minij.Class) *Object {
	obj := &Object{Class: c, Fields: make(map[string]Value, len(c.Fields))}
	for _, f := range c.Fields {
		obj.Fields[f.Name] = ZeroOf(f.Type)
	}
	return obj
}

type ctrlKind int

const (
	ctrlNormal ctrlKind = iota
	ctrlReturn
	ctrlBreak
	ctrlContinue
	ctrlThrow
)

type outcome struct {
	kind ctrlKind
	ret  Value
	exc  *Exception
}

var okOutcome = outcome{}

func throw(value string, pos minij.Pos) outcome {
	return outcome{kind: ctrlThrow, exc: &Exception{Value: value, Pos: pos}}
}

// callMethod binds arguments and executes the body. call is the invoking
// call expression, or nil for entry points and constructors.
func (in *Interp) callMethod(m *minij.Method, this *Object, args []Value, pos minij.Pos, call *minij.Call) (Value, *Exception, error) {
	if faultinject.Armed() {
		switch k, ok := faultinject.At("interp.call:" + m.FullName()); {
		case ok && k == faultinject.Budget:
			return nil, nil, ErrStepBudget
		case ok && k == faultinject.Panic:
			panic("faultinject: interp.call " + m.FullName())
		}
	}
	if in.depth >= in.maxDepth {
		return nil, nil, ErrStackDepth
	}
	if len(args) != len(m.Params) {
		return nil, nil, fmt.Errorf("interp: %s: %d args, want %d", m.FullName(), len(args), len(m.Params))
	}
	fr := &Frame{Method: m, This: this}
	fr.push()
	for i, p := range m.Params {
		fr.declare(p.Name, args[i])
	}
	in.depth++
	in.curMethod = append(in.curMethod, m)
	if in.Hooks.OnEnter != nil {
		in.Hooks.OnEnter(m, fr, call)
	}
	out, err := in.execBlock(m.Body, fr)
	if in.Hooks.OnExit != nil {
		in.Hooks.OnExit(m)
	}
	in.curMethod = in.curMethod[:len(in.curMethod)-1]
	in.depth--
	if err != nil {
		return nil, nil, err
	}
	switch out.kind {
	case ctrlThrow:
		return nil, out.exc, nil
	case ctrlReturn:
		if out.ret == nil {
			return Null{}, nil, nil
		}
		return out.ret, nil, nil
	default:
		if m.Ret.Kind == minij.TypeVoid {
			return Null{}, nil, nil
		}
		// Falling off the end of a non-void method yields the zero value;
		// the resolver is lenient about exhaustiveness on purpose (the
		// corpus mirrors real-world partial methods).
		return ZeroOf(m.Ret), nil, nil
	}
}

func (in *Interp) execBlock(b *minij.Block, fr *Frame) (outcome, error) {
	fr.push()
	defer fr.pop()
	for _, s := range b.Stmts {
		out, err := in.exec(s, fr)
		if err != nil || out.kind != ctrlNormal {
			return out, err
		}
	}
	return okOutcome, nil
}

func (in *Interp) exec(s minij.Stmt, fr *Frame) (outcome, error) {
	in.steps++
	if in.steps > in.budget {
		return okOutcome, ErrStepBudget
	}
	if in.ctx != nil && in.steps&ctxPollMask == 0 {
		select {
		case <-in.ctx.Done():
			return okOutcome, in.ctx.Err()
		default:
		}
	}
	if in.Hooks.OnStmt != nil {
		in.Hooks.OnStmt(s, fr)
	}
	switch n := s.(type) {
	case *minij.Block:
		return in.execBlock(n, fr)
	case *minij.VarDecl:
		v := ZeroOf(n.Type)
		if n.Init != nil {
			var exc *Exception
			var err error
			v, exc, err = in.eval(n.Init, fr)
			if err != nil {
				return okOutcome, err
			}
			if exc != nil {
				return outcome{kind: ctrlThrow, exc: exc}, nil
			}
		}
		fr.declare(n.Name, v)
		return okOutcome, nil
	case *minij.Assign:
		return in.execAssign(n, fr)
	case *minij.If:
		taken, out, err := in.evalBranch(n, n.Cond, fr)
		if err != nil || out.kind != ctrlNormal {
			return out, err
		}
		if taken {
			return in.execBlock(n.Then, fr)
		}
		if n.Else != nil {
			return in.exec(n.Else, fr)
		}
		return okOutcome, nil
	case *minij.While:
		for {
			taken, out, err := in.evalBranch(n, n.Cond, fr)
			if err != nil || out.kind != ctrlNormal {
				return out, err
			}
			if !taken {
				return okOutcome, nil
			}
			out, err = in.execBlock(n.Body, fr)
			if err != nil {
				return out, err
			}
			switch out.kind {
			case ctrlBreak:
				return okOutcome, nil
			case ctrlNormal, ctrlContinue:
			default:
				return out, nil
			}
		}
	case *minij.For:
		fr.push()
		defer fr.pop()
		if n.Init != nil {
			out, err := in.exec(n.Init, fr)
			if err != nil || out.kind != ctrlNormal {
				return out, err
			}
		}
		for {
			if n.Cond != nil {
				taken, out, err := in.evalBranch(n, n.Cond, fr)
				if err != nil || out.kind != ctrlNormal {
					return out, err
				}
				if !taken {
					return okOutcome, nil
				}
			}
			out, err := in.execBlock(n.Body, fr)
			if err != nil {
				return out, err
			}
			switch out.kind {
			case ctrlBreak:
				return okOutcome, nil
			case ctrlNormal, ctrlContinue:
			default:
				return out, nil
			}
			if n.Post != nil {
				out, err := in.exec(n.Post, fr)
				if err != nil || out.kind != ctrlNormal {
					return out, err
				}
			}
		}
	case *minij.ForEach:
		v, exc, err := in.eval(n.Iter, fr)
		if err != nil {
			return okOutcome, err
		}
		if exc != nil {
			return outcome{kind: ctrlThrow, exc: exc}, nil
		}
		lst, ok := v.(*List)
		if !ok {
			if IsNull(v) {
				return throw("NullPointerException", n.Iter.Pos()), nil
			}
			return throw("TypeError", n.Iter.Pos()), nil
		}
		snapshot := make([]Value, len(lst.Elems))
		copy(snapshot, lst.Elems)
		for _, el := range snapshot {
			fr.push()
			fr.declare(n.Var, el)
			out, err := in.execBlock(n.Body, fr)
			fr.pop()
			if err != nil {
				return out, err
			}
			switch out.kind {
			case ctrlBreak:
				return okOutcome, nil
			case ctrlNormal, ctrlContinue:
			default:
				return out, nil
			}
		}
		return okOutcome, nil
	case *minij.Return:
		if n.Value == nil {
			return outcome{kind: ctrlReturn}, nil
		}
		v, exc, err := in.eval(n.Value, fr)
		if err != nil {
			return okOutcome, err
		}
		if exc != nil {
			return outcome{kind: ctrlThrow, exc: exc}, nil
		}
		return outcome{kind: ctrlReturn, ret: v}, nil
	case *minij.Break:
		return outcome{kind: ctrlBreak}, nil
	case *minij.Continue:
		return outcome{kind: ctrlContinue}, nil
	case *minij.Throw:
		v, exc, err := in.eval(n.Value, fr)
		if err != nil {
			return okOutcome, err
		}
		if exc != nil {
			return outcome{kind: ctrlThrow, exc: exc}, nil
		}
		sv, ok := v.(Str)
		if !ok {
			return throw("TypeError", n.Pos()), nil
		}
		return throw(string(sv), n.Pos()), nil
	case *minij.Try:
		out, err := in.execBlock(n.Body, fr)
		if err != nil {
			return out, err
		}
		if out.kind != ctrlThrow {
			return out, nil
		}
		fr.push()
		fr.declare(n.CatchVar, Str(out.exc.Value))
		catchOut, err := in.execBlock(n.Catch, fr)
		fr.pop()
		return catchOut, err
	case *minij.Sync:
		lock, exc, err := in.eval(n.Lock, fr)
		if err != nil {
			return okOutcome, err
		}
		if exc != nil {
			return outcome{kind: ctrlThrow, exc: exc}, nil
		}
		if IsNull(lock) {
			return throw("NullPointerException", n.Lock.Pos()), nil
		}
		in.lockHolders = append(in.lockHolders, fr.Method)
		out, err := in.execBlock(n.Body, fr)
		in.lockHolders = in.lockHolders[:len(in.lockHolders)-1]
		return out, err
	case *minij.ExprStmt:
		_, exc, err := in.eval(n.E, fr)
		if err != nil {
			return okOutcome, err
		}
		if exc != nil {
			return outcome{kind: ctrlThrow, exc: exc}, nil
		}
		return okOutcome, nil
	}
	return okOutcome, fmt.Errorf("interp: unhandled statement %T", s)
}

// evalBranch evaluates a branch condition and reports the taken direction,
// firing the OnBranch hook.
func (in *Interp) evalBranch(s minij.Stmt, cond minij.Expr, fr *Frame) (bool, outcome, error) {
	v, exc, err := in.eval(cond, fr)
	if err != nil {
		return false, okOutcome, err
	}
	if exc != nil {
		return false, outcome{kind: ctrlThrow, exc: exc}, nil
	}
	b, ok := Truthy(v)
	if !ok {
		return false, throw("TypeError", cond.Pos()), nil
	}
	if in.Hooks.OnBranch != nil {
		in.Hooks.OnBranch(s, cond, b, fr)
	}
	return b, okOutcome, nil
}

func (in *Interp) execAssign(n *minij.Assign, fr *Frame) (outcome, error) {
	v, exc, err := in.eval(n.Value, fr)
	if err != nil {
		return okOutcome, err
	}
	if exc != nil {
		return outcome{kind: ctrlThrow, exc: exc}, nil
	}
	switch t := n.Target.(type) {
	case *minij.Ident:
		if fr.assign(t.Name, v) {
			return okOutcome, nil
		}
		if fr.This != nil {
			if _, ok := fr.This.Fields[t.Name]; ok {
				fr.This.Fields[t.Name] = v
				return okOutcome, nil
			}
		}
		return okOutcome, fmt.Errorf("interp: %s: assign to undefined %q", t.Pos(), t.Name)
	case *minij.FieldAccess:
		recv, exc, err := in.eval(t.Recv, fr)
		if err != nil {
			return okOutcome, err
		}
		if exc != nil {
			return outcome{kind: ctrlThrow, exc: exc}, nil
		}
		obj, ok := recv.(*Object)
		if !ok {
			if IsNull(recv) {
				return throw("NullPointerException", t.Pos()), nil
			}
			return throw("TypeError", t.Pos()), nil
		}
		if _, ok := obj.Fields[t.Name]; !ok {
			return throw("TypeError", t.Pos()), nil
		}
		obj.Fields[t.Name] = v
		return okOutcome, nil
	}
	return okOutcome, fmt.Errorf("interp: invalid assignment target %T", n.Target)
}
