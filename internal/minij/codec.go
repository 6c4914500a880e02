package minij

// Binary AST codec for resolved MiniJ programs. A persisted snapshot used
// to restore by re-parsing its source and re-rendering the canon — at
// MiniJ scale that costs about as much as compiling, which turned the disk
// tier's counter win into a wall-clock break-even. EncodeProgram captures
// the resolved AST (node structure, positions, call kinds, and the
// expression type table) in a deterministic, self-delimiting frame so a
// cold process can DecodeProgram instead of parse+resolve.
//
// Frame layout:
//
//	magic "MJAC" | version u16 BE | payload len uvarint | payload | sha256
//
// The sha256 trailer covers every preceding byte, so truncation, bit
// flips, and version skew are all rejected before a single payload byte
// is interpreted — a corrupt frame can degrade to a recompute miss but
// can never decode into a wrong AST. Within the payload, integers are
// varints, strings are length-prefixed, and every node carries a tag
// byte, so the encoding is independent of word size and map iteration
// order: one program always encodes to one byte string.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// codecVersion is bumped whenever the payload layout changes; decoders
// reject any other version so a stale record reads as a miss, never as a
// misinterpreted AST.
const codecVersion = 1

var codecMagic = [4]byte{'M', 'J', 'A', 'C'}

// Codec sentinel errors, matched with errors.Is.
var (
	// ErrCodecTruncated reports a frame shorter than its own framing
	// claims (including an empty or header-only payload).
	ErrCodecTruncated = errors.New("minij: truncated AST payload")
	// ErrCodecVersion reports a frame written by a different codec
	// version (or something that is not an AST frame at all).
	ErrCodecVersion = errors.New("minij: AST payload version mismatch")
	// ErrCodecCorrupt reports a frame whose checksum or structure does
	// not hold together.
	ErrCodecCorrupt = errors.New("minij: corrupt AST payload")
)

// Statement and expression tags. Tag 0 is reserved for "nil node" so
// optional children (else branches, loop clauses, call receivers) are
// self-describing.
const (
	tagNil = iota
	tagBlock
	tagVarDecl
	tagAssign
	tagIf
	tagWhile
	tagFor
	tagForEach
	tagReturn
	tagBreak
	tagContinue
	tagThrow
	tagTry
	tagSync
	tagExprStmt

	tagIntLit
	tagBoolLit
	tagStrLit
	tagNullLit
	tagIdent
	tagFieldAccess
	tagCall
	tagNew
	tagUnary
	tagBinary
	tagMax
)

// EncodeProgram serializes a parsed (and normally resolved) program into
// the checksummed binary frame. Encoding is deterministic: the same
// program always yields the same bytes.
func EncodeProgram(p *Program) ([]byte, error) {
	if p == nil {
		return nil, fmt.Errorf("%w: nil program", ErrCodecCorrupt)
	}
	e := &encoder{prog: p}
	e.uvarint(uint64(len(p.Classes)))
	for _, c := range p.Classes {
		e.class(c)
	}
	payload := e.buf

	out := make([]byte, 0, len(payload)+4+2+binary.MaxVarintLen64+sha256.Size)
	out = append(out, codecMagic[:]...)
	out = binary.BigEndian.AppendUint16(out, codecVersion)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = append(out, payload...)
	sum := sha256.Sum256(out)
	out = append(out, sum[:]...)
	return out, nil
}

// DecodeProgram reconstructs a program from an EncodeProgram frame. The
// checksum is verified before any payload byte is interpreted; the
// returned program is indexed (lookup tables, dense statement IDs) exactly
// as a freshly parsed one, with ExprTypes and Call kinds restored, so no
// re-resolution is needed.
func DecodeProgram(data []byte) (*Program, error) {
	body, err := checkFrame(data)
	if err != nil {
		return nil, err
	}
	d := &decoder{buf: body, prog: &Program{ExprTypes: map[Expr]Type{}}}
	n := d.uvarint()
	for i := uint64(0); i < n && d.err == nil; i++ {
		d.prog.Classes = append(d.prog.Classes, d.class())
	}
	if d.err == nil && d.off != len(d.buf) {
		d.fail("trailing payload bytes")
	}
	if d.err != nil {
		return nil, d.err
	}
	// indexProgram rebuilds the lookup tables and assigns statement IDs in
	// the same deterministic walk order the parser uses, so a decoded
	// program is indistinguishable from a parsed one.
	if err := indexProgram(d.prog); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCodecCorrupt, err)
	}
	return d.prog, nil
}

// checkFrame validates magic, version, length, and checksum, returning the
// payload slice.
func checkFrame(data []byte) ([]byte, error) {
	if len(data) < 4+2+1+sha256.Size {
		return nil, ErrCodecTruncated
	}
	if [4]byte(data[:4]) != codecMagic {
		return nil, ErrCodecVersion
	}
	if v := binary.BigEndian.Uint16(data[4:6]); v != codecVersion {
		return nil, fmt.Errorf("%w: got v%d, want v%d", ErrCodecVersion, v, codecVersion)
	}
	plen, n := binary.Uvarint(data[6:])
	if n <= 0 {
		return nil, ErrCodecTruncated
	}
	head := 6 + n
	if uint64(len(data)) != uint64(head)+plen+sha256.Size {
		return nil, ErrCodecTruncated
	}
	sum := sha256.Sum256(data[:len(data)-sha256.Size])
	if [sha256.Size]byte(data[len(data)-sha256.Size:]) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCodecCorrupt)
	}
	return data[head : len(data)-sha256.Size], nil
}

type encoder struct {
	buf  []byte
	prog *Program
}

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) svarint(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) byte(b byte)      { e.buf = append(e.buf, b) }
func (e *encoder) string(s string)  { e.uvarint(uint64(len(s))); e.buf = append(e.buf, s...) }
func (e *encoder) pos(p Pos)        { e.uvarint(uint64(p.Line)); e.uvarint(uint64(p.Col)) }

func (e *encoder) bool(b bool) {
	if b {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

func (e *encoder) typ(t Type) {
	e.byte(byte(t.Kind))
	if t.Kind == TypeObject {
		e.string(t.Class)
	}
}

func (e *encoder) class(c *Class) {
	e.string(c.Name)
	e.pos(c.DeclPos)
	e.uvarint(uint64(len(c.Fields)))
	for _, f := range c.Fields {
		e.string(f.Name)
		e.typ(f.Type)
		e.pos(f.DeclPos)
	}
	e.uvarint(uint64(len(c.Methods)))
	for _, m := range c.Methods {
		e.string(m.Name)
		e.bool(m.Static)
		e.typ(m.Ret)
		e.pos(m.DeclPos)
		e.uvarint(uint64(len(m.Params)))
		for _, p := range m.Params {
			e.string(p.Name)
			e.typ(p.Type)
		}
		e.stmt(m.Body)
	}
}

func (e *encoder) stmt(s Stmt) {
	if s == nil {
		e.byte(tagNil)
		return
	}
	switch n := s.(type) {
	case *Block:
		e.byte(tagBlock)
		e.pos(n.pos)
		e.uvarint(uint64(len(n.Stmts)))
		for _, c := range n.Stmts {
			e.stmt(c)
		}
	case *VarDecl:
		e.byte(tagVarDecl)
		e.pos(n.pos)
		e.typ(n.Type)
		e.string(n.Name)
		e.expr(n.Init)
	case *Assign:
		e.byte(tagAssign)
		e.pos(n.pos)
		e.expr(n.Target)
		e.expr(n.Value)
	case *If:
		e.byte(tagIf)
		e.pos(n.pos)
		e.expr(n.Cond)
		e.stmt(n.Then)
		e.stmt(n.Else)
	case *While:
		e.byte(tagWhile)
		e.pos(n.pos)
		e.expr(n.Cond)
		e.stmt(n.Body)
	case *For:
		e.byte(tagFor)
		e.pos(n.pos)
		e.stmt(n.Init)
		e.expr(n.Cond)
		e.stmt(n.Post)
		e.stmt(n.Body)
	case *ForEach:
		e.byte(tagForEach)
		e.pos(n.pos)
		e.string(n.Var)
		e.expr(n.Iter)
		e.stmt(n.Body)
	case *Return:
		e.byte(tagReturn)
		e.pos(n.pos)
		e.expr(n.Value)
	case *Break:
		e.byte(tagBreak)
		e.pos(n.pos)
	case *Continue:
		e.byte(tagContinue)
		e.pos(n.pos)
	case *Throw:
		e.byte(tagThrow)
		e.pos(n.pos)
		e.expr(n.Value)
	case *Try:
		e.byte(tagTry)
		e.pos(n.pos)
		e.stmt(n.Body)
		e.string(n.CatchVar)
		e.stmt(n.Catch)
	case *Sync:
		e.byte(tagSync)
		e.pos(n.pos)
		e.expr(n.Lock)
		e.stmt(n.Body)
	case *ExprStmt:
		e.byte(tagExprStmt)
		e.pos(n.pos)
		e.expr(n.E)
	default:
		panic(fmt.Sprintf("minij: EncodeProgram: unknown statement %T", s))
	}
}

func (e *encoder) expr(x Expr) {
	if x == nil {
		e.byte(tagNil)
		return
	}
	switch n := x.(type) {
	case *IntLit:
		e.byte(tagIntLit)
		e.pos(n.pos)
		e.svarint(n.Value)
	case *BoolLit:
		e.byte(tagBoolLit)
		e.pos(n.pos)
		e.bool(n.Value)
	case *StrLit:
		e.byte(tagStrLit)
		e.pos(n.pos)
		e.string(n.Value)
	case *NullLit:
		e.byte(tagNullLit)
		e.pos(n.pos)
	case *Ident:
		e.byte(tagIdent)
		e.pos(n.pos)
		e.string(n.Name)
	case *FieldAccess:
		e.byte(tagFieldAccess)
		e.pos(n.pos)
		e.expr(n.Recv)
		e.string(n.Name)
	case *Call:
		e.byte(tagCall)
		e.pos(n.pos)
		e.expr(n.Recv)
		e.string(n.Name)
		e.byte(byte(n.Kind))
		e.uvarint(uint64(len(n.Args)))
		for _, a := range n.Args {
			e.expr(a)
		}
	case *New:
		e.byte(tagNew)
		e.pos(n.pos)
		e.string(n.Class)
		e.uvarint(uint64(len(n.Args)))
		for _, a := range n.Args {
			e.expr(a)
		}
	case *Unary:
		e.byte(tagUnary)
		e.pos(n.pos)
		e.string(n.Op)
		e.expr(n.X)
	case *Binary:
		e.byte(tagBinary)
		e.pos(n.pos)
		e.string(n.Op)
		e.expr(n.X)
		e.expr(n.Y)
	default:
		panic(fmt.Sprintf("minij: EncodeProgram: unknown expression %T", x))
	}
	// The resolver's type table is keyed by node identity, which does not
	// survive serialization, so each node carries its own entry inline. Not
	// every node has one — a static-call receiver, for example, is a class
	// name, not a value — hence the presence flag.
	if t, ok := e.prog.exprType(x); ok {
		e.byte(1)
		e.typ(t)
	} else {
		e.byte(0)
	}
}

// decoder reads the payload with a sticky error: once any read fails, all
// subsequent reads return zero values and decode aborts at the top level.
// Every length is bounds-checked against the remaining payload before
// allocation, so even an adversarial (checksum-valid) frame cannot force
// an oversized allocation.
type decoder struct {
	buf  []byte
	off  int
	err  error
	prog *Program
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s (offset %d)", ErrCodecCorrupt, fmt.Sprintf(format, args...), d.off)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) svarint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("unexpected end of payload")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("string length %d exceeds remaining payload", n)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *decoder) bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad bool")
		return false
	}
}

func (d *decoder) count() int {
	n := d.uvarint()
	// Every counted element occupies at least one payload byte, so any
	// count beyond the remaining length is structurally impossible.
	if d.err == nil && n > uint64(len(d.buf)-d.off) {
		d.fail("count %d exceeds remaining payload", n)
		return 0
	}
	return int(n)
}

func (d *decoder) pos() Pos {
	line, col := d.uvarint(), d.uvarint()
	return Pos{Line: int(line), Col: int(col)}
}

func (d *decoder) typ() Type {
	k := d.byte()
	if TypeKind(k) > TypeAny {
		d.fail("bad type kind %d", k)
		return Type{}
	}
	t := Type{Kind: TypeKind(k)}
	if t.Kind == TypeObject {
		t.Class = d.string()
	}
	return t
}

func (d *decoder) class() *Class {
	c := &Class{Name: d.string(), DeclPos: d.pos()}
	for i, n := 0, d.count(); i < n && d.err == nil; i++ {
		c.Fields = append(c.Fields, &Field{Name: d.string(), Type: d.typ(), DeclPos: d.pos()})
	}
	for i, n := 0, d.count(); i < n && d.err == nil; i++ {
		m := &Method{Class: c, Name: d.string(), Static: d.bool(), Ret: d.typ(), DeclPos: d.pos()}
		for j, np := 0, d.count(); j < np && d.err == nil; j++ {
			m.Params = append(m.Params, &Param{Name: d.string(), Type: d.typ()})
		}
		m.Body = d.block()
		c.Methods = append(c.Methods, m)
	}
	return c
}

// block decodes a statement that must be a *Block (method bodies, branch
// arms, loop, try, catch and synchronized bodies). The parser never leaves
// one out, so a nil one fails the frame; accepted, it would reach the
// statement walk as a typed nil.
func (d *decoder) block() *Block {
	s := d.stmt()
	b, ok := s.(*Block)
	if !ok {
		if d.err == nil {
			d.fail("expected block, got %T", s)
		}
		return nil
	}
	return b
}

func (d *decoder) stmt() Stmt {
	tag := d.byte()
	if d.err != nil || tag == tagNil {
		return nil
	}
	base := stmtBase{pos: d.pos()}
	switch tag {
	case tagBlock:
		b := &Block{stmtBase: base}
		for i, n := 0, d.count(); i < n && d.err == nil; i++ {
			b.Stmts = append(b.Stmts, d.stmt())
		}
		return b
	case tagVarDecl:
		return &VarDecl{stmtBase: base, Type: d.typ(), Name: d.string(), Init: d.expr()}
	case tagAssign:
		return &Assign{stmtBase: base, Target: d.expr(), Value: d.expr()}
	case tagIf:
		return &If{stmtBase: base, Cond: d.expr(), Then: d.block(), Else: d.stmt()}
	case tagWhile:
		return &While{stmtBase: base, Cond: d.expr(), Body: d.block()}
	case tagFor:
		return &For{stmtBase: base, Init: d.stmt(), Cond: d.expr(), Post: d.stmt(), Body: d.block()}
	case tagForEach:
		return &ForEach{stmtBase: base, Var: d.string(), Iter: d.expr(), Body: d.block()}
	case tagReturn:
		return &Return{stmtBase: base, Value: d.expr()}
	case tagBreak:
		return &Break{stmtBase: base}
	case tagContinue:
		return &Continue{stmtBase: base}
	case tagThrow:
		return &Throw{stmtBase: base, Value: d.expr()}
	case tagTry:
		return &Try{stmtBase: base, Body: d.block(), CatchVar: d.string(), Catch: d.block()}
	case tagSync:
		return &Sync{stmtBase: base, Lock: d.expr(), Body: d.block()}
	case tagExprStmt:
		return &ExprStmt{stmtBase: base, E: d.expr()}
	default:
		d.fail("bad statement tag %d", tag)
		return nil
	}
}

func (d *decoder) expr() Expr {
	tag := d.byte()
	if d.err != nil || tag == tagNil {
		return nil
	}
	base := exprBase{pos: d.pos()}
	var x Expr
	switch tag {
	case tagIntLit:
		x = &IntLit{exprBase: base, Value: d.svarint()}
	case tagBoolLit:
		x = &BoolLit{exprBase: base, Value: d.bool()}
	case tagStrLit:
		x = &StrLit{exprBase: base, Value: d.string()}
	case tagNullLit:
		x = &NullLit{exprBase: base}
	case tagIdent:
		x = &Ident{exprBase: base, Name: d.string()}
	case tagFieldAccess:
		x = &FieldAccess{exprBase: base, Recv: d.expr(), Name: d.string()}
	case tagCall:
		c := &Call{exprBase: base, Recv: d.expr(), Name: d.string()}
		k := d.byte()
		if CallKind(k) > CallSelf {
			d.fail("bad call kind %d", k)
			return nil
		}
		c.Kind = CallKind(k)
		for i, n := 0, d.count(); i < n && d.err == nil; i++ {
			c.Args = append(c.Args, d.expr())
		}
		x = c
	case tagNew:
		nw := &New{exprBase: base, Class: d.string()}
		for i, n := 0, d.count(); i < n && d.err == nil; i++ {
			nw.Args = append(nw.Args, d.expr())
		}
		x = nw
	case tagUnary:
		x = &Unary{exprBase: base, Op: d.string(), X: d.expr()}
	case tagBinary:
		x = &Binary{exprBase: base, Op: d.string(), X: d.expr(), Y: d.expr()}
	default:
		d.fail("bad expression tag %d", tag)
		return nil
	}
	if d.bool() {
		d.prog.ExprTypes[x] = d.typ()
	}
	if d.err != nil {
		return nil
	}
	return x
}
