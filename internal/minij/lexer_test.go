package minij

import (
	"strings"
	"testing"
	"unsafe"
)

// Lex tokenizes the entire source, returning the token stream terminated
// by a TokEOF token, or the first lexical error. Parse and
// smt.ParsePredicate pull their tokens through a Tokens window; the lexer
// tests read whole streams through Lex, and FuzzParseRoundTrip takes its
// error as the one Parse must report.
func Lex(src string) ([]Token, error) {
	lx := NewLexer(src)
	var toks []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

func TestLexBasicTokens(t *testing.T) {
	toks, err := Lex(`class Foo { int x; }`)
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	want := []struct {
		kind TokenKind
		text string
	}{
		{TokKeyword, "class"}, {TokIdent, "Foo"}, {TokPunct, "{"},
		{TokKeyword, "int"}, {TokIdent, "x"}, {TokPunct, ";"},
		{TokPunct, "}"}, {TokEOF, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d = %v %q, want %v %q", i, toks[i].Kind, toks[i].Text, w.kind, w.text)
		}
	}
}

func TestLexOperators(t *testing.T) {
	toks, err := Lex(`== != <= >= && || < > + - * / % ! =`)
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	wantOps := []string{"==", "!=", "<=", ">=", "&&", "||", "<", ">", "+", "-", "*", "/", "%", "!", "="}
	for i, op := range wantOps {
		if toks[i].Kind != TokOp || toks[i].Text != op {
			t.Errorf("token %d = %q, want operator %q", i, toks[i].Text, op)
		}
	}
}

func TestLexIntLiteral(t *testing.T) {
	toks, err := Lex("12345")
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	if toks[0].Kind != TokInt || toks[0].Int != 12345 {
		t.Errorf("got %+v, want int 12345", toks[0])
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := Lex(`"a\nb\t\"c\\"`)
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	if got, want := toks[0].Text, "a\nb\t\"c\\"; got != want {
		t.Errorf("string = %q, want %q", got, want)
	}
}

func TestLexComments(t *testing.T) {
	src := `
// line comment
class /* block
comment */ A { }
`
	toks, err := Lex(src)
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	if toks[0].Text != "class" || toks[1].Text != "A" {
		t.Errorf("comments not skipped: %v", toks[:2])
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("a\n  bb")
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	if toks[0].Pos != (Pos{1, 1}) {
		t.Errorf("a at %v, want 1:1", toks[0].Pos)
	}
	if toks[1].Pos != (Pos{2, 3}) {
		t.Errorf("bb at %v, want 2:3", toks[1].Pos)
	}
}

func TestLexErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`"unterminated`, "unterminated string"},
		{`"bad \q escape"`, "unknown escape"},
		{"/* open", "unterminated block comment"},
		{"@", "unexpected character"},
		{"\"line\nbreak\"", "newline in string"},
	}
	for _, c := range cases {
		_, err := Lex(c.src)
		if err == nil {
			t.Errorf("Lex(%q): expected error containing %q, got nil", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Lex(%q) error = %v, want containing %q", c.src, err, c.want)
		}
	}
}

func TestPosOrdering(t *testing.T) {
	a, b := Pos{1, 5}, Pos{2, 1}
	if !a.Before(b) || b.Before(a) {
		t.Error("line ordering broken")
	}
	c, d := Pos{3, 2}, Pos{3, 9}
	if !c.Before(d) || d.Before(c) {
		t.Error("column ordering broken")
	}
	if (Pos{}).IsValid() {
		t.Error("zero Pos should be invalid")
	}
}

// TestOperatorTextOwnsItsBytes: no operator, identifier or integer-literal
// text the lexer hands out aliases the source string. A slice of the
// source would keep the whole text alive for as long as any node is
// reachable — a cached result holding one expression would pin every
// version it was computed from. Identifier and integer texts are interned,
// so every occurrence of one text shares a single copy.
func TestOperatorTextOwnsItsBytes(t *testing.T) {
	src := strings.Repeat(" ", 64) + `class C {
	bool f(int x, bool b) {
		return x == 1 || x != 2 && x <= 3 || x >= 4 && !b || x < 5 || x > -6;
	}
	int g(int x) {
		return x + 12345 + 12345;
	}
}`
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	hi := lo + uintptr(len(src))
	aliases := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return len(s) > 0 && p >= lo && p < hi
	}
	t.Run("operators", func(t *testing.T) {
		prog, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		ops := map[string]bool{}
		WalkExprs(prog.Method("C", "f").Body, func(e Expr) {
			var op string
			switch n := e.(type) {
			case *Binary:
				op = n.Op
			case *Unary:
				op = n.Op
			default:
				return
			}
			ops[op] = true
			if aliases(op) {
				t.Errorf("operator %q aliases the source text", op)
			}
		})
		for _, want := range []string{"==", "!=", "<=", ">=", "&&", "||", "<", ">", "!", "-"} {
			if !ops[want] {
				t.Errorf("operator %q not parsed", want)
			}
		}
	})
	t.Run("identifiers and integers", func(t *testing.T) {
		toks, err := Lex(src)
		if err != nil {
			t.Fatal(err)
		}
		first := map[string]*byte{}
		for _, tok := range toks {
			if tok.Kind != TokIdent && tok.Kind != TokInt {
				continue
			}
			if aliases(tok.Text) {
				t.Errorf("%s %q at %s aliases the source text", tok.Kind, tok.Text, tok.Pos)
			}
			p := unsafe.StringData(tok.Text)
			if q, seen := first[tok.Text]; seen && q != p {
				t.Errorf("%s %q at %s is a second copy of its text", tok.Kind, tok.Text, tok.Pos)
			}
			first[tok.Text] = p
		}
		if len(first) != 12 { // C, f, x, b, g and 1 to 6, 12345
			t.Errorf("lexed %d distinct texts, want 12", len(first))
		}
		prog, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		var xs []string
		WalkExprs(prog.Method("C", "f").Body, func(e Expr) {
			if id, ok := e.(*Ident); ok && id.Name == "x" {
				xs = append(xs, id.Name)
			}
		})
		for _, x := range xs {
			if aliases(x) || unsafe.StringData(x) != unsafe.StringData(xs[0]) {
				t.Fatal("the parsed identifiers x do not share one copy of their own")
			}
		}
	})
}
