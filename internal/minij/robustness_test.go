package minij

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"lisa/internal/corpus"
)

// TestParserNeverPanics: arbitrary token soup must produce a parse error or
// a program — never a panic or an out-of-range access.
func TestParserNeverPanics(t *testing.T) {
	fragments := []string{
		"class", "if", "else", "while", "for", "return", "throw", "try",
		"catch", "synchronized", "new", "null", "true", "false", "int",
		"bool", "string", "list", "map", "void", "static", "break",
		"continue", "in",
		"x", "Foo", "m", "(", ")", "{", "}", ";", ",", ".",
		"+", "-", "*", "/", "%", "!", "=", "==", "!=", "<", "<=", ">",
		">=", "&&", "||", "42", `"s"`,
	}
	f := func(picks []uint16) bool {
		var sb strings.Builder
		for _, p := range picks {
			sb.WriteString(fragments[int(p)%len(fragments)])
			sb.WriteByte(' ')
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on input %q: %v", sb.String(), r)
			}
		}()
		prog, err := Parse(sb.String())
		if err == nil && prog != nil {
			// A valid parse must survive the resolver without panicking.
			_ = Resolve(prog)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestLexerNeverPanics: arbitrary bytes must lex or error cleanly.
func TestLexerNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %q: %v", data, r)
			}
		}()
		_, _ = Lex(string(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestFormatParsedPrograms: every syntactically valid random-ish program
// round-trips through the formatter.
func TestDeepNesting(t *testing.T) {
	// Deeply nested expressions and blocks must not blow the parser.
	depth := 200
	expr := strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth)
	src := "class D { int m() { return " + expr + "; } }"
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("deep parens: %v", err)
	}
	if err := Check(prog); err != nil {
		t.Fatalf("deep parens check: %v", err)
	}

	var blocks strings.Builder
	blocks.WriteString("class E { void m(bool p) { ")
	for i := 0; i < 100; i++ {
		blocks.WriteString("if (p) { ")
	}
	blocks.WriteString("log(1); ")
	for i := 0; i < 100; i++ {
		blocks.WriteString("} ")
	}
	blocks.WriteString("} }")
	prog2, err := Parse(blocks.String())
	if err != nil {
		t.Fatalf("deep blocks: %v", err)
	}
	if err := Check(prog2); err != nil {
		t.Fatalf("deep blocks check: %v", err)
	}
	if FormatProgram(prog2) == "" {
		t.Fatal("formatting failed")
	}
}

// TestEOFConditions: truncations of a valid program never panic.
func TestEOFConditions(t *testing.T) {
	src := `
class Session {
	bool closing;

	bool isClosing() {
		return closing;
	}
}

class M {
	static int run(Session s, int n) {
		if (s != null && !s.isClosing()) {
			for (int i = 0; i < n; i = i + 1) {
				log(str(i) + "x");
			}
		}
		try {
			throw "e";
		} catch (e) {
			return len(e);
		}
		return 0;
	}
}
`
	for i := 0; i <= len(src); i++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic at truncation %d: %v", i, r)
				}
			}()
			_, _ = Parse(src[:i])
		}()
	}
}

// FuzzParseRoundTrip: Parse never panics; a source Lex rejects fails to
// parse with that same lexical error, wherever a syntax error comes
// first; and an accepted program's render parses back to the same render.
func FuzzParseRoundTrip(f *testing.F) {
	for _, cs := range corpus.Load().Cases {
		f.Add(cs.Head())
		for _, tc := range cs.Tests {
			f.Add(tc.Source)
		}
	}
	// A syntax error (the missing operand) before a lexical error.
	f.Add("class A { void m() { int x = ; } }\n@")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if _, lexErr := Lex(src); lexErr != nil {
			var got *LexError
			if !errors.As(err, &got) || got.Error() != lexErr.Error() {
				t.Fatalf("Lex fails with %v, Parse with %v", lexErr, err)
			}
			return
		}
		if err != nil {
			return
		}
		out := FormatProgram(prog)
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("render does not parse: %v\n%s", err, out)
		}
		if got := FormatProgram(again); got != out {
			t.Fatalf("render changed on a second round:\n--- first\n%s\n--- second\n%s", out, got)
		}
	})
}
