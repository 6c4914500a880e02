package minij

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"lisa/internal/corpus"
)

func sha256Sum(b []byte) []byte {
	s := sha256.Sum256(b)
	return s[:]
}

// roundTrip asserts the codec invariants for one source: the decoded
// program canon-renders byte-identically to the parsed one, carries the
// same statement IDs and positions, the same call kinds and receiver
// types, and re-encodes to the identical byte string (determinism).
func roundTrip(t *testing.T, label, src string) {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", label, err)
	}
	if err := Check(prog); err != nil {
		t.Fatalf("%s: check: %v", label, err)
	}
	enc, err := EncodeProgram(prog)
	if err != nil {
		t.Fatalf("%s: encode: %v", label, err)
	}
	enc2, err := EncodeProgram(prog)
	if err != nil || string(enc) != string(enc2) {
		t.Fatalf("%s: encode is not deterministic (err %v)", label, err)
	}
	dec, err := DecodeProgram(enc)
	if err != nil {
		t.Fatalf("%s: decode: %v", label, err)
	}
	if got, want := FormatProgram(dec), FormatProgram(prog); got != want {
		t.Fatalf("%s: decoded canon differs from parsed canon:\n--- decoded\n%s\n--- parsed\n%s", label, got, want)
	}
	reenc, err := EncodeProgram(dec)
	if err != nil || string(reenc) != string(enc) {
		t.Fatalf("%s: re-encoding the decoded program changed the bytes (err %v)", label, err)
	}
	if dec.NumStmts() != prog.NumStmts() {
		t.Fatalf("%s: stmt count %d != %d", label, dec.NumStmts(), prog.NumStmts())
	}
	for id := 0; id < prog.NumStmts(); id++ {
		ps, ds := prog.StmtByID(id), dec.StmtByID(id)
		if ps.ID() != ds.ID() || ps.Pos() != ds.Pos() || fmt.Sprintf("%T", ps) != fmt.Sprintf("%T", ds) {
			t.Fatalf("%s: stmt %d mismatch: %T@%s id=%d vs %T@%s id=%d",
				label, id, ps, ps.Pos(), ps.ID(), ds, ds.Pos(), ds.ID())
		}
		if prog.MethodOf(id).FullName() != dec.MethodOf(id).FullName() {
			t.Fatalf("%s: stmt %d enclosing method %s != %s",
				label, id, prog.MethodOf(id).FullName(), dec.MethodOf(id).FullName())
		}
	}
	pe, de := collectExprs(prog), collectExprs(dec)
	if len(pe) != len(de) {
		t.Fatalf("%s: expr count %d != %d", label, len(pe), len(de))
	}
	for i := range pe {
		pc, pok := pe[i].(*Call)
		dc, dok := de[i].(*Call)
		if pok != dok || (pok && pc.Kind != dc.Kind) {
			t.Fatalf("%s: expr %d call kind mismatch", label, i)
		}
		if pok && pc.RecvType != dc.RecvType {
			t.Fatalf("%s: expr %d (%s@%s) receiver type %s != %s",
				label, i, CanonExpr(pc), pc.Pos(), pc.RecvType, dc.RecvType)
		}
	}
}

func collectExprs(p *Program) []Expr {
	var out []Expr
	for _, m := range p.Methods() {
		WalkExprs(m.Body, func(e Expr) { out = append(out, e) })
	}
	return out
}

// TestCodecRoundTripCorpus runs the differential round trip over every
// version of every corpus case, alone and with each test suite appended —
// the exact source set the snapshot store persists in production.
func TestCodecRoundTripCorpus(t *testing.T) {
	for _, cs := range corpus.Load().Cases {
		roundTrip(t, cs.ID+"/head", cs.Head())
		for _, tk := range cs.Tickets {
			roundTrip(t, cs.ID+"/"+tk.ID+"/buggy", tk.BuggySource)
			roundTrip(t, cs.ID+"/"+tk.ID+"/fixed", tk.FixedSource)
		}
		for _, tc := range cs.Tests {
			roundTrip(t, cs.ID+"/head+"+tc.Name, cs.Head()+"\n"+tc.Source)
		}
	}
}

// genSource emits a seeded random program exercising every statement and
// expression form the codec knows, so tag coverage does not depend on the
// corpus happening to use a construct.
func genSource(r *rand.Rand) string {
	var sb strings.Builder
	classes := 1 + r.Intn(3)
	for c := 0; c < classes; c++ {
		fmt.Fprintf(&sb, "class Gen%d {\n\tint counter;\n\tstring label;\n\tlist items;\n", c)
		methods := 1 + r.Intn(4)
		for m := 0; m < methods; m++ {
			static := ""
			// work0 stays an instance method; GenDriver.relay calls it
			// through a field receiver.
			if m > 0 && r.Intn(2) == 0 {
				static = "static "
			}
			fmt.Fprintf(&sb, "\t%sint work%d(int n, string tag) {\n", static, m)
			stmts := 1 + r.Intn(5)
			for s := 0; s < stmts; s++ {
				switch r.Intn(8) {
				case 0:
					fmt.Fprintf(&sb, "\t\tint v%d = n + %d;\n", s, r.Intn(100))
				case 1:
					fmt.Fprintf(&sb, "\t\tif (n > %d) { n = n - 1; } else { n = n + 1; }\n", r.Intn(10))
				case 2:
					fmt.Fprintf(&sb, "\t\twhile (n > %d) { n = n - 2; if (n == 3) { break; } }\n", r.Intn(5))
				case 3:
					fmt.Fprintf(&sb, "\t\tfor (int i%d = 0; i%d < n; i%d = i%d + 1) { if (i%d == 2) { continue; } }\n", s, s, s, s, s)
				case 4:
					fmt.Fprintf(&sb, "\t\tlist xs%d = newList();\n\t\tfor (x in xs%d) { n = n + 1; }\n", s, s)
				case 5:
					fmt.Fprintf(&sb, "\t\ttry { throw \"boom-%d\"; } catch (e) { n = 0 - n; }\n", r.Intn(9))
				case 6:
					fmt.Fprintf(&sb, "\t\tlist lk%d = newList();\n\t\tsynchronized (lk%d) { n = n * 2; }\n", s, s)
				case 7:
					fmt.Fprintf(&sb, "\t\tif (!(tag == null) && n != %d) { log(tag); }\n", r.Intn(7))
				}
			}
			sb.WriteString("\t\treturn n;\n\t}\n")
		}
		sb.WriteString("}\n")
	}
	// A driver tying the classes together: new, instance/static/self
	// calls, field access, string concat, bool and null literals.
	sb.WriteString(`
class GenDriver {
	Gen0 g;

	static int entry(int n) {
		GenDriver d = new GenDriver();
		d.g = new Gen0();
		d.g.counter = n;
		d.g.label = "x" + "y";
		bool ok = true;
		if (ok) {
			return d.relay(d.g.counter);
		}
		return 0;
	}

	int relay(int n) {
		return g.work0(n, "tag");
	}
}
`)
	return sb.String()
}

// TestCodecRoundTripMutants fuzzes the round trip with seeded random
// programs; any failure reproduces from the logged seed.
func TestCodecRoundTripMutants(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		src := genSource(r)
		roundTrip(t, fmt.Sprintf("mutant-seed-%d", seed), src)
	}
}

// TestCodecRejectsCorruption proves the safety half of the codec contract:
// a truncated or bit-flipped frame is always rejected with a readable
// error — it never decodes into a wrong AST.
func TestCodecRejectsCorruption(t *testing.T) {
	src := corpus.Load().Cases[0].Head()
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(prog); err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	want := FormatProgram(prog)

	// Every truncation length must be rejected.
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeProgram(enc[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully", n, len(enc))
		}
	}
	// Seeded random bit flips: the sha256 trailer catches every one. If a
	// flip were ever accepted, the decoded program must still render the
	// true canon (never a wrong AST) — but with a full-frame checksum no
	// flip is accepted at all.
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		mut := make([]byte, len(enc))
		copy(mut, enc)
		mut[r.Intn(len(mut))] ^= 1 << r.Intn(8)
		dec, err := DecodeProgram(mut)
		if err == nil {
			if got := FormatProgram(dec); got != want {
				t.Fatalf("bit flip %d decoded into a WRONG AST", i)
			}
			t.Fatalf("bit flip %d was not rejected", i)
		}
		if !errors.Is(err, ErrCodecCorrupt) && !errors.Is(err, ErrCodecTruncated) && !errors.Is(err, ErrCodecVersion) {
			t.Fatalf("bit flip %d: error %v is not a codec sentinel", i, err)
		}
		if err.Error() == "" {
			t.Fatalf("bit flip %d: unreadable error", i)
		}
	}
}

// TestCodecRejectsVersionSkew rewrites the version (and magic) with a
// recomputed checksum, so rejection is attributable to the version check
// itself rather than the checksum. A frame the version-1 codec wrote,
// whose payload carried a type entry after every expression, is rejected
// the same way: a v1 snapshot record reads as a miss.
func TestCodecRejectsVersionSkew(t *testing.T) {
	v1, err := os.ReadFile("testdata/counter.v1.frame")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeProgram(v1); !errors.Is(err, ErrCodecVersion) {
		t.Fatalf("v1 frame: got %v, want ErrCodecVersion", err)
	}

	prog, err := Parse("class A {\n\tint f;\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(prog); err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	reseal := func(mut []byte) []byte {
		sum := sha256Sum(mut[:len(mut)-32])
		copy(mut[len(mut)-32:], sum)
		return mut
	}
	skew := make([]byte, len(enc))
	copy(skew, enc)
	skew[5] = codecVersion + 1
	if _, err := DecodeProgram(reseal(skew)); !errors.Is(err, ErrCodecVersion) {
		t.Fatalf("version skew: got %v, want ErrCodecVersion", err)
	}
	bad := make([]byte, len(enc))
	copy(bad, enc)
	bad[0] = 'X'
	if _, err := DecodeProgram(reseal(bad)); !errors.Is(err, ErrCodecVersion) {
		t.Fatalf("bad magic: got %v, want ErrCodecVersion", err)
	}
}

// FuzzDecodeProgram: DecodeProgram never panics on arbitrary bytes, and
// any frame it accepts re-encodes to bytes that decode to a program with
// the same canonical render. Seeds: a corpus program's frame, that frame
// cut in half, and the frame with its version field bumped. The sha256
// trailer rejects nearly every mutation before the payload decoder runs,
// so each input is also tried re-sealed, which lets the fuzzer reach it.
// A committed seed must carry the current codec version to get past the
// version check: testdata/fuzz/FuzzDecodeProgram/c72de5b1edfd648f is a
// frame with a method body left out, written in version 2's layout.
func FuzzDecodeProgram(f *testing.F) {
	prog, err := Parse(corpus.Load().Cases[0].Head())
	if err != nil {
		f.Fatal(err)
	}
	if err := Check(prog); err != nil {
		f.Fatal(err)
	}
	enc, err := EncodeProgram(prog)
	if err != nil {
		f.Fatal(err)
	}
	bumped := append([]byte{}, enc...)
	bumped[5]++ // the low byte of the big-endian version
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add(bumped)
	f.Fuzz(func(t *testing.T, in []byte) {
		decodeReencodes(t, in)
		if len(in) >= sha256.Size {
			sealed := append([]byte{}, in...)
			copy(sealed[len(sealed)-sha256.Size:], sha256Sum(sealed[:len(sealed)-sha256.Size]))
			decodeReencodes(t, sealed)
		}
	})
}

// TestFuzzSeedsReachPayload: every committed FuzzDecodeProgram seed,
// re-sealed as the fuzz target re-seals it, gets past the frame's version
// check to the payload decoder. A seed of another codec version would
// stop there and test nothing.
func TestFuzzSeedsReachPayload(t *testing.T) {
	const dir = "testdata/fuzz/FuzzDecodeProgram"
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		raw, err := os.ReadFile(dir + "/" + ent.Name())
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		quoted := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		frame, err := strconv.Unquote(quoted)
		if err != nil || len(frame) < sha256.Size {
			t.Fatalf("%s: not a []byte seed: %v", ent.Name(), err)
		}
		sealed := []byte(frame)
		copy(sealed[len(sealed)-sha256.Size:], sha256Sum(sealed[:len(sealed)-sha256.Size]))
		if _, err := DecodeProgram(sealed); errors.Is(err, ErrCodecVersion) {
			t.Errorf("%s: %v", ent.Name(), err)
		}
	}
}

func decodeReencodes(t *testing.T, frame []byte) {
	t.Helper()
	prog, err := DecodeProgram(frame)
	if err != nil {
		return
	}
	again, err := EncodeProgram(prog)
	if err != nil {
		t.Fatalf("accepted frame does not re-encode: %v", err)
	}
	dec, err := DecodeProgram(again)
	if err != nil {
		t.Fatalf("re-encoded frame does not decode: %v", err)
	}
	if got, want := FormatProgram(dec), FormatProgram(prog); got != want {
		t.Fatalf("re-encoded frame decodes to a different program:\n--- got\n%s\n--- want\n%s", got, want)
	}
}
