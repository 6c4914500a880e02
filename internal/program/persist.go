package program

import (
	"encoding/binary"
	"errors"
	"sort"

	"lisa/internal/faultinject"
	"lisa/internal/minij"
)

// snapNamespace names the snapshot records in the on-disk store. snap.v2
// records carry the binary AST (minij.EncodeProgram), making restore
// parse-free. Records under older namespaces are never read: the snapshot
// compiles once and persists its v2 record.
//
// Two version knobs exist; bump exactly one. A change to the envelope's
// fields bumps recVersion: an old record then fails to decode, the
// snapshot compiles, and its new record is written under the same key, so
// the stale frame is dead and compaction reclaims it. Bump the namespace
// only when the key itself changes meaning (what a record is addressed
// by): records under the old namespace stay live frames that nothing ever
// reads again.
const snapNamespace = "snap.v2"

// snapRecord is the persisted form of a snapshot, written once right after
// its front-end build: the binary AST (self-checksummed by the codec), the
// canonical form with its own sha256 (the cheap integrity check restore
// runs every time), and the derived artifacts that are expensive to
// recompute (shape and per-method canons). The call graph is not stored:
// Graph rebuilds it from the decoded AST. The raw source is NOT stored
// either — the record is addressed by sha256(source), and a restoring
// process always holds the source it is asking about. Compile-error
// (negative) entries are never persisted: a record's existence asserts
// that the source compiles.
type snapRecord struct {
	AST      []byte
	Canon    string
	CanonSHA string
	Shape    string
	Methods  map[string]string
}

// The v2 record's wire form is binary, not JSON: a restore happens on
// every cold process and the JSON round-trip (string unescaping of the
// canon and method canons, whole-document validation) was the dominant
// cost of the parse-free path. The envelope is a magic + version header
// followed by length-prefixed fields; integrity comes from three layers
// that already exist — the store's per-frame CRC, the codec's sha256 over
// the AST bytes, and the canon digest — so the envelope itself only needs
// to fail loudly on malformed input (every read is bounds-checked, any
// error degrades the load to a recompute miss).
var recMagic = [4]byte{'M', 'J', 'S', 'R'}

// recVersion is the envelope layout; decodeRecord rejects every other
// version, so a layout change bumps it (see snapNamespace).
const recVersion = 2

var errBadRecord = errors.New("program: malformed snapshot record")

func encodeRecord(rec *snapRecord) []byte {
	w := recWriter{buf: make([]byte, 0, 256+len(rec.AST)+len(rec.Canon))}
	w.buf = append(w.buf, recMagic[:]...)
	w.buf = binary.BigEndian.AppendUint16(w.buf, recVersion)
	w.str(rec.Canon)
	w.str(rec.CanonSHA)
	w.str(rec.Shape)
	keys := make([]string, 0, len(rec.Methods))
	for k := range rec.Methods {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic bytes for identical records
	w.uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.str(k)
		w.str(rec.Methods[k])
	}
	w.uvarint(uint64(len(rec.AST)))
	w.buf = append(w.buf, rec.AST...)
	return w.buf
}

func decodeRecord(raw []byte) (*snapRecord, bool) {
	if len(raw) < 6 || string(raw[:4]) != string(recMagic[:]) ||
		binary.BigEndian.Uint16(raw[4:6]) != recVersion {
		return nil, false
	}
	r := recReader{buf: raw, off: 6}
	rec := &snapRecord{
		Canon:    r.str(),
		CanonSHA: r.str(),
		Shape:    r.str(),
	}
	if n := r.count(2); n > 0 {
		rec.Methods = make(map[string]string, n)
		for i := uint64(0); i < n && r.err == nil; i++ {
			k := r.str()
			rec.Methods[k] = r.str()
		}
	}
	rec.AST = r.bytes()
	if r.err != nil || r.off != len(r.buf) {
		return nil, false
	}
	return rec, true
}

type recWriter struct{ buf []byte }

func (w *recWriter) uvarint(n uint64) { w.buf = binary.AppendUvarint(w.buf, n) }
func (w *recWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// recReader is a sticky-error cursor: the first malformed read poisons
// every later one, so decodeRecord needs a single error check at the end.
type recReader struct {
	buf []byte
	off int
	err error
}

func (r *recReader) fail() {
	if r.err == nil {
		r.err = errBadRecord
	}
}

func (r *recReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// count reads a collection length and rejects any value that could not
// possibly fit in the remaining bytes (minSize bytes per element), so a
// corrupt length cannot drive a huge allocation.
func (r *recReader) count(minSize int) uint64 {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.buf)-r.off)/uint64(minSize) {
		r.fail()
		return 0
	}
	return n
}

func (r *recReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

func (r *recReader) str() string { return string(r.bytes()) }

// compile populates the snapshot exactly once: from the disk tier when a
// verified record exists, else by the full front-end build, which is then
// persisted — the snapshot's only store write — so the next process can
// restore it.
func (s *Snapshot) compile() {
	if s.cache != nil && s.cache.Tier.Get(snapNamespace, s.hash, s.restore) {
		return
	}
	s.build()
	s.persist()
}

// restore adopts a persisted v2 record. The fast path trusts two
// checksums instead of re-deriving anything: the canonical form must hash
// to the record's digest, and the binary AST must decode (the codec frame
// is itself sha256-sealed, so truncation or bit flips surface here as a
// decode error, never as a wrong AST). Every Nth restore — and every
// restore while a faultinject plan is armed — additionally runs the deep
// verification: re-parse the source, re-render both programs, and require
// byte-identity with the stored canon. Any failure returns false and the
// caller falls back to a full build (a miss, never a wrong result). The
// derived artifacts (shape, per-method canon) are adopted without
// recomputation; the call graph is built from the decoded AST on first
// use, exactly as for a compiled snapshot. The program.load
// fault-injection point fires on restored snapshots exactly as on built
// ones, so a chaos run keeps its cold-process fault cadence against a
// warm store.
func (s *Snapshot) restore(raw []byte) bool {
	rec, ok := decodeRecord(raw)
	if !ok || Hash(rec.Canon) != rec.CanonSHA {
		return false
	}
	prog, err := minij.DecodeProgram(rec.AST)
	if err != nil {
		return false
	}
	deep := faultinject.Armed() || s.cache.restoreTick.Add(1)%s.cache.deepVerifyInterval() == 0
	if deep {
		if minij.FormatProgram(prog) != rec.Canon {
			return false
		}
		parsed, err := minij.Parse(s.source)
		if err != nil || minij.Check(parsed) != nil || minij.FormatProgram(parsed) != rec.Canon {
			return false
		}
		s.cache.restoresVerified.Add(1)
	} else {
		s.cache.restoresDecoded.Add(1)
	}
	s.prog = prog
	s.canon = rec.Canon
	s.canonHash = rec.CanonSHA
	if rec.Shape != "" {
		s.shapeOnce.Do(func() { s.shape = rec.Shape })
	}
	if len(rec.Methods) > 0 {
		s.methodsOnce.Do(func() { s.methodCanon = rec.Methods })
	}
	injectLoadFault(prog)
	return true
}

// persist writes a freshly built snapshot to the disk tier, once, right
// after the front-end build; nothing later rewrites it. A snapshot that
// fails its own Verify (the program.load fault-injection point corrupts
// the AST after the canon is captured) is never persisted, and store.Put
// additionally drops all writes while a faultinject plan is armed — unless
// the plan is store-scoped (faultinject.ScopeStore), in which case the
// computation is clean and the store's own fault handling is what's under
// test.
func (s *Snapshot) persist() {
	if s.cache == nil || s.err != nil || !s.cache.Attached() || s.Verify() != nil {
		return
	}
	ast, err := minij.EncodeProgram(s.prog)
	if err != nil {
		return
	}
	rec := snapRecord{
		AST:      ast,
		Canon:    s.canon,
		CanonSHA: s.canonHash,
		Shape:    s.Shape(),
		Methods:  s.methodCanons(),
	}
	s.cache.Tier.Put(snapNamespace, s.hash, encodeRecord(&rec))
}

// methodCanons returns the full per-method canonical map, building it once
// through the same path MethodCanon uses.
func (s *Snapshot) methodCanons() map[string]string {
	s.MethodCanon("")
	return s.methodCanon
}
