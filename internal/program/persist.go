package program

import (
	"bytes"

	"lisa/internal/faultinject"
	"lisa/internal/minij"
)

// snapNamespace names the snapshot records in the on-disk store. A snap.v2
// record is exactly the minij.EncodeProgram frame of the snapshot's
// program; nothing else is stored, because everything else a snapshot
// exposes is derived from the decoded AST. The codec's magic, version and
// sha256 trailer are the record's only format and integrity layer, under
// the store's per-frame CRC. The raw source is not stored either — the
// record is addressed by sha256(source), and a restoring process always
// holds the source it is asking about. Compile-error (negative) entries
// are never persisted: a record's existence asserts that the source
// compiles.
//
// A change to the AST payload bumps the codec version, not this
// namespace: a record in any other format (an older codec version, or the
// MJSR envelope earlier snap.v2 records were wrapped in) fails to decode,
// the snapshot compiles, and its frame is rewritten under the same key, so
// the stale frame is dead and compaction reclaims it. Bump the namespace
// only when the key itself changes meaning (what a record is addressed
// by): records under the old namespace stay live frames that nothing ever
// reads again.
const snapNamespace = "snap.v2"

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

// restore adopts a persisted frame the way build adopts a parse: the
// decoded program is rendered once for the canon digest and the method
// digests, and the shape and call graph are derived on first use through
// the same paths a compiled snapshot takes. The frame is sha256-sealed, so
// truncation or bit flips surface as a decode error, never as a wrong AST.
// Every Nth restore — and every restore while a faultinject plan is armed
// — additionally runs the deep verification: re-parse the source and
// require its render to equal the decoded one, which refuses a well-formed
// frame of some other program under the key. Any failure returns false and
// the caller falls back to a full build (a miss, never a wrong result).
// The program.load fault-injection point fires after the digest is taken,
// as in build, so a chaos run keeps its cold-process fault cadence against
// a warm store.
func (s *Snapshot) restore(raw []byte) bool {
	prog, err := minij.DecodeProgram(raw)
	if err != nil {
		return false
	}
	canon, d := digestRender(prog.Classes, len(s.source))
	deep := faultinject.Armed() || s.cache.restoreTick.Add(1)%s.cache.deepVerifyInterval() == 0
	if deep {
		parsed, err := minij.Parse(s.source)
		if err != nil || minij.Check(parsed) != nil || !bytes.Equal(minij.AppendProgram(nil, parsed.Classes, nil), canon) {
			return false
		}
		s.cache.restoresVerified.Add(1)
	} else {
		s.cache.restoresDecoded.Add(1)
	}
	s.prog = prog
	s.digests = d
	injectLoadFault(prog.Classes)
	return true
}

// persist writes a freshly built snapshot to the disk tier, once, right
// after the front-end build; nothing later rewrites it. A snapshot that
// fails its own Verify (the program.load fault-injection point corrupts
// the AST after the canon digest is taken) is never persisted, and
// store.Put additionally drops all writes while a faultinject plan is
// armed — unless the plan is store-scoped (faultinject.ScopeStore), in
// which case the computation is clean and the store's own fault handling
// is what's under test.
func (s *Snapshot) persist() {
	if s.cache == nil || s.err != nil || !s.cache.Attached() || s.Verify() != nil {
		return
	}
	if frame, err := minij.EncodeProgram(s.prog); err == nil {
		s.cache.Tier.Put(snapNamespace, s.hash, frame)
	}
}
