package contract

import (
	"errors"
	"strings"
	"testing"

	"lisa/internal/minij"
	"lisa/internal/smt"
)

const sampleSpec = `
# Developer-authored semantics for the session subsystem.

rule zk-ephemeral-manual
description: No client may create an ephemeral node on a closing session.
high-level: Every ephemeral node is deleted once its session ends.
target: DataTree.createEphemeral
bind: session = arg 1
require: session != null && session.closing == false

rule snapshot-ttl-manual
description: Expired snapshots are never materialized.
target: SnapshotManager.materialize
within: RestoreHandler.restoreSnapshot
bind: snap = receiver
require: snap.expired == false
ensure: snap.served == true

rule no-io-under-locks
description: No blocking I/O while a lock is held.
structural: no-blocking-io-in-sync
only: SyncRequestProcessor.serializeNode, ACLCache.serialize
`

func TestParseSpec(t *testing.T) {
	sems, err := ParseSpec(sampleSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(sems) != 3 {
		t.Fatalf("rules = %d, want 3", len(sems))
	}

	eph := sems[0]
	if eph.ID != "zk-ephemeral-manual" || eph.Kind != StateKind {
		t.Errorf("rule 0 = %+v", eph)
	}
	if eph.Target.Callee != "DataTree.createEphemeral" {
		t.Errorf("callee = %q", eph.Target.Callee)
	}
	if eph.Target.Bind["session"] != 1 {
		t.Errorf("bind = %v", eph.Target.Bind)
	}
	if got := eph.Pre.String(); got != "session != null && !(session.closing)" {
		t.Errorf("pre = %q", got)
	}
	if eph.HighLevel == "" || eph.Description == "" {
		t.Error("missing prose fields")
	}

	snap := sems[1]
	if snap.Target.Within != "RestoreHandler.restoreSnapshot" {
		t.Errorf("within = %q", snap.Target.Within)
	}
	if snap.Target.Bind["snap"] != ReceiverSlot {
		t.Errorf("receiver bind = %v", snap.Target.Bind)
	}
	if snap.Post == nil || snap.Post.String() != "snap.served" {
		t.Errorf("post = %v", snap.Post)
	}

	structural := sems[2]
	if structural.Kind != StructuralKind {
		t.Fatalf("rule 2 kind = %v", structural.Kind)
	}
	rule := structural.Structural
	if rule.Hazard != BlockingIO || !rule.Only["SyncRequestProcessor.serializeNode"] || !rule.Only["ACLCache.serialize"] {
		t.Errorf("only = %v", rule.Only)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
		line int // of the offending entry, or the rule's "rule" line
	}{
		{"", "no rules found", 0},
		{"description: dangling", "before any \"rule\"", 1},
		{"rule x\ntarget DataTree.create", "expected \"key: value\"", 2},
		{"rule x\nbogus: y\ntarget: A.b\nrequire: p\nbind: p = arg 0", "unknown key", 2},
		{"rule x\ntarget: A.b\nbind: v = argone\nrequire: v != null", "bad argument index", 3},
		{"rule x\ntarget: A.b\nbind: v: arg 0", "bind must be", 3},
		{"rule x\ntarget: A.b\nrequire: v != null", "not bound", 1},
		{"rule x\nstructural: made-up-rule", "unknown structural rule", 2},
		{"rule x\nonly: A.b", "requires a preceding", 2},
		{"rule x\ntarget: A.b\nstructural: no-blocking-io-in-sync", "takes no target", 1},
		{"rule x\nstructural: no-nested-sync\nbind: v = arg 0", "takes no target", 1},
		{"rule x\ntarget: A.b\nbind: v = arg 0\nrequire: ((", "expected", 4},
		{"rule x\ntarget: A.b\nbind: v = arg 0\n\nensure: v == \"open", "unterminated string", 5},
	}
	for _, c := range cases {
		_, err := ParseSpec(c.src)
		var perr *ParseError
		if !errors.As(err, &perr) || !strings.Contains(err.Error(), c.want) || perr.Line != c.line {
			t.Errorf("ParseSpec(%q) err = %v, want a ParseError at line %d containing %q", c.src, err, c.line, c.want)
		}
	}
	// A predicate's own error stays reachable behind the spec's.
	var serr *smt.ParseError
	if _, err := ParseSpec("rule x\ntarget: A.b\nbind: v = arg 0\nrequire: (("); !errors.As(err, &serr) {
		t.Errorf("require syntax error %v does not unwrap to an smt.ParseError", err)
	}
	var lerr *minij.LexError
	if _, err := ParseSpec("rule x\ntarget: A.b\nbind: v = arg 0\nrequire: v == \"open"); !errors.As(err, &lerr) {
		t.Errorf("require lexical error %v does not unwrap to a minij.LexError", err)
	}
}

// TestSpecRoundTrip: formatting parsed rules and re-parsing yields
// equivalent rules.
func TestSpecRoundTrip(t *testing.T) {
	first, err := ParseSpec(sampleSpec)
	if err != nil {
		t.Fatal(err)
	}
	text := FormatSpec(first)
	second, err := ParseSpec(text)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	if len(first) != len(second) {
		t.Fatalf("rule counts differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		a, b := first[i], second[i]
		if a.ID != b.ID || a.Kind != b.Kind || a.Target.Callee != b.Target.Callee {
			t.Errorf("rule %d identity drift: %v vs %v", i, a, b)
		}
		if a.Kind == StateKind && a.Pre.String() != b.Pre.String() {
			t.Errorf("rule %d pre drift: %q vs %q", i, a.Pre, b.Pre)
		}
	}
}

const authoredSpec = `
rule authored
description: no ephemeral creation on closing sessions
target: DataTree.createEphemeral
bind: session = arg 1
require: session != null && session.closing == false
`

// SpecSeeds are the specs this package's tests parse; FuzzSpecRoundTrip
// (package contract_test) seeds with them.
var SpecSeeds = []string{sampleSpec, lockOrderingSpec, authoredSpec}

// Authored rules must plug directly into matching, like mined ones.
func TestAuthoredRuleMatches(t *testing.T) {
	prog := compile(t, zkLikeSrc)
	sems, err := ParseSpec(authoredSpec)
	if err != nil {
		t.Fatal(err)
	}
	sites := Match(sems[0], prog)
	if len(sites) != 2 {
		t.Errorf("sites = %d, want 2", len(sites))
	}
}
