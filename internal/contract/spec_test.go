package contract

import (
	"strings"
	"testing"
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
	}{
		{"", "no rules found"},
		{"description: dangling", "before any \"rule\""},
		{"rule x\ntarget DataTree.create", "expected \"key: value\""},
		{"rule x\nbogus: y\ntarget: A.b\nrequire: p\nbind: p = arg 0", "unknown key"},
		{"rule x\ntarget: A.b\nbind: v = argone\nrequire: v != null", "bad argument index"},
		{"rule x\ntarget: A.b\nbind: v: arg 0", "bind must be"},
		{"rule x\ntarget: A.b\nrequire: v != null", "not bound"},
		{"rule x\nstructural: made-up-rule", "unknown structural rule"},
		{"rule x\nonly: A.b", "requires a preceding"},
		{"rule x\ntarget: A.b\nstructural: no-blocking-io-in-sync", "takes no target"},
		{"rule x\nstructural: no-nested-sync\nbind: v = arg 0", "takes no target"},
		{"rule x\ntarget: A.b\nbind: v = arg 0\nrequire: ((", "expected"},
	}
	for _, c := range cases {
		_, err := ParseSpec(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseSpec(%q) err = %v, want containing %q", c.src, err, c.want)
		}
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
