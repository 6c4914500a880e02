package infer

import (
	"strings"
	"testing"

	"lisa/internal/contract"
	"lisa/internal/smt"
	"lisa/internal/ticket"
)

// The ZK-1208 analogue: the buggy processCreate only checks for null; the
// fix strengthens the guard to reject closing sessions.
const zkBuggy = `
class Session {
	bool closing;
}

class DataTree {
	map nodes;

	void createEphemeral(string path, Session owner) {
		nodes.put(path, owner);
	}
}

class PrepProcessor {
	DataTree tree;

	void processCreate(string path, Session s) {
		if (s == null) {
			throw "KeeperException";
		}
		tree.createEphemeral(path, s);
	}
}
`

const zkFixed = `
class Session {
	bool closing;
}

class DataTree {
	map nodes;

	void createEphemeral(string path, Session owner) {
		nodes.put(path, owner);
	}
}

class PrepProcessor {
	DataTree tree;

	void processCreate(string path, Session s) {
		if (s == null || s.closing) {
			throw "KeeperException";
		}
		tree.createEphemeral(path, s);
	}
}
`

func zkTicket() *ticket.Ticket {
	return &ticket.Ticket{
		ID:          "ZK-1208",
		Title:       "Ephemeral node not removed after the client session is long gone",
		Description: "A concurrency bug allowed creation of an ephemeral node on a closing session, leaving stale data after the session terminated.",
		Discussion:  []string{"Reject the create request if the session is closing."},
		BuggySource: zkBuggy,
		FixedSource: zkFixed,
		RegressionTests: []ticket.TestCase{
			{
				Name:        "PrepTest.rejectClosingSession",
				Description: "create ephemeral on closing session must be rejected",
				Class:       "PrepTest",
				Method:      "rejectClosingSession",
				Source: `
class PrepTest {
	static void rejectClosingSession() {
		PrepProcessor p = new PrepProcessor();
		p.tree = new DataTree();
		p.tree.nodes = newMap();
		Session s = new Session();
		s.closing = false;
		p.processCreate("/live", s);
		assertTrue(p.tree.nodes.has("/live"), "live session creates node");
	}
}
`,
			},
		},
	}
}

func TestInferZKEphemeralRule(t *testing.T) {
	pa := &PatchAnalyzer{}
	res, err := pa.Infer(zkTicket())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Semantics) != 1 {
		t.Fatalf("semantics = %d (%v), want 1", len(res.Semantics), res.Semantics)
	}
	sem := res.Semantics[0]
	if sem.Target.Callee != "DataTree.createEphemeral" {
		t.Errorf("target = %q", sem.Target.Callee)
	}
	if idx, ok := sem.Target.Bind["s"]; !ok || idx != 1 {
		t.Errorf("bind = %v, want s->arg1", sem.Target.Bind)
	}
	want := "s != null && !(s.closing)"
	if sem.Pre.String() != want {
		t.Errorf("pre = %q, want %q", sem.Pre, want)
	}
	if len(res.Reasoning) < 3 {
		t.Errorf("reasoning too thin: %v", res.Reasoning)
	}
	if !strings.Contains(res.HighLevel, "ZK-1208") {
		t.Errorf("high level = %q", res.HighLevel)
	}
}

func TestInferWrappingGuard(t *testing.T) {
	buggy := `
class Block {
	bool located;

	bool hasLocations() {
		return located;
	}
}

class Listing {
	list out;

	void addBlock(Block b) {
		out.add(b);
	}
}

class NameNode {
	Listing listing;

	void serve(Block b) {
		listing.addBlock(b);
	}
}
`
	fixed := strings.Replace(buggy, `	void serve(Block b) {
		listing.addBlock(b);
	}`, `	void serve(Block b) {
		if (b.hasLocations()) {
			listing.addBlock(b);
		}
	}`, 1)
	tk := &ticket.Ticket{
		ID: "HDFS-13924", Title: "Handle blockmissingexception when reading from observer",
		BuggySource: buggy, FixedSource: fixed,
	}
	res, err := (&PatchAnalyzer{}).Infer(tk)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Semantics) != 1 {
		t.Fatalf("semantics = %v", res.Semantics)
	}
	sem := res.Semantics[0]
	if sem.Target.Callee != "Listing.addBlock" {
		t.Errorf("target = %q", sem.Target.Callee)
	}
	// Getter normalization inlines hasLocations() to its backing field.
	if sem.Pre.String() != "b.located" {
		t.Errorf("pre = %q", sem.Pre)
	}
	if idx := sem.Target.Bind["b"]; idx != 0 {
		t.Errorf("bind = %v", sem.Target.Bind)
	}
}

func TestInferNoChange(t *testing.T) {
	tk := &ticket.Ticket{ID: "X-1", BuggySource: zkBuggy, FixedSource: zkBuggy}
	res, err := (&PatchAnalyzer{}).Infer(tk)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Semantics) != 0 {
		t.Errorf("semantics = %v, want none", res.Semantics)
	}
}

const syncBuggy = `
class SyncProcessor {
	list nodes;

	void serializeNode(string path) {
		synchronized (nodes) {
			ioWrite("node", path);
			nodes.add(path);
		}
	}
}
`

const syncFixed = `
class SyncProcessor {
	list nodes;

	void serializeNode(string path) {
		synchronized (nodes) {
			nodes.add(path);
		}
		ioWrite("node", path);
	}
}
`

func TestInferGeneralizesBlockingRule(t *testing.T) {
	tk := &ticket.Ticket{
		ID:          "ZK-2201",
		Title:       "Zombie cluster: serialization stuck inside synchronized block",
		BuggySource: syncBuggy, FixedSource: syncFixed,
	}
	res, err := (&PatchAnalyzer{Generalize: true}).Infer(tk)
	if err != nil {
		t.Fatal(err)
	}
	var literal, general *contract.Semantic
	for _, s := range res.Semantics {
		if s.Kind != contract.StructuralKind {
			continue
		}
		if strings.Contains(s.ID, "literal") {
			literal = s
		} else {
			general = s
		}
	}
	if literal == nil || general == nil {
		t.Fatalf("expected literal+general structural semantics, got %v", res.Semantics)
	}
	rule := literal.Structural
	if rule.Hazard != contract.BlockingIO || !rule.Only["SyncProcessor.serializeNode"] {
		t.Errorf("literal scope = %v", rule.Only)
	}
	if general.Structural.Hazard != contract.BlockingIO || len(general.Structural.Only) != 0 {
		t.Error("general rule should be unscoped")
	}
	// Without Generalize, no structural semantics appear.
	res2, _ := (&PatchAnalyzer{}).Infer(tk)
	for _, s := range res2.Semantics {
		if s.Kind == contract.StructuralKind {
			t.Errorf("ungeneralized inference emitted structural rule %s", s.ID)
		}
	}
}

func TestCrossCheckAcceptsTrueRule(t *testing.T) {
	tk := zkTicket()
	res, err := (&PatchAnalyzer{}).Infer(tk)
	if err != nil {
		t.Fatal(err)
	}
	cc := CrossCheck(res.Semantics[0], tk)
	if !cc.Grounded {
		t.Errorf("true rule rejected: %s", cc.Reason)
	}
	if !cc.Confirmed {
		t.Errorf("true rule not dynamically confirmed: %s", cc.Reason)
	}
}

func TestCrossCheckRejectsMutatedAndHallucinated(t *testing.T) {
	tk := zkTicket()
	res, err := (&PatchAnalyzer{}).Infer(tk)
	if err != nil {
		t.Fatal(err)
	}
	base := res.Semantics[0]

	// Flipped polarity: "session must be closing" contradicts the patch.
	mutated := *base
	mutated.ID = base.ID + "-mutated"
	mutated.Pre = smt.MustParsePredicate(`s != null && s.closing == true`)
	if cc := CrossCheck(&mutated, tk); cc.Grounded {
		t.Errorf("mutated rule accepted: %s", cc.Reason)
	}

	// Fabricated conjunct over a nonexistent predicate: no path checks it.
	hallucinated := *base
	hallucinated.ID = base.ID + "-hallucinated"
	hallucinated.Pre = smt.NewAnd(base.Pre, smt.NewAtom(smt.BoolAtom("s.phantomFlag")))
	if cc := CrossCheck(&hallucinated, tk); cc.Grounded {
		t.Errorf("hallucinated rule accepted: %s", cc.Reason)
	}

	// Rule that matches nothing.
	unmatched := *base
	unmatched.ID = "ghost"
	unmatched.Target = contract.TargetPattern{Callee: "Ghost.method", Bind: map[string]int{"s": 0}}
	if cc := CrossCheck(&unmatched, tk); cc.Grounded {
		t.Errorf("unmatched rule accepted: %s", cc.Reason)
	}
}

func TestStochasticInferencerDeterministicPerSeed(t *testing.T) {
	tk := zkTicket()
	mk := func(seed int64) []string {
		si := &StochasticInferencer{
			Base: &PatchAnalyzer{}, Seed: seed,
			DropRate: 0.3, MutateRate: 0.3, HallucinateRate: 0.3,
		}
		res, err := si.Infer(tk)
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, s := range res.Semantics {
			ids = append(ids, s.ID+"|"+s.Pre.String())
		}
		return ids
	}
	a1, a2 := mk(7), mk(7)
	if strings.Join(a1, ",") != strings.Join(a2, ",") {
		t.Errorf("same seed diverged: %v vs %v", a1, a2)
	}
	// Across many seeds, perturbations must actually occur.
	var sawDrop, sawPerturb bool
	for seed := int64(0); seed < 40; seed++ {
		ids := mk(seed)
		if len(ids) == 0 {
			sawDrop = true
			continue
		}
		for _, id := range ids {
			if IsPerturbed(strings.SplitN(id, "|", 2)[0]) {
				sawPerturb = true
			}
		}
	}
	if !sawDrop || !sawPerturb {
		t.Errorf("noise never manifested: drop=%v perturb=%v", sawDrop, sawPerturb)
	}
}

func TestFilterGrounded(t *testing.T) {
	tk := zkTicket()
	si := &StochasticInferencer{
		Base: &PatchAnalyzer{}, Seed: 3,
		MutateRate: 1.0, // always corrupt
	}
	res, err := si.Infer(tk)
	if err != nil {
		t.Fatal(err)
	}
	kept, rejected := FilterGrounded(res, tk)
	if len(kept) != 0 {
		t.Errorf("kept corrupted semantics: %v", kept)
	}
	if len(rejected) == 0 {
		t.Error("nothing rejected")
	}
}

// TestInferElseIfGuard: a guard strengthened inside an else-if rung is
// still extracted, protecting the statements after the ladder.
func TestInferElseIfGuard(t *testing.T) {
	buggy := `
class Res {
	bool open;
	int mode;
}

class Store {
	list ops;

	void apply(Res r, string op) {
		ops.add(op);
	}
}

class Handler {
	Store store;

	void handle(Res r, string op, bool fast) {
		if (fast) {
			log("fast path");
		} else if (r == null) {
			throw "NoResource";
		}
		store.apply(r, op);
	}
}
`
	fixed := strings.Replace(buggy, `} else if (r == null) {`, `} else if (r == null || !r.open) {`, 1)
	tk := &ticket.Ticket{
		ID: "ELSE-1", Title: "apply on closed resource",
		BuggySource: buggy, FixedSource: fixed,
	}
	res, err := (&PatchAnalyzer{}).Infer(tk)
	if err != nil {
		t.Fatal(err)
	}
	var found *contract.Semantic
	for _, sem := range res.Semantics {
		if sem.Target.Callee == "Store.apply" {
			found = sem
		}
	}
	if found == nil {
		t.Fatalf("else-if guard not extracted: %v", res.Semantics)
	}
	if found.Pre.String() != "r != null && r.open" {
		t.Errorf("pre = %q", found.Pre)
	}
}
