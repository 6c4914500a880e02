package contract

import (
	"maps"
	"strings"
	"testing"

	"lisa/internal/interp"
	"lisa/internal/minij"
	"lisa/internal/smt"
)

func compile(t *testing.T, src string) *minij.Program {
	t.Helper()
	prog, err := minij.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := minij.Check(prog); err != nil {
		t.Fatalf("Check: %v", err)
	}
	return prog
}

const zkLikeSrc = `
class Session {
	bool closing;
	int ttl;
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

class FollowerProcessor {
	DataTree tree;

	void forward(string path, Session sess) {
		if (sess == null) {
			throw "KeeperException";
		}
		tree.createEphemeral(path, sess);
	}
}
`

func ephemeralSemantic(t *testing.T) *Semantic {
	t.Helper()
	sem := &Semantic{
		ID:          "zk-ephemeral-closing",
		Description: "No client may create an ephemeral node when the session is in the CLOSING state.",
		HighLevel:   "Every ephemeral node is deleted once its client session is fully disconnected.",
		Kind:        StateKind,
		Target: TargetPattern{
			Callee: "DataTree.createEphemeral",
			Bind:   map[string]int{"session": 1},
		},
		Pre: smt.MustParsePredicate(`session != null && session.closing == false`),
	}
	if err := sem.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return sem
}

func TestMatchFindsAllCallSites(t *testing.T) {
	prog := compile(t, zkLikeSrc)
	sem := ephemeralSemantic(t)
	sites := Match(sem, prog)
	if len(sites) != 2 {
		t.Fatalf("sites = %d, want 2", len(sites))
	}
	methods := []string{sites[0].Method.FullName(), sites[1].Method.FullName()}
	if methods[0] != "FollowerProcessor.forward" || methods[1] != "PrepProcessor.processCreate" {
		t.Errorf("site methods = %v", methods)
	}
}

func TestSiteBinding(t *testing.T) {
	prog := compile(t, zkLikeSrc)
	sem := ephemeralSemantic(t)
	sites := Match(sem, prog)
	want := []string{"sess", "s"} // FollowerProcessor.forward, PrepProcessor.processCreate
	if len(sites) != len(want) {
		t.Fatalf("sites = %d, want %d", len(sites), len(want))
	}
	for i, site := range sites {
		path, ok := ExprPath(site.Bindings["session"])
		if !ok || path != want[i] {
			t.Errorf("site %s binds session to %q (ok=%v), want %q", site, path, ok, want[i])
		}
	}
}

func TestMatchWithinRestriction(t *testing.T) {
	prog := compile(t, zkLikeSrc)
	sem := ephemeralSemantic(t)
	sem.Target.Within = "PrepProcessor.processCreate"
	sites := Match(sem, prog)
	if len(sites) != 1 || sites[0].Method.FullName() != "PrepProcessor.processCreate" {
		t.Errorf("sites = %v", sites)
	}
}

const receiverSrc = `
class Snapshot {
	bool expired;

	void materialize() {
		log("materialize");
	}
}

class Manager {
	void restore(Snapshot snap) {
		snap.materialize();
	}
}
`

func TestReceiverSlotBinding(t *testing.T) {
	prog := compile(t, receiverSrc)
	sem := &Semantic{
		ID:   "hbase-snapshot-expiry",
		Kind: StateKind,
		Target: TargetPattern{
			Callee: "Snapshot.materialize",
			Bind:   map[string]int{"snap": ReceiverSlot},
		},
		Pre: smt.MustParsePredicate(`snap.expired == false`),
	}
	if err := sem.Validate(); err != nil {
		t.Fatal(err)
	}
	sites := Match(sem, prog)
	if len(sites) != 1 {
		t.Fatalf("sites = %d, want 1", len(sites))
	}
	if path, ok := ExprPath(sites[0].Bindings["snap"]); !ok || path != "snap" {
		t.Errorf("receiver slot binds %q (ok=%v), want snap", path, ok)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		sem  *Semantic
		want string
	}{
		{&Semantic{}, "without ID"},
		{&Semantic{ID: "x", Kind: StateKind}, "without target"},
		{&Semantic{ID: "x", Kind: StateKind, Target: TargetPattern{Callee: "A.b"}}, "without precondition"},
		{&Semantic{ID: "x", Kind: StructuralKind}, "without rule"},
		{
			&Semantic{
				ID: "x", Kind: StateKind,
				Target: TargetPattern{Callee: "A.b", Bind: map[string]int{"s": 0}},
				Pre:    smt.MustParsePredicate(`other != null`),
			},
			"not bound",
		},
	}
	for _, c := range cases {
		err := c.sem.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%v) = %v, want containing %q", c.sem, err, c.want)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	sem := &Semantic{
		ID:   "a",
		Kind: StateKind,
		Target: TargetPattern{
			Callee: "X.y",
			Bind:   map[string]int{"v": 0},
		},
		Pre: smt.MustParsePredicate(`v != null`),
	}
	if err := r.Add(sem); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.Get("a") != sem {
		t.Error("registry add/get broken")
	}
	// Replacement keeps order and count.
	sem2 := &Semantic{
		ID:   "a",
		Kind: StateKind,
		Target: TargetPattern{
			Callee: "X.y",
			Bind:   map[string]int{"v": 0},
		},
		Pre: smt.MustParsePredicate(`v != null && v.open`),
	}
	if err := r.Add(sem2); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.Get("a") != sem2 || r.All()[0] != sem2 {
		t.Error("registry replacement broken")
	}
	if err := r.Add(&Semantic{}); err == nil {
		t.Error("invalid semantic should not register")
	}
}

const syncBlockingSrc = `
class Serializer {
	map longKeyMap;
	list nodes;

	void serializeNode(string pathStr) {
		synchronized (nodes) {
			ioWrite("node", pathStr);
		}
	}

	void serializeACL() {
		synchronized (longKeyMap) {
			writeEntries();
		}
	}

	void writeEntries() {
		for (k in longKeyMap.keys()) {
			ioWrite("acl", k);
		}
	}

	void safeSnapshot() {
		list copy = newList();
		synchronized (nodes) {
			copy.addAll(nodes);
		}
		for (n in copy) {
			ioWrite("node", n);
		}
	}
}
`

func TestNoBlockingInSyncStatic(t *testing.T) {
	prog := compile(t, syncBlockingSrc)
	rule := &LockRule{Hazard: BlockingIO}
	vs := rule.Check(prog)
	if len(vs) != 2 {
		for _, v := range vs {
			t.Logf("violation: %s", v)
		}
		t.Fatalf("violations = %d, want 2", len(vs))
	}
	// Direct violation in serializeNode.
	if vs[1].Method.FullName() != "Serializer.serializeNode" || len(vs[1].Chain) != 1 {
		t.Errorf("direct violation = %s", vs[1])
	}
	// Interprocedural violation through writeEntries.
	if vs[0].Method.FullName() != "Serializer.serializeACL" {
		t.Errorf("indirect violation = %s", vs[0])
	}
	if len(vs[0].Chain) != 2 || vs[0].Chain[0] != "Serializer.writeEntries" {
		t.Errorf("indirect chain = %v", vs[0].Chain)
	}
	for _, v := range vs {
		if v.Method.FullName() == "Serializer.safeSnapshot" {
			t.Errorf("safeSnapshot (I/O outside lock) flagged: %s", v)
		}
	}
}

func TestRuntimeBlockingMonitor(t *testing.T) {
	prog := compile(t, syncBlockingSrc)
	in := interp.New(prog)
	mon := (&LockRule{Hazard: BlockingIO}).Monitor(in)
	obj, err := in.Instantiate("Serializer")
	if err != nil {
		t.Fatal(err)
	}
	obj.Fields["nodes"] = &interp.List{Elems: []interp.Value{interp.Str("a")}}
	obj.Fields["longKeyMap"] = interp.NewMap()
	if _, err := in.CallInstance(obj, "safeSnapshot"); err != nil {
		t.Fatal(err)
	}
	if len(mon.Holders) > 0 {
		t.Errorf("safeSnapshot should not violate at runtime: %v", mon.Holders)
	}
	if _, err := in.CallInstance(obj, "serializeNode", interp.Str("/p")); err != nil {
		t.Fatal(err)
	}
	if len(mon.Holders) == 0 {
		t.Error("serializeNode should violate at runtime")
	}
	// The chained finding: writeEntries does the I/O under serializeACL's
	// lock, so the lock holder is credited, not the callee.
	obj.Fields["longKeyMap"].(*interp.Map).Put(interp.Str("k"), interp.Str("v"))
	if _, err := in.CallInstance(obj, "serializeACL"); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"Serializer.serializeNode": true, "Serializer.serializeACL": true}
	if !maps.Equal(mon.Holders, want) {
		t.Errorf("credited %v, want %v", mon.Holders, want)
	}
}

const exprPathSrc = `
class C {
	void m(Session s, map byId) {
		use(s.owner.closing);
		use(s.isClosing());
		use(byId.get("x"));
	}
	void use(bool b) {
	}
}

class Session {
	Session owner;
	bool closing;

	bool isClosing() {
		return closing;
	}
}
`

func TestExprPath(t *testing.T) {
	// Adjust: use takes bool but byId.get returns any — lenient resolver accepts.
	prog := compile(t, exprPathSrc)
	m := prog.Method("C", "m")
	var paths []string
	var oks []bool
	for _, s := range m.Body.Stmts {
		call := s.(*minij.ExprStmt).E.(*minij.Call)
		p, ok := ExprPath(call.Args[0])
		paths = append(paths, p)
		oks = append(oks, ok)
	}
	if !oks[0] || paths[0] != "s.owner.closing" {
		t.Errorf("field chain path = %q ok=%v", paths[0], oks[0])
	}
	if !oks[1] || paths[1] != "s.isClosing" {
		t.Errorf("getter path = %q ok=%v", paths[1], oks[1])
	}
	if oks[2] {
		t.Errorf("call with args should not be a path, got %q", paths[2])
	}
}

const nestedSyncSrc = `
class Registry {
	map entries;
	list index;

	void init() {
		entries = newMap();
		index = newList();
	}

	void directNested(string k, string v) {
		synchronized (entries) {
			synchronized (index) {
				entries.put(k, v);
				index.add(k);
			}
		}
	}

	void indirectNested(string k) {
		synchronized (entries) {
			reindex(k);
		}
	}

	void reindex(string k) {
		synchronized (index) {
			index.add(k);
		}
	}

	void safeSequential(string k, string v) {
		synchronized (entries) {
			entries.put(k, v);
		}
		synchronized (index) {
			index.add(k);
		}
	}
}
`

func TestNoNestedSyncStatic(t *testing.T) {
	prog := compile(t, nestedSyncSrc)
	vs := (&LockRule{Hazard: NestedLock}).Check(prog)
	if len(vs) != 2 {
		for _, v := range vs {
			t.Logf("finding: %s", v)
		}
		t.Fatalf("findings = %d, want 2", len(vs))
	}
	if vs[0].Method.FullName() != "Registry.directNested" {
		t.Errorf("first = %s", vs[0])
	}
	if vs[1].Method.FullName() != "Registry.indirectNested" {
		t.Errorf("second = %s", vs[1])
	}
	if len(vs[1].Chain) != 2 || vs[1].Chain[0] != "Registry.reindex" {
		t.Errorf("indirect chain = %v", vs[1].Chain)
	}
	for _, v := range vs {
		if v.Method.FullName() == "Registry.safeSequential" {
			t.Errorf("sequential locking flagged: %s", v)
		}
	}
	// Scoped form.
	scoped := &LockRule{Hazard: NestedLock, Only: map[string]bool{"Registry.directNested": true}}
	if got := scoped.Check(prog); len(got) != 1 {
		t.Errorf("scoped findings = %d, want 1", len(got))
	}
}

const driveSrc = `
class Drive {
	static void nested() {
		Registry r = new Registry();
		r.directNested("a", "1");
	}
	static void sequential() {
		Registry r = new Registry();
		r.safeSequential("b", "2");
	}
}
`

func TestRuntimeNestedLockMonitor(t *testing.T) {
	prog := compile(t, nestedSyncSrc+driveSrc)
	in := interp.New(prog)
	mon := (&LockRule{Hazard: NestedLock}).Monitor(in)
	if _, err := in.CallStatic("Drive", "sequential"); err != nil {
		t.Fatal(err)
	}
	if len(mon.Holders) > 0 {
		t.Errorf("sequential locking should not trigger: %v", mon.Holders)
	}
	if _, err := in.CallStatic("Drive", "nested"); err != nil {
		t.Fatal(err)
	}
	if len(mon.Holders) == 0 {
		t.Fatal("nested locking not observed")
	}
	if want := map[string]bool{"Registry.directNested": true}; !maps.Equal(mon.Holders, want) {
		t.Errorf("credited %v, want %v", mon.Holders, want)
	}
}

const lockOrderingSpec = `
rule lock-ordering
description: Never take a second lock while one is held.
structural: no-nested-sync
only: Registry.directNested
`

func TestNestedSyncSpecRoundTrip(t *testing.T) {
	sems, err := ParseSpec(lockOrderingSpec)
	if err != nil {
		t.Fatal(err)
	}
	rule := sems[0].Structural
	if rule == nil || rule.Hazard != NestedLock || !rule.Only["Registry.directNested"] {
		t.Fatalf("parsed = %#v", rule)
	}
	text := FormatSpec(sems)
	again, err := ParseSpec(text)
	if err != nil {
		t.Fatalf("round trip: %v\n%s", err, text)
	}
	if again[0].Structural.Name() != sems[0].Structural.Name() {
		t.Errorf("name drift: %s vs %s", again[0].Structural.Name(), sems[0].Structural.Name())
	}
}
