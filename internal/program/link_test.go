package program

import (
	"errors"
	"testing"

	"lisa/internal/faultinject"
	"lisa/internal/minij"
)

// testSuiteSource is a suite for testSource, as it is appended to a system
// source: each test's text preceded by a newline.
const testSuiteSource = `
class ProcTest {
	static void create() {
		PrepProcessor p = new PrepProcessor();
		p.tree = new DataTree();
		if (p.tree != null) {
			p.processCreate("/a", new Session());
		}
	}
}`

// TestLinkCachedNotPersisted: a link is served from the LRU on repeat, is
// never written to the disk tier, counts as a link and not a compile, and
// equals the concatenated compile. A second system version links a copy
// decoded from the suite's frame, not a second parse of the suite.
func TestLinkCachedNotPersisted(t *testing.T) {
	st := openStoreT(t)
	c := NewCache(8)
	c.SetStore(st)
	suite := NewSuite("suite", testSuiteSource)
	sys, err := c.Load(testSource)
	if err != nil {
		t.Fatal(err)
	}
	linked, err := c.Link(sys, suite)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := c.Link(sys, suite); err != nil || again != linked {
		t.Fatalf("repeat link = %p, %v; want the resident %p", again, err, linked)
	}
	concat, err := Compile(testSource + testSuiteSource)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := minij.FormatProgram(linked.Program()), minij.FormatProgram(concat); got != want {
		t.Fatalf("linked program differs from the concatenated compile:\n%s\n---\n%s", got, want)
	}
	create, process := linked.Program().Method("ProcTest", "create"), sys.Program().Method("PrepProcessor", "processCreate")
	if linked.MethodDigest(create) == "" || linked.MethodDigest(process) != sys.MethodDigest(process) {
		t.Error("linked method digests do not cover both halves")
	}
	if err := linked.Verify(); err != nil {
		t.Errorf("fresh link failed verify: %v", err)
	}
	if stats := c.Stats(); stats.Compiles != 1 || stats.Links != 1 || stats.LinkFallbacks != 0 || stats.Hits != 1 {
		t.Errorf("stats = %+v, want 1 compile, 1 link, 1 hit", stats)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := st.Stats().Records; n != 1 {
		t.Errorf("store holds %d records, want the system snapshot's only", n)
	}

	other, err := c.Load(testSource + "\nclass Extra {\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	if suite.fresh.Load() != nil {
		t.Fatal("the first link did not take the suite's fresh parse")
	}
	if _, err := c.Link(other, suite); err != nil {
		t.Fatal(err)
	}
	if stats := c.Stats(); stats.Links != 2 {
		t.Errorf("links = %d, want 2", stats.Links)
	}
}

// TestLinkFollowsReloadedSystem: a gate loads the change, then the base,
// then links the change, so the change's snapshot can be evicted while its
// link stays resident. Linking onto the reloaded snapshot must not serve
// the link onto the evicted copy.
func TestLinkFollowsReloadedSystem(t *testing.T) {
	c := NewCache(3)
	suite := NewSuite("suite", testSuiteSource)
	load := func(src string) *Snapshot {
		t.Helper()
		snap, err := c.Load(src)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	sys := load(testSource)
	load(variant(1))
	if _, err := c.Link(sys, suite); err != nil {
		t.Fatal(err)
	}
	load(variant(2)) // evicts sys; the link stays
	reloaded := load(testSource)
	if reloaded == sys {
		t.Fatal("system snapshot was not evicted")
	}
	linked, err := c.Link(reloaded, suite)
	if err != nil {
		t.Fatal(err)
	}
	if linked.Program().Classes[0] != reloaded.Program().Classes[0] {
		t.Error("link served onto the evicted system snapshot")
	}
	if stats := c.Stats(); stats.Links != 2 {
		t.Errorf("links = %d, want 2", stats.Links)
	}
}

// TestLinkFaultSparesSystem: the program.load Corrupt point fired on a link
// damages one of the link's own test classes, never the shared system
// program: the linked snapshot fails Verify, the system snapshot passes.
func TestLinkFaultSparesSystem(t *testing.T) {
	c := NewCache(8)
	sys, err := c.Load(testSource)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.NewPlan(7).Set("program.load", faultinject.Corrupt))
	linked, err := c.Link(sys, NewSuite("suite", testSuiteSource))
	faultinject.Disarm()
	if err != nil {
		t.Fatal(err)
	}
	if err := linked.Verify(); !errors.Is(err, ErrMutated) {
		t.Fatalf("linked Verify = %v, want ErrMutated", err)
	}
	if err := sys.Verify(); err != nil {
		t.Fatalf("system Verify = %v: the fault damaged the shared program", err)
	}
}
