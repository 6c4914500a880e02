package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"lisa/internal/ticket"
)

// spinTest is a test case that busy-loops for ~2e9 iterations before
// touching the guarded site — far longer than any sane assertion run.
// Only cooperative cancellation can end it promptly.
func spinTest() ticket.TestCase {
	return ticket.TestCase{
		Name:        "SpinTest.busyLoop",
		Description: "burns billions of interpreter steps before creating a node",
		Class:       "SpinTest",
		Method:      "busyLoop",
		Source: `
class SpinTest {
	static void busyLoop() {
		int i = 0;
		while (i < 2000000000) {
			i = i + 1;
		}
		PrepProcessor p = new PrepProcessor();
		p.tree = new DataTree();
		p.tree.nodes = newMap();
		Session s = new Session();
		s.closing = false;
		p.processCreate("/spin", s);
	}
}
`,
	}
}

// TestAssertCtxCancelledMidRun: cancelling the context mid-Assert returns
// promptly (well under the interpreter's natural runtime), contains the
// cancellation as a structured job failure, and marks the affected semantic
// INCONCLUSIVE — even with a step budget too large to save us.
func TestAssertCtxCancelledMidRun(t *testing.T) {
	e := New()
	if _, err := e.ProcessTicket(&ticket.Ticket{
		ID:          "ZK-1208",
		Title:       "Ephemeral node on closing session",
		BuggySource: zkBuggy,
		FixedSource: zkFixed,
	}); err != nil {
		t.Fatal(err)
	}
	// A deliberately huge step budget: cancellation, not the budget, must be
	// what stops the spin loop.
	e.Budget.StepBudget = 1 << 30

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelAt := make(chan time.Time, 1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancelAt <- time.Now()
		cancel()
	}()

	rep, err := e.AssertCtx(ctx, zkFixed, []ticket.TestCase{spinTest()})
	returned := time.Now()
	if err != nil {
		t.Fatalf("cancellation escaped containment: %v", err)
	}
	if lag := returned.Sub(<-cancelAt); lag > 100*time.Millisecond {
		t.Fatalf("Assert returned %v after cancellation, want <100ms", lag)
	}

	cancelled := 0
	for _, sr := range rep.Semantics {
		for _, f := range sr.Failures {
			if f.Reason == FailCancelled {
				cancelled++
			} else {
				t.Errorf("unexpected failure reason %q on %s: %s", f.Reason, sr.Semantic.ID, f.Detail)
			}
		}
		if len(sr.Failures) > 0 {
			if got := sr.Outcome(); got != OutcomeInconclusive {
				t.Errorf("semantic %s with contained failures has outcome %s, want %s",
					sr.Semantic.ID, got, OutcomeInconclusive)
			}
		}
	}
	if cancelled == 0 {
		t.Fatalf("no job reported a cancelled failure; report:\n%s", rep.Render())
	}
	if rep.Counts.Failures != cancelled {
		t.Errorf("Counts.Failures = %d, want %d", rep.Counts.Failures, cancelled)
	}
}

// TestReplayStepBudgetPerTest: the step budget caps each replayed test on
// its own. Alone, the zk suite's tests take 10, 9 and 1 interpreter steps,
// so a budget of 10 degrades none of them, and a budget of 9 degrades only
// the first: steps, like the clock and the files, do not carry from one
// test into the next.
func TestReplayStepBudgetPerTest(t *testing.T) {
	for _, tt := range []struct {
		steps int
		want  []string
	}{
		{10, nil},
		{9, []string{"job dynamic:zk-1208-datatree-createephemeral budget: replay degraded for EphemeralTest.createOnLiveSession: interp: step budget exhausted"}},
	} {
		e := New()
		if _, err := e.ProcessTicket(zkTicket()); err != nil {
			t.Fatal(err)
		}
		e.RunAllTests = true
		e.Budget.StepBudget = tt.steps
		rep, err := e.Assert(zkRegressed, zkTestSuite())
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, sr := range rep.Semantics {
			for _, f := range sr.Failures {
				got = append(got, f.String())
			}
		}
		if strings.Join(got, "\n") != strings.Join(tt.want, "\n") {
			t.Errorf("budget %d: failures %q, want %q", tt.steps, got, tt.want)
		}
	}
}
