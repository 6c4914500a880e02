package server

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"lisa/internal/ci"
	"lisa/internal/ticket"
)

// hammerSpec is one request shape plus its precomputed sequential-twin
// expectation. Every concurrent response must match it byte-for-byte.
type hammerSpec struct {
	name string
	gate *GateRequest
	asrt *AssertRequest

	wantPass       bool
	wantReport     string
	wantFindings   []Finding
	wantViolations int
}

// TestHammerByteIdentity is the concurrency contract test: N goroutines
// fire mixed /gate and /assert requests — warm and cold, passing and
// regressing, across several cases — and every single response must be
// byte-identical to the sequential local twin computed up front. Run it
// under -race (verify.sh does) to also certify the daemon race-clean.
func TestHammerByteIdentity(t *testing.T) {
	_, cl, done := newTestServer(t, Config{})
	defer done()

	var specs []hammerSpec
	for _, id := range []string{"zk-ephemeral", "zk-session-expiry"} {
		cs := corpusCase(t, id)
		regressed := cs.Tickets[len(cs.Tickets)-1].BuggySource

		for _, g := range []struct {
			name   string
			change string
		}{
			{id + "/gate-head", cs.Head()},
			{id + "/gate-regression", regressed},
		} {
			seq, err := ci.GateWith(localTwin(t, cs), ci.Change{
				Summary:   "hammer",
				OldSource: cs.Head(),
				NewSource: g.change,
			}, cs.Tests, ci.GateOptions{})
			if err != nil {
				t.Fatalf("%s: local twin: %v", g.name, err)
			}
			var findings []Finding
			for _, f := range seq.Findings {
				findings = append(findings, Finding{Severity: f.Severity, Text: f.Text})
			}
			specs = append(specs, hammerSpec{
				name:         g.name,
				gate:         &GateRequest{Case: cs.ID, Change: g.change, Summary: "hammer"},
				wantPass:     seq.Pass,
				wantReport:   seq.Report.Render(),
				wantFindings: findings,
			})
		}

		for _, a := range []struct {
			name    string
			version string
			tests   bool
		}{
			{id + "/assert-head", "head", false},
			{id + "/assert-head-tests", "head", true},
			{id + "/assert-buggy", cs.Tickets[0].ID + ":buggy", false},
		} {
			target, err := cs.Version(a.version)
			if err != nil {
				t.Fatalf("%s: %v", a.name, err)
			}
			var tests []ticket.TestCase
			if a.tests {
				tests = cs.Tests
			}
			rep, err := localTwin(t, cs).Assert(target, tests)
			if err != nil {
				t.Fatalf("%s: local twin: %v", a.name, err)
			}
			specs = append(specs, hammerSpec{
				name:           a.name,
				asrt:           &AssertRequest{Case: cs.ID, Version: a.version, Tests: a.tests},
				wantReport:     rep.Render(),
				wantViolations: rep.Counts.Violations,
			})
		}
	}

	const (
		goroutines = 8
		rounds     = 4
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds*len(specs))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Stagger starting offsets so different goroutines collide on
				// the same case runtime while others work elsewhere.
				for i := 0; i < len(specs); i++ {
					spec := specs[(g+i)%len(specs)]
					if err := fireOne(cl, spec); err != nil {
						errs <- fmt.Errorf("goroutine %d round %d: %w", g, r, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	failed := 0
	for err := range errs {
		failed++
		if failed <= 5 {
			t.Error(err)
		}
	}
	if failed > 5 {
		t.Errorf("... and %d more divergent responses", failed-5)
	}
}

// fireOne sends a spec's request and checks the response against the
// sequential expectation.
func fireOne(cl *Client, spec hammerSpec) error {
	if spec.gate != nil {
		resp, err := cl.Gate(*spec.gate)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.name, err)
		}
		if resp.Pass != spec.wantPass {
			return fmt.Errorf("%s: pass=%v, sequential twin %v", spec.name, resp.Pass, spec.wantPass)
		}
		if resp.Report != spec.wantReport {
			return fmt.Errorf("%s: report diverged from sequential twin", spec.name)
		}
		if !reflect.DeepEqual(resp.Findings, spec.wantFindings) {
			return fmt.Errorf("%s: findings diverged: %v", spec.name, resp.Findings)
		}
		return nil
	}
	resp, err := cl.Assert(*spec.asrt)
	if err != nil {
		return fmt.Errorf("%s: %w", spec.name, err)
	}
	if resp.Report != spec.wantReport {
		return fmt.Errorf("%s: report diverged from sequential twin", spec.name)
	}
	if resp.Counts.Violations != spec.wantViolations {
		return fmt.Errorf("%s: violations=%d, sequential twin %d", spec.name, resp.Counts.Violations, spec.wantViolations)
	}
	return nil
}

// TestStatsDuringFirstGates: /stats polled while four cases take their
// first /gate reads each case runtime only once it is built, never while
// another request is building it. Run it under -race (verify.sh does).
func TestStatsDuringFirstGates(t *testing.T) {
	_, cl, done := newTestServer(t, Config{})
	defer done()
	ids := []string{"zk-ephemeral", "zk-session-expiry", "zk-quota", "hdfs-lease-recovery"}
	heads := make([]string, len(ids))
	for i, id := range ids {
		heads[i] = corpusCase(t, id).Head()
	}

	stop := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := cl.Stats(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var gates sync.WaitGroup
	for i, id := range ids {
		gates.Add(1)
		go func(id, head string) {
			defer gates.Done()
			if _, err := cl.Gate(GateRequest{Case: id, Change: head, Summary: "first gate"}); err != nil {
				t.Errorf("%s: %v", id, err)
			}
		}(id, heads[i])
	}
	gates.Wait()
	close(stop)
	poller.Wait()

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Cases) != len(ids) {
		t.Fatalf("/stats shows %d case runtimes after %d first gates", len(st.Cases), len(ids))
	}
}
