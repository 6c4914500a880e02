// Command lisa is the CLI front end of the pipeline: it infers low-level
// semantics from failure tickets, asserts registered contracts over a
// codebase, and gates proposed changes.
//
// Usage:
//
//	lisa stats
//	    Print the study corpus statistics.
//
//	lisa list
//	    List the corpus cases and their tickets.
//
//	lisa infer -case <id> [-ticket <id>]
//	    Run semantics inference on a corpus ticket and print the recovered
//	    contracts with the reasoning trace.
//
//	lisa infer -buggy <file> -fixed <file> [-title <text>]
//	    Run inference on a patch given as two MiniJ source files.
//
//	lisa assert -case <id> [-version latest|head|<ticket-id>:buggy|<ticket-id>:fixed] [-tests]
//	    Register the rules inferred from every ticket of the case and
//	    assert them over the chosen version (default: head).
//
//	lisa assert -rules <case-id> -source <file> [-tests]
//	    Assert the case's rules over an arbitrary MiniJ source file.
//	    Assertions run on the parallel scheduler with a GOMAXPROCS-wide
//	    pool by default; -workers N overrides the width, and -workers 1
//	    runs every job inline on the calling goroutine.
//
//	lisa gate -case <id> -change <file> [-workers N] [-incremental]
//	    Run the CI gate for a proposed full-source change against the
//	    case's registered rules. Exits 1 when the change is blocked.
//	    -workers overrides the scheduler pool width (default GOMAXPROCS);
//	    -incremental first primes the scheduler's fingerprint cache on the
//	    current head, then gates the change so only impacted jobs
//	    re-execute (the summary reports the cache-hit split).
//
//	lisa author -spec <file> -source <file>
//	    Compile developer-authored semantics from a structured spec file
//	    (§5's explicit-encoding interface) and assert them over a source.
//
//	lisa export -case <id>
//	    Export the rules mined from a case in spec syntax, for developer
//	    review and editing.
//
//	lisa serve [-addr HOST:PORT] [-workers N] [-watch DIR]...
//	    Run the long-lived assertion daemon: an HTTP/JSON API over the
//	    corpus with process-lifetime snapshot, fingerprint, and solver
//	    caches, a polling file watcher that pre-warms changed sources, and
//	    a bounded request history for audit (/gate, /assert, /history,
//	    /stats, /watch, /healthz). SIGINT/SIGTERM drain gracefully.
//
//	lisa gate -remote URL ... / lisa assert -remote URL ...
//	    Run gate or assert through a daemon at URL instead of in-process.
//	    A cold client against a warm server skips the whole front end.
//	    Without -remote, and on failover, the command sends the same
//	    request to an in-process server.Server, so every path prints from
//	    one renderer with the same exit code; only the cache-hit lines
//	    show how warm the daemon was. Transient
//	    daemon failures (connection refused, timeout, 503-drain, overload
//	    shed) are retried -remote-retries times (default 3) under seeded
//	    jittered exponential backoff honoring the server's Retry-After;
//	    -remote-timeout bounds all attempts together (default 0 = none).
//	    If the daemon stays unreachable, keeps timing out, or is draining
//	    past the retry budget, the client fails over to in-process
//	    execution (disable with -remote-failover=false) — the printed
//	    report is byte-identical to a pure-local run, and a shared -store
//	    still applies. With failover off, the exit code names the failure:
//	    4 connection failed, 5 timed out, 6 server draining, 7 server
//	    overloaded (overload never fails over — the daemon is alive).
//	    -remote-token sets the client identity the daemon's per-token
//	    admission quotas key on.
//
//	lisa assert|gate|serve ... -store DIR
//	    Back the hot caches (program snapshots, solver verdicts, job
//	    fingerprints) with a crash-safe on-disk store at DIR, shared
//	    across processes: a cold invocation over a warm store replays
//	    prior results instead of recomputing them, and the report stays
//	    byte-identical to a store-less run. Two processes may share one
//	    store directory concurrently.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"lisa/internal/contract"
	"lisa/internal/core"
	"lisa/internal/corpus"
	"lisa/internal/experiments"
	"lisa/internal/infer"
	"lisa/internal/server"
	"lisa/internal/store"
	"lisa/internal/ticket"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "stats":
		err = runStats()
	case "list":
		err = runList()
	case "infer":
		err = runInfer(os.Args[2:])
	case "assert":
		err = runAssert(os.Args[2:])
	case "gate":
		err = runGate(os.Args[2:])
	case "author":
		err = runAuthor(os.Args[2:])
	case "export":
		err = runExport(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "lisa: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lisa:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode maps a top-level failure to the process exit status. Remote
// transport failures carry distinct codes so scripts can branch on what
// actually went wrong instead of parsing error text: 4 connection failed,
// 5 timed out, 6 server draining, 7 server overloaded. Everything else —
// including remote HTTP-level rejections, where the request itself is
// wrong — stays the historical 1. (Blocked changes and violations exit 1
// before reaching here.)
func exitCode(err error) int {
	var re *server.RemoteError
	if errors.As(err, &re) {
		switch re.Kind {
		case server.RemoteConnect:
			return 4
		case server.RemoteTimeout:
			return 5
		case server.RemoteDrain:
			return 6
		case server.RemoteOverload:
			return 7
		}
	}
	return 1
}

// remotePolicy derives the -remote resilience posture from the flags:
// -remote-retries attempts beyond the first, the default backoff curve,
// an overall deadline from -remote-timeout, and — when the run carries a
// -run-timeout budget — a per-attempt deadline of that budget plus a
// second of transport slack (one attempt is one server-side run, which
// the daemon bounds with the same budget).
func remotePolicy(retries int, overall, runTimeout time.Duration) server.RetryPolicy {
	p := server.DefaultRetryPolicy()
	p.Retries = retries
	if runTimeout > 0 {
		p.AttemptTimeout = runTimeout + time.Second
	}
	p.OverallTimeout = overall
	return p
}

// failoverable reports whether a remote failure should fall back to
// in-process execution: failover is enabled and the daemon was
// unreachable, timed out, or draining. Overload does not fail over — the
// daemon is alive and asked us to back off — and HTTP-level failures mean
// the request itself is wrong, which local execution would only reproduce.
func failoverable(err error, enabled bool) bool {
	if err == nil || !enabled {
		return false
	}
	var re *server.RemoteError
	if !errors.As(err, &re) {
		return false
	}
	switch re.Kind {
	case server.RemoteConnect, server.RemoteTimeout, server.RemoteDrain:
		return true
	}
	return false
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: lisa <stats|list|infer|assert|gate|author|export|serve> [flags]")
	fmt.Fprintln(os.Stderr, "run 'go doc lisa/cmd/lisa' for details")
}

func runAuthor(args []string) error {
	fs := flag.NewFlagSet("author", flag.ExitOnError)
	specPath := fs.String("spec", "", "path to the structured semantics spec")
	sourcePath := fs.String("source", "", "path to the MiniJ source to assert over")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" || *sourcePath == "" {
		return fmt.Errorf("need -spec and -source")
	}
	specText, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	sems, err := contract.ParseSpec(string(specText))
	if err != nil {
		return err
	}
	source, err := os.ReadFile(*sourcePath)
	if err != nil {
		return err
	}
	e := core.New()
	for _, sem := range sems {
		if err := e.Registry.Add(sem); err != nil {
			return err
		}
		fmt.Printf("registered %s\n", sem)
	}
	rep, err := e.Assert(string(source), nil)
	if err != nil {
		return err
	}
	fmt.Printf("\nverdicts: %d verified, %d violations, %d unknown\n",
		rep.Counts.Verified, rep.Counts.Violations, rep.Counts.Unknown)
	for _, v := range rep.Violations() {
		fmt.Println("VIOLATION", v)
	}
	if rep.Counts.Violations > 0 {
		os.Exit(1)
	}
	return nil
}

func runExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	caseID := fs.String("case", "", "corpus case id")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cs := corpus.Load().Get(*caseID)
	if cs == nil {
		return fmt.Errorf("unknown case %q (try 'lisa list')", *caseID)
	}
	e := core.New()
	for _, tk := range cs.Tickets {
		if _, err := e.ProcessTicket(tk); err != nil {
			return err
		}
	}
	fmt.Print(contract.FormatSpec(e.Registry.All()))
	return nil
}

func runStats() error {
	c := corpus.Load()
	out, err := experiments.Run("study", c)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

func runList() error {
	c := corpus.Load()
	for _, cs := range c.Cases {
		fmt.Printf("%-26s %-13s %s\n", cs.ID, cs.System, cs.Feature)
		for _, tk := range cs.Tickets {
			fmt.Printf("    %-10s %s\n", tk.ID, tk.Title)
		}
		if cs.Latest != "" {
			fmt.Printf("    %-10s (head carries unguarded paths)\n", "latest")
		}
	}
	return nil
}

func runInfer(args []string) error {
	fs := flag.NewFlagSet("infer", flag.ExitOnError)
	caseID := fs.String("case", "", "corpus case id")
	ticketID := fs.String("ticket", "", "ticket id within the case (default: first)")
	buggyPath := fs.String("buggy", "", "path to the pre-patch MiniJ source")
	fixedPath := fs.String("fixed", "", "path to the post-patch MiniJ source")
	title := fs.String("title", "user-supplied patch", "ticket title for file mode")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var tk *ticket.Ticket
	switch {
	case *buggyPath != "" && *fixedPath != "":
		buggy, err := os.ReadFile(*buggyPath)
		if err != nil {
			return err
		}
		fixed, err := os.ReadFile(*fixedPath)
		if err != nil {
			return err
		}
		tk = &ticket.Ticket{
			ID: "USER-1", Title: *title,
			BuggySource: string(buggy), FixedSource: string(fixed),
		}
	case *caseID != "":
		cs := corpus.Load().Get(*caseID)
		if cs == nil {
			return fmt.Errorf("unknown case %q (try 'lisa list')", *caseID)
		}
		tk = cs.Tickets[0]
		if *ticketID != "" {
			tk = nil
			for _, cand := range cs.Tickets {
				if cand.ID == *ticketID {
					tk = cand
				}
			}
			if tk == nil {
				return fmt.Errorf("case %s has no ticket %q", *caseID, *ticketID)
			}
		}
	default:
		return fmt.Errorf("need -case or -buggy/-fixed")
	}

	pa := &infer.PatchAnalyzer{Generalize: true}
	res, err := pa.Infer(tk)
	if err != nil {
		return err
	}
	fmt.Printf("ticket %s: %s\n\nhigh-level semantics:\n  %s\n\nlow-level semantics:\n", tk.ID, tk.Title, res.HighLevel)
	for _, sem := range res.Semantics {
		fmt.Printf("  %s\n    %s\n", sem, sem.Description)
		cc := infer.CrossCheck(sem, tk)
		fmt.Printf("    cross-check: grounded=%v confirmed=%v (%s)\n", cc.Grounded, cc.Confirmed, cc.Reason)
	}
	fmt.Println("\nreasoning:")
	for _, r := range res.Reasoning {
		fmt.Println("  -", r)
	}
	return nil
}

func runAssert(args []string) error {
	fs := flag.NewFlagSet("assert", flag.ExitOnError)
	caseID := fs.String("case", "", "corpus case id (rules source and default target)")
	rulesID := fs.String("rules", "", "corpus case id to take rules from (with -source)")
	version := fs.String("version", "head", "target version: head, latest, or <ticket-id>:buggy|fixed")
	sourcePath := fs.String("source", "", "path to a MiniJ source file to assert over")
	withTests := fs.Bool("tests", false, "also replay similarity-selected tests")
	rf := addRequestFlags(fs, "assert")
	if err := fs.Parse(args); err != nil {
		return err
	}
	req := server.AssertRequest{Case: *caseID, Version: *version, Tests: *withTests}
	if req.Case == "" {
		req.Case = *rulesID
	}
	if req.Case == "" {
		return fmt.Errorf("need -case or -rules")
	}
	// -source wins over -version.
	if *sourcePath != "" {
		var err error
		if req.Source, err = readSource(*sourcePath); err != nil {
			return err
		}
	}
	req.Workers = rf.explicitWorkers(fs)
	return rf.send(0, func(d daemon) (string, bool, error) {
		resp, err := d.Assert(req)
		if err != nil {
			return "", false, err
		}
		return resp.Summary, resp.Counts.Violations > 0, nil
	})
}

func runGate(args []string) error {
	fs := flag.NewFlagSet("gate", flag.ExitOnError)
	caseID := fs.String("case", "", "corpus case id providing the registered rules")
	changePath := fs.String("change", "", "path to the proposed full MiniJ source")
	summary := fs.String("summary", "proposed change", "change summary for the gate log")
	incremental := fs.Bool("incremental", false, "prime the fingerprint cache on the current head, then gate only what the change impacts")
	failClosed := fs.Bool("fail-closed", true, "block the change when any contract's assertion is INCONCLUSIVE (degraded by a deadline, budget, or contained crash)")
	failOpen := fs.Bool("fail-open", false, "downgrade INCONCLUSIVE outcomes to warnings and let the change pass; overrides -fail-closed")
	runTimeout := fs.Duration("run-timeout", 0, "wall-clock deadline for the whole assertion run (0 = none)")
	jobTimeout := fs.Duration("job-timeout", 0, "deadline per assertion job (0 = none)")
	solverNodes := fs.Int("solver-nodes", 0, "DPLL node ceiling per SMT query (0 = default)")
	stepBudget := fs.Int("step-budget", 0, "interpreter statement ceiling per test replay (0 = default)")
	rf := addRequestFlags(fs, "gate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *caseID == "" || *changePath == "" {
		return fmt.Errorf("need -case and -change")
	}
	change, err := readSource(*changePath)
	if err != nil {
		return err
	}
	req := server.GateRequest{
		Case:        *caseID,
		Change:      change,
		Summary:     *summary,
		Incremental: *incremental,
		FailOpen:    *failOpen || !*failClosed,
		Workers:     rf.explicitWorkers(fs),
	}
	// The budget rides in the request only when a budget flag was given;
	// otherwise the daemon applies its own default.
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "run-timeout", "job-timeout", "solver-nodes", "step-budget":
			req.Budget = &server.BudgetSpec{
				RunTimeoutMS: float64(*runTimeout) / float64(time.Millisecond),
				JobTimeoutMS: float64(*jobTimeout) / float64(time.Millisecond),
				SolverNodes:  *solverNodes,
				StepBudget:   *stepBudget,
			}
		}
	})
	return rf.send(*runTimeout, func(d daemon) (string, bool, error) {
		resp, err := d.Gate(req)
		if err != nil {
			return "", false, err
		}
		return resp.Summary, !resp.Pass, nil
	})
}

// readSource reads a MiniJ source file named by a flag. An empty file is
// an error: the daemon would read an empty change or source as absent.
func readSource(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	if len(data) == 0 {
		return "", fmt.Errorf("%s: empty source file", path)
	}
	return string(data), nil
}

// daemon runs gate and assert requests: a lisa serve daemon behind a
// *server.Client, or an in-process *server.Server.
type daemon interface {
	Gate(server.GateRequest) (*server.GateResponse, error)
	Assert(server.AssertRequest) (*server.AssertResponse, error)
}

// requestFlags are the flags gate and assert share: the pool width, the
// on-disk store, and the daemon to send the request to.
type requestFlags struct {
	workers  *int
	store    *string
	remote   *string
	retries  *int
	timeout  *time.Duration
	failover *bool
	token    *string
}

func addRequestFlags(fs *flag.FlagSet, verb string) *requestFlags {
	return &requestFlags{
		workers:  fs.Int("workers", 0, "scheduler pool width; 0 = GOMAXPROCS (the default), 1 = run every job inline"),
		store:    fs.String("store", "", "back the snapshot, solver, and fingerprint caches with an on-disk store at this directory (created if missing)"),
		remote:   fs.String("remote", "", verb+" through a running lisa serve daemon at this base URL (e.g. http://127.0.0.1:7333) instead of in-process"),
		retries:  fs.Int("remote-retries", server.DefaultRemoteRetries, "with -remote: retries after a transient daemon failure (connection refused, timeout, drain, overload)"),
		timeout:  fs.Duration("remote-timeout", 0, "with -remote: overall deadline across all attempts and backoff sleeps (0 = none)"),
		failover: fs.Bool("remote-failover", true, "with -remote: fall back to in-process execution when the daemon stays unreachable, times out, or drains past the retry budget"),
		token:    fs.String("remote-token", "", "with -remote: client identity for the daemon's per-token admission quotas"),
	}
}

// explicitWorkers is the -workers value when the flag was given, and 0,
// the daemon's own default, when it was not.
func (rf *requestFlags) explicitWorkers(fs *flag.FlagSet) int {
	workers := 0
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "workers" {
			workers = *rf.workers
		}
	})
	return workers
}

// send runs one request through call: on the daemon at -remote, or, run
// locally and when a remote failure fails over, on an in-process server
// over the study corpus and the -store directory. Every path prints the
// summary call returns and exits 1 when call reports a failed run.
// runTimeout is the request's run deadline, which bounds each remote
// attempt.
func (rf *requestFlags) send(runTimeout time.Duration, call func(daemon) (summary string, failed bool, err error)) error {
	if *rf.remote != "" {
		cl := server.NewClient(*rf.remote)
		cl.SetRetryPolicy(remotePolicy(*rf.retries, *rf.timeout, runTimeout))
		cl.SetToken(*rf.token)
		summary, failed, err := call(cl)
		if !failoverable(err, *rf.failover) {
			return finish(summary, failed, err, nil)
		}
		fmt.Fprintf(os.Stderr, "lisa: %v; failing over to local execution\n", err)
	}
	var st *store.Store
	if *rf.store != "" {
		var err error
		if st, err = store.Open(*rf.store); err != nil {
			return fmt.Errorf("open store %s: %w", *rf.store, err)
		}
	}
	summary, failed, err := call(server.New(server.Config{Corpus: corpus.Load(), Store: st}))
	return finish(summary, failed, err, st)
}

// finish ends a request: it flushes and closes the store, if any, then
// prints the summary and exits 1 when the run failed. The store is closed
// first because os.Exit skips deferred calls. Its write errors are not
// the request's: the store is a cache, and it counts them itself.
func finish(summary string, failed bool, err error, st *store.Store) error {
	if st != nil {
		st.Flush()
		st.Close()
	}
	if err != nil {
		return err
	}
	fmt.Print(summary)
	if failed {
		os.Exit(1)
	}
	return nil
}
