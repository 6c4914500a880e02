package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"lisa/internal/core"
	"lisa/internal/corpus"
	"lisa/internal/server"
	"lisa/internal/store"
)

// stringList collects a repeatable string flag (-watch DIR -watch DIR2).
type stringList []string

func (s *stringList) String() string { return fmt.Sprint([]string(*s)) }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// runServe starts the long-lived assertion daemon: the HTTP/JSON API over
// the study corpus with process-lifetime caches, the polling file watcher,
// and the request history ring. SIGINT/SIGTERM drain gracefully: new
// requests are refused, in-flight gates finish (bounded by
// -drain-timeout), and the history ring is flushed.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7333", "listen address")
	workers := fs.Int("workers", 0, "default scheduler pool width per request (0 = GOMAXPROCS)")
	historySize := fs.Int("history", server.DefaultHistorySize, "request history ring capacity")
	historyFile := fs.String("history-file", "", "flush the history ring to this file on shutdown (default: a summary line on stderr)")
	watchInterval := fs.Duration("watch-interval", server.DefaultWatchInterval, "file watcher polling period")
	drainTimeout := fs.Duration("drain-timeout", server.DefaultDrainTimeout, "how long shutdown waits for in-flight requests")
	failOpen := fs.Bool("fail-open", false, "downgrade INCONCLUSIVE gate outcomes to warnings by default")
	runTimeout := fs.Duration("run-timeout", 0, "default wall-clock deadline per assertion run (0 = none)")
	jobTimeout := fs.Duration("job-timeout", 0, "default deadline per assertion job (0 = none)")
	solverNodes := fs.Int("solver-nodes", 0, "default DPLL node ceiling per SMT query (0 = package default)")
	stepBudget := fs.Int("step-budget", 0, "default interpreter statement ceiling per test replay (0 = package default)")
	storeDir := fs.String("store", "", "back the daemon's caches with an on-disk store at this directory, so a restarted daemon starts warm (created if missing)")
	maxConcurrent := fs.Int("max-concurrent", 0, "admission control: bound on concurrently executing gate/assert/watch requests (0 = unbounded, admission off)")
	maxQueue := fs.Int("max-queue", 0, "admission control: how many gate/assert requests may wait for a slot before 503 load shedding (0 = default)")
	var watchRoots stringList
	fs.Var(&watchRoots, "watch", "directory root to watch for MiniJ source changes (repeatable)")
	var quotaSpecs stringList
	fs.Var(&quotaSpecs, "quota", "per-client admission quota as TOKEN=N: at most N in-flight requests for clients sending X-Lisa-Token: TOKEN (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var quotas map[string]server.QuotaClass
	for _, spec := range quotaSpecs {
		tok, limit, ok := strings.Cut(spec, "=")
		n, err := strconv.Atoi(limit)
		if !ok || tok == "" || err != nil || n < 1 {
			return fmt.Errorf("bad -quota %q (want TOKEN=N with N >= 1)", spec)
		}
		if quotas == nil {
			quotas = map[string]server.QuotaClass{}
		}
		quotas[tok] = server.QuotaClass{MaxConcurrent: n}
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir)
		if err != nil {
			return fmt.Errorf("open store %s: %w", *storeDir, err)
		}
		defer func() {
			st.Flush()
			st.Close()
		}()
		fmt.Fprintf(os.Stderr, "lisa serve: cache store at %s (%d records)\n", st.Dir(), st.Stats().Records)
	}

	srv := server.New(server.Config{
		Corpus:        corpus.Load(),
		Workers:       *workers,
		HistorySize:   *historySize,
		WatchInterval: *watchInterval,
		FailOpen:      *failOpen,
		MaxConcurrent: *maxConcurrent,
		MaxQueue:      *maxQueue,
		Quotas:        quotas,
		Budget: core.Budget{
			RunTimeout:  *runTimeout,
			JobTimeout:  *jobTimeout,
			SolverNodes: *solverNodes,
			StepBudget:  *stepBudget,
		},
		Store: st,
	})
	for _, dir := range watchRoots {
		if err := srv.RegisterRoot(dir); err != nil {
			return fmt.Errorf("watch %s: %w", dir, err)
		}
		fmt.Fprintf(os.Stderr, "lisa serve: watching %s (poll every %v)\n", dir, *watchInterval)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "lisa serve: listening on http://%s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "lisa serve: %v — draining (timeout %v)\n", got, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "lisa serve:", err)
	}
	httpSrv.Shutdown(context.Background())

	hist := srv.History()
	if *historyFile != "" {
		f, err := os.Create(*historyFile)
		if err != nil {
			return fmt.Errorf("flush history: %w", err)
		}
		defer f.Close()
		if err := hist.Flush(f); err != nil {
			return fmt.Errorf("flush history: %w", err)
		}
		fmt.Fprintf(os.Stderr, "lisa serve: flushed %d history entries (%d total served) to %s\n",
			hist.Len(), hist.Seq(), *historyFile)
	} else {
		fmt.Fprintf(os.Stderr, "lisa serve: shutdown clean; %d history entries retained of %d total\n",
			hist.Len(), hist.Seq())
	}
	return nil
}
