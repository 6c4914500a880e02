package main

import (
	"errors"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"lisa/internal/corpus"
	"lisa/internal/server"
)

// TestMain makes the test binary the lisa command when LISA_TEST_MAIN is
// set, so a test can run lisa in a child process and read its exit code.
func TestMain(m *testing.M) {
	if os.Getenv("LISA_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runLisa runs lisa with args and returns its stdout, its stderr and its
// exit code. The child gets this process's GOMAXPROCS, so its default
// pool width matches an in-process daemon's (go test -cpu sets only the
// test process's).
func runLisa(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LISA_TEST_MAIN=1", "GOMAXPROCS="+strconv.Itoa(runtime.GOMAXPROCS(0)))
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), stderr.String(), 0
	case errors.As(err, &exit):
		return string(out), stderr.String(), exit.ExitCode()
	}
	t.Fatal(err)
	return "", "", 0
}

// deadDaemon is an address nothing listens on: a -remote run against it
// fails to connect and, with one attempt, fails over at once.
var deadDaemon = []string{"-remote", "http://127.0.0.1:1", "-remote-retries", "0"}

// writeSource writes src to name in dir and returns its path.
func writeSource(t *testing.T, dir, name, src string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestAssertRejectsBadVersionSuffix: a version spec whose side is neither
// buggy nor fixed exits 1 without asserting anything.
func TestAssertRejectsBadVersionSuffix(t *testing.T) {
	out, _, code := runLisa(t, "assert", "-case", "zk-ephemeral", "-version", "ZKS-1208:bugy")
	if code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	if strings.Contains(out, "verdicts:") {
		t.Errorf("asserted a version anyway:\n%s", out)
	}
}

// TestRemoteFailoverLocalPrintTheSame: gate and assert print the same
// stdout and exit with the same code run in process, against a fresh
// daemon with -remote, and failing over from a dead daemon.
func TestRemoteFailoverLocalPrintTheSame(t *testing.T) {
	cs := corpus.Load().Get("zk-ephemeral")
	buggy, err := cs.Version("ZKS-1208:buggy")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	head := writeSource(t, dir, "head.mj", cs.Head())
	regressed := writeSource(t, dir, "buggy.mj", buggy)
	for _, tt := range []struct {
		name string
		args []string
		code int
	}{
		{"gate-head", []string{"gate", "-case", "zk-ephemeral", "-change", head}, 0},
		{"gate-buggy", []string{"gate", "-case", "zk-ephemeral", "-change", regressed}, 1},
		{"assert-tests", []string{"assert", "-case", "zk-ephemeral", "-tests"}, 0},
		{"assert-violation", []string{"assert", "-case", "zk-sync-serialize", "-version", "ZKS-3531:buggy", "-tests"}, 1},
	} {
		t.Run(tt.name, func(t *testing.T) {
			local, _, code := runLisa(t, tt.args...)
			if code != tt.code {
				t.Fatalf("local run exit code %d, want %d:\n%s", code, tt.code, local)
			}
			ts := httptest.NewServer(server.New(server.Config{Corpus: corpus.Load()}).Handler())
			defer ts.Close()
			for _, via := range [][]string{{"-remote", ts.URL}, deadDaemon} {
				out, _, c := runLisa(t, slices.Concat(tt.args, via)...)
				if c != code || out != local {
					t.Errorf("%v: exit code %d and stdout\n%s\nwant exit code %d and the local stdout\n%s", via, c, out, code, local)
				}
			}
		})
	}
}

// TestEmptySourceFileRejected: an empty -source or -change file is an
// error that names the file, with nothing asserted, on every path.
func TestEmptySourceFileRejected(t *testing.T) {
	empty := writeSource(t, t.TempDir(), "empty.mj", "")
	ts := httptest.NewServer(server.New(server.Config{Corpus: corpus.Load()}).Handler())
	defer ts.Close()
	for _, args := range [][]string{
		{"assert", "-rules", "zk-ephemeral", "-source", empty},
		{"gate", "-case", "zk-ephemeral", "-change", empty},
	} {
		for _, via := range [][]string{nil, {"-remote", ts.URL}, deadDaemon} {
			out, stderr, code := runLisa(t, slices.Concat(args, via)...)
			if code != 1 || out != "" || !strings.Contains(stderr, empty) {
				t.Errorf("%v: exit code %d, stdout %q, stderr %q; want exit code 1, no stdout and an error naming %s",
					slices.Concat(args, via), code, out, stderr, empty)
			}
		}
	}
}
