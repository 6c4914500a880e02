package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
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

// runLisa runs lisa with args and returns its stdout and exit code.
func runLisa(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LISA_TEST_MAIN=1")
	out, err := cmd.Output()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatal(err)
	return "", 0
}

// TestAssertRejectsBadVersionSuffix: a version spec whose side is neither
// buggy nor fixed exits 1 without asserting anything.
func TestAssertRejectsBadVersionSuffix(t *testing.T) {
	out, code := runLisa(t, "assert", "-case", "zk-ephemeral", "-version", "ZKS-1208:bugy")
	if code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	if strings.Contains(out, "verdicts:") {
		t.Errorf("asserted a version anyway:\n%s", out)
	}
}
