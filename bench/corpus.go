package main

import (
	"bufio"
	_ "embed"
	"fmt"
	"strconv"
	"strings"

	"lisa/internal/ci"
	"lisa/internal/core"
	"lisa/internal/experiments"
	"lisa/internal/minij"
	"lisa/internal/program"
	"lisa/internal/server"
	"lisa/internal/smt"
	"lisa/internal/ticket"
)

// verdictsTSV is the corpus oracle: one line per gate input, in
// corpusVersions order, with the answer a fresh engine's gate gives.
//
//go:embed testdata/verdicts.tsv
var verdictsTSV string

// answer is what the gate must say about one change.
type answer struct {
	verdict string // "PASS" or "BLOCKED"
	// violations is the report's violation count, or -1 when the change
	// does not build against the test suite and the gate blocks it
	// without a report.
	violations int
}

func (a answer) String() string {
	if a.violations < 0 {
		return a.verdict + " (does not build)"
	}
	return fmt.Sprintf("%s (%d violations)", a.verdict, a.violations)
}

// notBuilt is the answer of a gate whose change does not compile together
// with the test suite.
var notBuilt = answer{verdict: "BLOCKED", violations: -1}

// version is one gate input: a full system source of a corpus case.
type version struct {
	cs     *ticket.Case
	class  string // head, buggy, fixed, latest or mutant
	label  string // ticket id, "head", "latest" or the mutant's index
	source string
	// tests are the case's tests that compile together with the source.
	// An old ticket version lacks classes that later tests use; the gate,
	// which compiles a change with the case's whole suite, answers
	// notBuilt for it, and such a version is kept out of the timed draws.
	tests []ticket.TestCase
	// want is the answer of a gate given tests.
	want answer
	// voidBodies holds, for each void method with a body, the byte offset
	// just past its opening brace: where edit puts its dead local.
	voidBodies []int
}

// builds reports whether the version compiles with the case's whole test
// suite, as every gate the daemon and the CLI run compiles it.
func (v *version) builds() bool { return len(v.tests) == len(v.cs.Tests) }

// suite is the oracle's record of which tests the version builds with.
func (v *version) suite() string {
	if v.builds() {
		return "all"
	}
	return fmt.Sprintf("%d/%d", len(v.tests), len(v.cs.Tests))
}

// corpusVersions lists the gate inputs of the corpus: for each case its
// head, every ticket's buggy and fixed source, the latest head where the
// case has one, and its E-M1 guard-weakening mutants.
func corpusVersions(c *ticket.Corpus) ([]*version, error) {
	var out []*version
	add := func(cs *ticket.Case, class, label, src string) error {
		v := &version{cs: cs, class: class, label: label, source: src}
		bodies, err := voidBodies(src)
		if err != nil {
			return fmt.Errorf("%s %s %s: %w", cs.ID, class, label, err)
		}
		v.voidBodies = bodies
		for _, tc := range cs.Tests {
			if _, err := program.Compile(src + "\n" + tc.Source); err == nil {
				v.tests = append(v.tests, tc)
			}
		}
		out = append(out, v)
		return nil
	}
	for _, cs := range c.Cases {
		if err := add(cs, "head", "head", cs.Head()); err != nil {
			return nil, err
		}
		for _, tk := range cs.Tickets {
			if err := add(cs, "buggy", tk.ID, tk.BuggySource); err != nil {
				return nil, err
			}
			if err := add(cs, "fixed", tk.ID, tk.FixedSource); err != nil {
				return nil, err
			}
		}
		if cs.Latest != "" {
			if err := add(cs, "latest", "latest", cs.Latest); err != nil {
				return nil, err
			}
		}
		roots, err := ruleRoots(cs)
		if err != nil {
			return nil, err
		}
		if len(roots) == 0 {
			continue
		}
		for i, mu := range experiments.MutateGuards(cs, roots) {
			if err := add(cs, "mutant", "m"+strconv.Itoa(i), mu.Source); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// ruleRoots returns the slot names of the case's registered state rules:
// the variables E-M1 weakens guards over.
func ruleRoots(cs *ticket.Case) (map[string]bool, error) {
	e := core.New()
	roots := map[string]bool{}
	for _, tk := range cs.Tickets {
		if _, err := e.ProcessTicket(tk); err != nil {
			return nil, fmt.Errorf("process %s: %w", tk.ID, err)
		}
	}
	for _, sem := range e.Registry.All() {
		for slot := range sem.Target.Bind {
			roots[slot] = true
		}
	}
	return roots, nil
}

// voidBodies finds the opening brace of every void method body in src.
func voidBodies(src string) ([]int, error) {
	prog, err := program.Compile(src)
	if err != nil {
		return nil, err
	}
	var lineStart []int
	lineStart = append(lineStart, 0)
	for i := 0; i < len(src); i++ {
		if src[i] == '\n' {
			lineStart = append(lineStart, i+1)
		}
	}
	var out []int
	for _, m := range prog.Methods() {
		if m.Ret.Kind != minij.TypeVoid || m.Body == nil {
			continue
		}
		pos := m.Body.Pos()
		off := lineStart[pos.Line-1] + pos.Col - 1
		if off >= len(src) || src[off] != '{' {
			return nil, fmt.Errorf("body of %s is not at %s", m.FullName(), pos)
		}
		out = append(out, off+1)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no void method to edit")
	}
	return out, nil
}

// edit returns the version's source with the dead local
// `int benchEdit<k> = <k>;` put first in its m-th void method (m taken
// modulo the number of void methods). Distinct k give distinct changes
// whose answer is the version's own: a dead local in a void method adds
// no path condition. Non-void methods are left alone because a boolean
// getter that is no longer a single return stops being inlined into
// path conditions, which can change a verdict.
func (v *version) edit(k, m int) string {
	off := v.voidBodies[m%len(v.voidBodies)]
	return v.source[:off] + " int benchEdit" + strconv.Itoa(k) + " = " + strconv.Itoa(k) + ";" + v.source[off:]
}

// loadOracle sets each version's answer from the committed oracle file,
// checking that the file lists the same versions with the same sources.
func loadOracle(versions []*version) error {
	sc := bufio.NewScanner(strings.NewReader(verdictsTSV))
	i := 0
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Split(text, "\t")
		if len(f) != 7 {
			return fmt.Errorf("verdicts.tsv:%d: want 7 fields, got %d", line, len(f))
		}
		if i >= len(versions) {
			return fmt.Errorf("verdicts.tsv:%d: more lines than the corpus has versions (%d)", line, len(versions))
		}
		v := versions[i]
		if f[0] != v.cs.ID || f[1] != v.class || f[2] != v.label || f[3] != sourceDigest(v.source) || f[4] != v.suite() {
			return fmt.Errorf("verdicts.tsv:%d: lists %s, corpus has %s %s %s %s %s",
				line, strings.Join(f[:5], " "), v.cs.ID, v.class, v.label, sourceDigest(v.source), v.suite())
		}
		a := answer{verdict: f[5], violations: -1}
		if f[6] != "-" {
			n, err := strconv.Atoi(f[6])
			if err != nil {
				return fmt.Errorf("verdicts.tsv:%d: bad violation count %q", line, f[6])
			}
			a.violations = n
		}
		if a.verdict != "PASS" && a.verdict != "BLOCKED" {
			return fmt.Errorf("verdicts.tsv:%d: bad verdict %q", line, a.verdict)
		}
		v.want = a
		i++
	}
	if i != len(versions) {
		return fmt.Errorf("verdicts.tsv lists %d versions, the corpus has %d", i, len(versions))
	}
	return sc.Err()
}

// formatOracle renders the oracle file for the given answers.
func formatOracle(versions []*version, answers []answer) string {
	var sb strings.Builder
	sb.WriteString("# case\tclass\tversion\tsha256\ttests\tverdict\tviolations\n")
	for i, v := range versions {
		n := "-"
		if answers[i].violations >= 0 {
			n = strconv.Itoa(answers[i].violations)
		}
		fmt.Fprintf(&sb, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", v.cs.ID, v.class, v.label, sourceDigest(v.source), v.suite(), answers[i].verdict, n)
	}
	return sb.String()
}

// sourceDigest is the oracle's short content address of a source.
func sourceDigest(src string) string { return program.Hash(src)[:12] }

// newCaseEngine builds an engine with every ticket of the case processed,
// the way the daemon builds a case runtime.
func newCaseEngine(cs *ticket.Case, snaps *program.Cache) (*core.Engine, error) {
	e := core.New()
	e.Snapshots = snaps
	e.Solver = smt.NewQueryCache(0)
	for _, tk := range cs.Tickets {
		if _, err := e.ProcessTicket(tk); err != nil {
			return nil, fmt.Errorf("process %s: %w", tk.ID, err)
		}
	}
	return e, nil
}

// freshGate gates src against the case's head with the given tests on a
// fresh engine with the sequential engine loop: the reference the oracle
// is generated by.
func freshGate(cs *ticket.Case, src string, tests []ticket.TestCase) (*ci.Result, error) {
	e, err := newCaseEngine(cs, program.NewCache(0))
	if err != nil {
		return nil, err
	}
	return ci.GateWith(e, ci.Change{OldSource: cs.Head(), NewSource: src}, tests, ci.GateOptions{})
}

// freshAnswer is freshGate's answer.
func freshAnswer(cs *ticket.Case, src string, tests []ticket.TestCase) (answer, error) {
	res, err := freshGate(cs, src, tests)
	if err != nil {
		return answer{}, err
	}
	return resultAnswer(res), nil
}

// resultAnswer reads the answer off an in-process gate result.
func resultAnswer(res *ci.Result) answer {
	a := notBuilt
	if res.Pass {
		a.verdict = "PASS"
	}
	if res.Report != nil {
		a.violations = res.Report.Counts.Violations
	}
	return a
}

// responseAnswer reads the answer off a daemon gate response: the
// violation count is the one in its rendered report's counts line.
func responseAnswer(resp *server.GateResponse) (answer, error) {
	a := answer{verdict: resp.Verdict, violations: -1}
	if resp.Report == "" {
		return a, nil
	}
	var verified int
	if _, err := fmt.Sscanf(resp.Report, "counts: verified=%d violations=%d", &verified, &a.violations); err != nil {
		return a, fmt.Errorf("unreadable report counts: %v", err)
	}
	return a, nil
}

// cliAnswer reads the answer off a `lisa gate` run: exit code 0 or 1 and
// the GATE line give the verdict; the gate log lists one BLOCK finding
// per violation, or a single "does not build" BLOCK.
func cliAnswer(exit int, stdout string) (answer, error) {
	a := answer{verdict: "PASS"}
	switch {
	case exit == 0 && strings.HasPrefix(stdout, "GATE: PASS"):
	case exit == 1 && strings.HasPrefix(stdout, "GATE: BLOCKED"):
		a.verdict = "BLOCKED"
	default:
		return a, fmt.Errorf("exit code %d with gate log %.40q", exit, stdout)
	}
	if strings.Contains(stdout, "  BLOCK change does not build") {
		a.violations = -1
		return a, nil
	}
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "  BLOCK ") {
			a.violations++
		}
	}
	return a, nil
}
