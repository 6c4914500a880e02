package core

import (
	"maps"
	"slices"
	"testing"

	"lisa/internal/contract"
	"lisa/internal/ticket"
)

// journalSrc nests a lock or sleeps under one in record, and does its I/O
// in a callee of indirect, under indirect's lock.
const journalSrc = `
class Journal {
	map entries;
	list index;

	void init() {
		entries = newMap();
		index = newList();
	}

	void record(string k, bool deep) {
		synchronized (entries) {
			if (deep) {
				synchronized (index) {
					index.add(k);
				}
			} else {
				sleep(1);
			}
		}
	}

	void indirect(string k) {
		synchronized (entries) {
			append(k);
		}
	}

	void append(string k) {
		ioWrite("journal", k);
	}
}
`

const lockSpec = `
rule lock-order
description: Never take a second lock while one is held.
structural: no-nested-sync

rule no-io-under-locks
description: Never block on I/O while holding a lock.
structural: no-blocking-io-in-sync
`

func authoredEngine(t *testing.T, spec string) *Engine {
	t.Helper()
	sems, err := contract.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	for _, sem := range sems {
		if err := e.Registry.Add(sem); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func journalTest(class, call string) ticket.TestCase {
	return ticket.TestCase{
		Name:   class + ".run",
		Class:  class,
		Method: "run",
		Source: "class " + class + " {\n\tstatic void run() {\n\t\tJournal j = new Journal();\n\t\t" + call + ";\n\t}\n}\n",
	}
}

// TestStructuralConfirmedByOwnHazard: each structural finding is confirmed
// by a replay that runs its own rule's hazard while the finding's method
// holds the lock. A nested-lock finding is confirmed by the test that nests
// locks and not by one that only sleeps under the lock; a chained
// blocking finding is confirmed by the test whose callee does the I/O under
// the caller's lock.
func TestStructuralConfirmedByOwnHazard(t *testing.T) {
	e := authoredEngine(t, lockSpec)
	rep, err := e.Assert(journalSrc, []ticket.TestCase{
		journalTest("NestsTest", `j.record("a", true)`),
		journalTest("SleepsTest", `j.record("b", false)`),
		journalTest("AppendsTest", `j.indirect("c")`),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]string{}
	for _, sr := range rep.Semantics {
		for i, v := range sr.Structural {
			got[v.String()] = sr.StructuralConfirmedBy[i]
		}
	}
	want := map[string][]string{
		"no-nested-sync: Journal.record @14:5 blocks on synchronized via [synchronized]":                                {"NestsTest.run"},
		"no-blocking-io-in-sync: Journal.indirect @25:4 blocks on builtin.ioWrite via [Journal.append builtin.ioWrite]": {"AppendsTest.run"},
		"no-blocking-io-in-sync: Journal.record @18:5 blocks on sleep via [builtin.sleep]":                              {"SleepsTest.run"},
	}
	if !maps.EqualFunc(got, want, slices.Equal) {
		t.Errorf("confirmations:\n%v\nwant:\n%v", got, want)
	}
}

// TestNestedStatementCountsOnce: I/O inside two nested synchronized blocks
// is one violation of the blocking rule, not one per enclosing block.
func TestNestedStatementCountsOnce(t *testing.T) {
	e := authoredEngine(t, lockSpec)
	rep, err := e.Assert(`
class Store {
	map a;
	map b;

	void flush(string k) {
		synchronized (a) {
			synchronized (b) {
				ioWrite("store", k);
			}
		}
	}
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One nested-lock finding and one blocking finding.
	if rep.Counts.Violations != 2 {
		t.Errorf("violations = %d, want 2:\n%s", rep.Counts.Violations, rep.Render())
	}
}
