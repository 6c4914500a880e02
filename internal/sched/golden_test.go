package sched

import (
	"slices"
	"strings"
	"testing"

	"lisa/internal/contract"
	"lisa/internal/corpus"
)

// goldenSpec adds a structural rule to zk-ephemeral's inferred one, so the
// golden plan has a job of every kind.
const goldenSpec = `
rule golden-no-io-under-locks
description: No blocking I/O while a lock is held.
structural: no-blocking-io-in-sync
`

// goldenFingerprints are the keys of zk-ephemeral's head with its suite:
// the corpus digest, each semantic's fingerprint and every job's. Site,
// structural and corpus values are the ones every earlier release
// computed; the dynamic value changed once, when the rule's description
// joined it (it was 1a2636823670a317c9b2c82eb9fc9b3f). Persisted fingerprint records are keyed by these bytes, so a
// change here turns every warm store cold — it must be deliberate.
var goldenFingerprints = []string{
	"corpus 5a07b2f5db9a6a63b3d0a37890c2de9c",
	"sem zks-1208-datatree-createephemeral 6f3b9c441336ca5bb339d68582a58f94",
	"job site:zks-1208-datatree-createephemeral#0 00c6cc5e0335a6515559412507a385c4",
	"job site:zks-1208-datatree-createephemeral#1 604000762c1fde073d79ad0ebc3710e8",
	"job site:zks-1208-datatree-createephemeral#2 13372b11a7367b98c377ce80cdaf6092",
	"job dynamic:zks-1208-datatree-createephemeral 7147a310f22ddcf18c469ea44059e68c",
	"sem golden-no-io-under-locks 06360a72d369e7092fc74ea5907b0ba7",
	"job structural:golden-no-io-under-locks 92e95838c1789e7583a363ff144ebec0",
}

// TestGoldenFingerprints pins goldenFingerprints, on a cold plan (the
// site-plan memo is built) and on a warm one (it is read).
func TestGoldenFingerprints(t *testing.T) {
	cs := corpus.Load().Get("zk-ephemeral")
	e := engineForCase(t, cs)
	sems, err := contract.ParseSpec(goldenSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, sem := range sems {
		if err := e.Registry.Add(sem); err != nil {
			t.Fatal(err)
		}
	}
	for _, run := range []string{"cold", "warm"} {
		actx, err := e.Prepare(cs.Head(), cs.Tests, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := []string{"corpus " + actx.CorpusDigest}
		for _, sp := range New().plan(e, actx, nil) {
			got = append(got, "sem "+sp.sem.ID+" "+semFingerprint(sp.sem))
			for _, j := range sp.jobs() {
				got = append(got, "job "+j.name+" "+j.fp)
			}
		}
		if !slices.Equal(got, goldenFingerprints) {
			t.Errorf("%s plan fingerprints drifted:\n--- got ---\n%s\n--- want ---\n%s",
				run, strings.Join(got, "\n"), strings.Join(goldenFingerprints, "\n"))
		}
	}
}
