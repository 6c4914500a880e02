#!/bin/sh
# Full verify: tier-1 (build + all tests), vet, a vet of the bench/
# benchmark module (its own module, built against this one: a renamed or
# deleted exported name it uses fails here, not in a benchmark run), gofmt
# (any unformatted file fails), the race-detector suites for the packages
# with concurrency (scheduler worker pool, snapshot cache, solver result
# cache, the shared LRU under them, prefix-pruning walker, fault injector,
# the on-disk store with its goroutine hammer, and the serve daemon with
# its request hammer and admission control), the bounded fingerprint cache
# and wave-width tests by name (ten race-detector rounds of a capped cache
# gating a stream of edits whose 66-job site waves spread over several
# goroutines: the cap holds, entries evict, reports and executed-job counts
# match; and of one 80-site-job run at widths 1, 2 and 8, each rendering
# like the sequential engine), the budget tests by name (paths and a
# replay left INCONCLUSIVE by an armed solver-budget fault are kept in
# neither tier, so the next unbudgeted run verifies them; a decided extra
# path that a two-node budget kept is not served to the next unbudgeted
# run, because site fingerprints name the node ceiling; a structural job
# whose confirming test ran out of interpreter steps degrades and is not
# kept, so the next unbudgeted run confirms the finding), the cross-engine memo test
# by name (ten race-detector rounds of two
# engines sharing one snapshot cache, registering one rule ID under two
# descriptions and gating the same sources concurrently: each report must
# equal its own engine's sequential run), the daemon /stats test by name
# (ten race-detector rounds of /stats polled while four cases take their
# first /gate), the corpus report golden by name (TestCorpusReportsGolden:
# every corpus version asserted with its case's suite on a default, a
# NoPrune and an IntraOnly engine must render exactly the committed
# reports and error lines, so static enumeration and concolic replay keep
# building path conditions the same way), the quoted-constant store test
# by name (TestControlByteGuardRestoresFromStore: a site whose condition
# quotes a control byte must restore from the store in a fresh
# scheduler),
# the linked-program tests by name (TestLinkedEqualsConcatenated: every
# corpus version and guard mutant that builds with its suite links to a
# program equal to the concatenated compile, and every other falls back to
# its exact error; TestLinkFaultSparesSystem: a corrupt link damages its
# own test classes, never the shared system program; ten race-detector
# rounds of TestConcurrentLinks: eight suites linked onto one system
# snapshot at once, each asserting like its own sequential run), the
# cached-result memory tests by name (TestOperatorTextOwnsItsBytes: no
# operator, identifier or integer text aliases the source, and each
# identifier or integer text is one interned copy; TestFingerprintCacheHoldsNoAST:
# no cached site, structural or replay result points into a program;
# TestStructuralHitRendersCurrentPositions: a structural memory hit on a
# reformatted version renders that version's positions, as a fresh run
# does), the shared-walk tests by name (TestStressReportGolden: the stress
# system's deep branching chains asserted on a default, a NoPrune and an
# IntraOnly engine must render exactly the committed reports;
# TestSiteWalkMatchesPerChainWalks: the per-site prefix walk gives every
# chain of every corpus and stress site the paths and truncation flag it
# gets walked alone, and every site of a method walked through shared
# chain tops what its own walk gives it; TestForkedFramesKeepWritesPrivate: a write under one
# branch of a copy-on-write fork never reaches the sibling branch or a
# shared seed), the cold-assert tests by name (TestParseAllocs: a 50 KB
# source parses in under 28 bytes per source byte, with no token slice;
# TestSharedSeedPrefixCheckedOnce: a seed two chains share is asked its
# prefix query once; TestReopeningSuiteMatchesAnalysisMethods: with a
# suite that reopens a system class, sites are matched over the analysis
# program and render their chains), the site-unit tests by name
# (TestSharedTopPrefixCheckedOnce: a chain top two sites of one method
# share is asked its prefix query once; TestUndecidedTopAskedAgain: a top
# a solver-node ceiling left undecided is asked again by the next site;
# TestSharedTopsKeepChainTruncation: a chain cut at the walker's state
# bound stays cut for every site of the method;
# TestFailedSiteJobDropsChainTops: a site job whose deadline cut its
# caller walk short empties its unit's chain tops, so the next site walks
# afresh; TestSiteUnitFaultsRenderLikeParent: sequential and scheduled
# runs (widths 1, 2 and 8) of a system of two-site units render the bytes
# the engine rendered before units under a panic at a unit's first site
# job or in the walk of its method, and the job panic, which fires before
# any walk, leaves the second site its clean paths (it checks render
# identity; no armed fault there leaves a filled holder behind a failed
# job, so the emptying is pinned by TestFailedSiteJobDropsChainTops);
# TestNoChainTopOutlivesItsUnit: no chain top is reachable from the report,
# the fingerprint cache or the site-plan memo after a scheduled assert; ten
# race-detector rounds of the last two, whose waves of two-site units
# spread over two goroutines; TestQueryTopKMatchesStableSort: the top-k
# buffer of a test-selection query returns exactly a stable sort's first
# k, ties included), the known-constant binding test by name
# (TestKnownConstantOperandBindsItsPath: a slot operand whose value the
# frame knows binds to its path, so a replayed hit that passes a constant
# is attributed and a local constant decides a static path), the
# positioned predicate-error test by name (TestParseErrorsArePositioned:
# each predicate syntax error is an smt.ParseError at its token, with the
# text the formatted errors had), the single-flight test by name (ten
# race-detector rounds of TestSingleflightSolvesEachQueryOnce: four askers
# started one after another ask the same 20,000 fresh queries, and each query
# is solved once, with a one-asker run's node count), the atom-key table test by name (TestAtomKeyTable: solver
# keys built by concatenation equal the fmt rendering they replaced),
# the solver-search golden by name (TestSearchGolden: over the
# differential tests' formulas and the hot-path query mix, the verdict,
# node count and witness of each solve equal internal/smt/testdata/search.golden,
# so a change to how the solver names propositions cannot move the
# decision order), the render-key tests by name (TestAndRenderIsNewAndRender:
# a conjunction's render joined from its conjuncts' renders equals the
# built conjunction's render; TestComponentKeyIsItsRender: a fork's
# component query over a disjunction carries its render as its key;
# TestComponentConflictInOneCell: a component whose one conjunction cell
# holds a literal in both polarities still goes to the solver;
# TestWalkerKeysAreRenders: every walker query over every corpus version
# and the stress system, on a default, a NoPrune and an IntraOnly engine
# with no solver cache, carries its formula's render as its key, and every
# path's key equals the key rebuilt from its condition), the branch-memo
# test by name (TestGuardInTwoVocabularies: guards a walk reaches in two
# vocabularies are translated in each, so the paths are those of a walk
# that shares no cell),
# the registry tests by name (TestRegistryGolden: every corpus case's
# registry record equals the committed golden; TestRegistryVersionIsGoldenHash:
# registryVersion, which every record key carries, is that golden's hash;
# TestRegistryRestoreEqualsInferred: every case's record restores to a
# registry deeply equal to the inferred one; TestRegistryRecordMisses: a
# corrupt, unparsable, miscounted or other-version record infers again and
# the next cold server restores; TestArmedPlanWritesNoRegistry: nothing is
# written under an armed plan, store-scoped or not;
# TestServerRestartWarmFromStore: a restarted daemon restores its registry
# with one disk hit and no inference), the v1 fingerprint-record test by
# name (TestSiteAndReplayV1RecordsAreMisses: a site or replay record
# written before inherited guards were marked once is a miss, and so is
# one written before known-constant operands bound their paths),
# the binary AST codec fuzz suite by name (round-trip byte-identity over
# the corpus and seeded mutants; truncated/bit-flipped/version-skewed
# frames must be rejected), the daemon smoke test by name (start a real
# listener, one gate round trip, clean drain), the cold-process-on-warm-
# store smoke (two CLI invocations sharing a store directory: the second
# must serve its jobs from the disk tier AND restore its system snapshot
# through the parse-free decode path — its system+tests program is linked,
# never stored; a third, after garbage is appended to the
# log, must truncate it back and print the same report), the store-open
# allocation guard by name and one iteration of the store-open benchmark
# (so it keeps building and running), the warm-gate allocation guard by
# name (TestWarmGateAllocs: a re-gated change memoizes its test index,
# site plans and diff, so it stays under 400 allocations), the
# snapshot-record corruption round by name (a damaged snap.v2 record must
# degrade to a recompute miss through the codec checks, never a wrong
# result), ten seconds each of the six native fuzz targets below, each
# with the minimization of a new input bounded to 100 executions (the
# default, 60 s, let one multi-KB input's minimization take the rest of a
# 10 s budget; a failing input is still reported and saved): of the
# binary AST codec, which a
# snap.v2 record is (FuzzDecodeProgram: the decoder never panics, and any
# frame it accepts re-encodes to bytes that decode to a program with the
# same canonical render), of the predicate
# parse/render round trip (FuzzPredicateRoundTrip: any predicate the parser
# accepts renders to text that parses back to the same render, and every
# rejection carries a position), of the spec round trip, which a registry record
# is (FuzzSpecRoundTrip: any spec ParseSpec accepts formats to a spec that
# parses back to the same rules and formats to the same bytes, and every
# rejection is a contract.ParseError carrying its line), of the solver against its reference
# (FuzzSolverMatchesReference: for any parsed predicate of at most 12
# atoms, SATLim with no cache, SATLim through a fresh cache asked twice,
# the second a memory hit, and ReferenceSolve agree), of the MiniJ parse/render round trip (FuzzParseRoundTrip:
# Parse never panics, fails with the lexer's own error on any source the
# lexer rejects, and an accepted program's render parses back to the same
# render), of the store's frame parser
# (FuzzParseFrame: parseFrame never panics, and an accepted frame's key
# and value lie inside it and re-encode to the same bytes), one
# iteration of the snapshot-reuse benchmark (BenchmarkSnapshotReuse: its
# compile, restore and graph-build counter assertions fail the run), the
# crash-recovery campaign by name (seeded kill points
# in the store's write path, plus the daemon cold-gate byte-identity
# rounds), the one-request-path tests by name (lisa gate and assert print
# the same stdout and exit code in process, against a fresh daemon with
# -remote and failing over from a dead one; an empty -source or -change
# file fails on every path; a per-request budget degrades its own gate and
# assert and leaves the next request rendering like a local sequential
# run), the remote-failover smoke (a dead daemon must fall back to
# local execution with byte-identical stdout, and report distinct exit
# codes with failover off), the perf-regression gate against
# the committed counter baseline, and a smoke run of the fault-injection
# matrix. ROADMAP.md points here.
set -ex
go build ./...
go test ./...
go vet ./...
(cd bench && go vet ./...)
test -z "$(gofmt -l .)"
go test -race ./internal/sched/... ./internal/program/... ./internal/lru/... ./internal/faultinject/... ./internal/smt/... ./internal/concolic/... ./internal/server/... ./internal/store/...
go test -race -count=10 -run 'TestBoundedFingerprintCacheStaysWarm|TestWaveWidthDoesNotChangeReport' ./internal/sched
go test -run 'TestBudgetStarvedVerdictNotCached|TestBudgetLengthenedPathsNotServed|TestBudgetCutConfirmationNotCached' -count=1 ./internal/sched
go test -race -count=10 -run TestCrossEngineGatesShareSnapshots ./internal/ci
go test -race -count=10 -run TestStatsDuringFirstGates ./internal/server
go test -run 'TestCorpusReportsGolden' -count=1 ./internal/core
go test -run 'TestControlByteGuardRestoresFromStore' -count=1 ./internal/sched
go test -run 'TestLinkedEqualsConcatenated' -count=1 ./internal/core
go test -run 'TestLinkFaultSparesSystem' -count=1 ./internal/program
go test -race -count=10 -run TestConcurrentLinks ./internal/core
go test -run 'TestOperatorTextOwnsItsBytes' -count=1 ./internal/minij
go test -run 'TestFingerprintCacheHoldsNoAST|TestStructuralHitRendersCurrentPositions' -count=1 ./internal/sched
go test -run 'TestStressReportGolden|TestSiteWalkMatchesPerChainWalks' -count=1 ./internal/experiments
go test -run 'TestForkedFramesKeepWritesPrivate' -count=1 ./internal/concolic
go test -run 'TestParseAllocs' -count=1 ./internal/minij
go test -run 'TestSharedSeedPrefixCheckedOnce' -count=1 ./internal/concolic
go test -run 'TestSharedTopPrefixCheckedOnce|TestUndecidedTopAskedAgain|TestSharedTopsKeepChainTruncation' -count=1 ./internal/concolic
go test -run 'TestFailedSiteJobDropsChainTops' -count=1 ./internal/core
go test -race -count=10 -run 'TestSiteUnitFaultsRenderLikeParent|TestNoChainTopOutlivesItsUnit' ./internal/sched
go test -run 'TestQueryTopKMatchesStableSort' -count=1 ./internal/embedding
go test -run 'TestReopeningSuiteMatchesAnalysisMethods|TestKnownConstantOperandBindsItsPath' -count=1 ./internal/core
go test -run 'TestParseErrorsArePositioned' -count=1 ./internal/smt
go test -race -count=10 -run TestSingleflightSolvesEachQueryOnce ./internal/smt
go test -run 'TestAtomKeyTable' -count=1 ./internal/smt
go test -run 'TestSearchGolden|TestAndRenderIsNewAndRender' -count=1 ./internal/smt
go test -run 'TestComponentKeyIsItsRender|TestComponentConflictInOneCell|TestGuardInTwoVocabularies' -count=1 ./internal/concolic
go test -run 'TestWalkerKeysAreRenders' -count=1 ./internal/experiments
go test -run 'TestRegistryGolden|TestRegistryVersionIsGoldenHash|TestRegistryRestoreEqualsInferred|TestRegistryRecordMisses|TestArmedPlanWritesNoRegistry|TestServerRestartWarmFromStore' -count=1 ./internal/server
go test -run 'TestSiteAndReplayV1RecordsAreMisses' -count=1 ./internal/sched
go test -run 'TestCodec' -count=1 ./internal/minij
go test -run TestServerSmoke -count=1 ./internal/server
STORE_SMOKE=$(mktemp -d)
go run ./cmd/lisa assert -case zk-ephemeral -tests -store "$STORE_SMOKE/store" > /dev/null
go run ./cmd/lisa assert -case zk-ephemeral -tests -store "$STORE_SMOKE/store" > "$STORE_SMOKE/warm.out"
grep "served from the disk tier" "$STORE_SMOKE/warm.out"
grep "restored from the store (1 decoded, 0 deep-verified)" "$STORE_SMOKE/warm.out"
LOG_SIZE=$(wc -c < "$STORE_SMOKE/store/store.log")
printf 'torn tail: no frame here' >> "$STORE_SMOKE/store/store.log"
go run ./cmd/lisa assert -case zk-ephemeral -tests -store "$STORE_SMOKE/store" > "$STORE_SMOKE/torn.out"
cmp "$STORE_SMOKE/warm.out" "$STORE_SMOKE/torn.out"
test "$(wc -c < "$STORE_SMOKE/store/store.log")" -eq "$LOG_SIZE"
rm -rf "$STORE_SMOKE"
go test -run 'TestOpenAllocs' -count=1 ./internal/store
go test -run 'TestWarmGateAllocs' -count=1 ./internal/ci
go test -run '^$' -bench StoreOpen -benchtime 1x ./internal/store
go test -run 'TestCorruptASTDegradesToMiss|TestStoreReadCorruptionDegradesToMiss' -count=1 ./internal/program
go test -run '^$' -fuzz '^FuzzDecodeProgram$' -fuzztime 10s -fuzzminimizetime 100x ./internal/minij
go test -run '^$' -fuzz '^FuzzPredicateRoundTrip$' -fuzztime 10s -fuzzminimizetime 100x ./internal/smt
go test -run '^$' -fuzz '^FuzzSpecRoundTrip$' -fuzztime 10s -fuzzminimizetime 100x ./internal/contract
go test -run '^$' -fuzz '^FuzzSolverMatchesReference$' -fuzztime 10s -fuzzminimizetime 100x ./internal/smt
go test -run '^$' -fuzz '^FuzzParseRoundTrip$' -fuzztime 10s -fuzzminimizetime 100x ./internal/minij
go test -run '^$' -fuzz '^FuzzParseFrame$' -fuzztime 10s -fuzzminimizetime 100x ./internal/store
go test -run '^$' -bench SnapshotReuse -benchtime 1x .
go test -run 'TestStoreCrashRecoveryCampaign' -count=1 ./internal/store
go test -run 'TestGateByteIdentityAfterCrash' -count=1 ./internal/server
go test -run 'TestRemoteFailoverLocalPrintTheSame|TestEmptySourceFileRejected' -count=1 ./cmd/lisa
go test -run 'TestPerRequestBudget' -count=1 ./internal/server
FO_SMOKE=$(mktemp -d)
go build -o "$FO_SMOKE/lisa" ./cmd/lisa
"$FO_SMOKE/lisa" assert -case zk-ephemeral > "$FO_SMOKE/local.out"
"$FO_SMOKE/lisa" assert -case zk-ephemeral -remote http://127.0.0.1:1 -remote-retries 1 > "$FO_SMOKE/failover.out" 2> /dev/null
cmp "$FO_SMOKE/local.out" "$FO_SMOKE/failover.out"
rc=0
"$FO_SMOKE/lisa" assert -case zk-ephemeral -remote http://127.0.0.1:1 -remote-retries 0 -remote-failover=false > /dev/null 2>&1 || rc=$?
test "$rc" -eq 4
rm -rf "$FO_SMOKE"
go run ./cmd/lisabench -diff BENCH_12.json
go run ./cmd/lisabench -exp chaos -seed 1
