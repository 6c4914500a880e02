#!/bin/sh
# Full verify: tier-1 (build + all tests), vet, gofmt (any unformatted
# file fails), the race-detector suites for the packages with concurrency
# (scheduler worker pool, snapshot cache, solver result cache, the shared
# LRU under them, prefix-pruning walker, fault injector, the on-disk store
# with its goroutine hammer, and the serve daemon with its request hammer
# and admission control), the bounded fingerprint cache test by name
# (ten race-detector rounds of a capped cache gating a stream of edits:
# the cap holds, entries evict, reports and executed-job counts match),
# the binary AST codec fuzz suite by name (round-trip byte-identity over
# the corpus and seeded mutants; truncated/bit-flipped/version-skewed
# frames must be rejected), the daemon smoke test by name (start a real
# listener, one gate round trip, clean drain), the cold-process-on-warm-
# store smoke (two CLI invocations sharing a store directory: the second
# must serve its jobs from the disk tier AND restore its snapshots through
# the parse-free decode path; a third, after garbage is appended to the
# log, must truncate it back and print the same report), the store-open
# allocation guard by name and one iteration of the store-open benchmark
# (so it keeps building and running), the
# snapshot-record corruption round by name (a damaged snap.v2 record must
# degrade to a recompute miss through the digest/codec checks, never a
# wrong result), the crash-recovery campaign by name (seeded kill points
# in the store's write path, plus the daemon cold-gate byte-identity
# rounds), the remote-failover smoke (a dead daemon must fall back to
# local execution with byte-identical stdout, and report distinct exit
# codes with failover off), the perf-regression gate against
# the committed counter baseline, and a smoke run of the fault-injection
# matrix. ROADMAP.md points here.
set -ex
go build ./...
go test ./...
go vet ./...
test -z "$(gofmt -l .)"
go test -race ./internal/sched/... ./internal/program/... ./internal/lru/... ./internal/faultinject/... ./internal/smt/... ./internal/concolic/... ./internal/server/... ./internal/store/...
go test -race -count=10 -run TestBoundedFingerprintCacheStaysWarm ./internal/sched
go test -run 'TestCodec' -count=1 ./internal/minij
go test -run TestServerSmoke -count=1 ./internal/server
STORE_SMOKE=$(mktemp -d)
go run ./cmd/lisa assert -case zk-ephemeral -tests -store "$STORE_SMOKE/store" > /dev/null
go run ./cmd/lisa assert -case zk-ephemeral -tests -store "$STORE_SMOKE/store" > "$STORE_SMOKE/warm.out"
grep "served from the disk tier" "$STORE_SMOKE/warm.out"
grep "restored from the store (2 decoded, 0 deep-verified)" "$STORE_SMOKE/warm.out"
LOG_SIZE=$(wc -c < "$STORE_SMOKE/store/store.log")
printf 'torn tail: no frame here' >> "$STORE_SMOKE/store/store.log"
go run ./cmd/lisa assert -case zk-ephemeral -tests -store "$STORE_SMOKE/store" > "$STORE_SMOKE/torn.out"
cmp "$STORE_SMOKE/warm.out" "$STORE_SMOKE/torn.out"
test "$(wc -c < "$STORE_SMOKE/store/store.log")" -eq "$LOG_SIZE"
rm -rf "$STORE_SMOKE"
go test -run 'TestOpenAllocs' -count=1 ./internal/store
go test -run '^$' -bench StoreOpen -benchtime 1x ./internal/store
go test -run 'TestCorruptASTDegradesToMiss|TestStoreReadCorruptionDegradesToMiss' -count=1 ./internal/program
go test -run 'TestStoreCrashRecoveryCampaign' -count=1 ./internal/store
go test -run 'TestGateByteIdentityAfterCrash' -count=1 ./internal/server
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
