#!/usr/bin/env bash
# Builds the lisa CLI and the gate benchmark from the source in the
# current directory, which must be the repository root, and runs the
# benchmark with the given arguments:
#
#   bash bench/run.sh --workload daemon-warm --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (binaries, the Go build cache,
# stores, change files, the trace of a -trace 1 run) goes under
# .bench_build/ in the repository root.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/lisa || ! -f bench/go.mod ]]; then
	echo "run.sh: run from the root of a lisa source tree (go.mod, cmd/lisa and bench/ not all found)" >&2
	exit 2
fi
out=$PWD/.bench_build
mkdir -p "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
# With telemetry on, the go command starts a detached helper process that
# can outlive the build; turn it off for this private config directory.
go telemetry off
go build -o "$out/lisa" ./cmd/lisa
(cd bench && go build -o "$out/lisa-bench" .)
exec "$out/lisa-bench" -lisa "$out/lisa" -trace-out "$out/trace.json" "$@"
