#!/usr/bin/env bash
# Builds provserve and the perfbench driver from the checkout in the
# current directory, then runs the driver with the given arguments:
#
#   bash perfbench/run.sh --workload masked-read --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --seed 1
#   bash perfbench/run.sh compare PARENT_DIR CHANGE_DIR
#
# Builds, the Go build cache and run data stay under .bench_build/.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/provserve || ! -d internal ]]; then
	echo "perfbench: run from the root of a provpriv checkout" >&2
	exit 2
fi
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/bin" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
go build -o "$out/bin/provserve" ./cmd/provserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
if [[ "${1:-}" == compare ]]; then
	exec "$out/bin/perfbench" "$@"
fi
exec "$out/bin/perfbench" -provserve "$out/bin/provserve" -work "$out/work" "$@"
