#!/usr/bin/env bash
# Builds the end-to-end benchmark driver and runs it against the Kepler
# checkout in the current directory:
#
#   bash e2ebench/run.sh --workload ingest|backfill|serve --seed N \
#        --seconds S --trace 0|1
#
# Everything it builds, generates and writes stays under .bench_build/.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/kbench/bin/kbench" ./cmd/kbench)
exec "$out/kbench/bin/kbench" -root "$root" "$@"
