#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it with the
# given flags. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fleet-warm --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and traced spans go to
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout; nothing
# is fetched and nothing outside the checkout is written.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
