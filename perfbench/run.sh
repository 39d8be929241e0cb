#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every build product and cache stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$root/perfbench"
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
		GOPROXY=off GOTOOLCHAIN=local HOME="$out/home" \
		XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
	go build -o "$out/perfbench" .
) >&2
cd "$root"
exec "$out/perfbench" "$@"
