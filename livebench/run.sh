#!/usr/bin/env bash
# Builds livebench from this checkout's source and runs it. Run from the
# root of the checkout:
#
#   bash livebench/run.sh --workload udp-small --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, build cache, temporary files, the go
# command's own state) stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/livebench" && go build -o "$out/livebench" .)
exec "$out/livebench" "$@"
