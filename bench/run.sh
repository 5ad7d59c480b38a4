#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the checkout's root. Everything the build writes
# (binary, Go build cache, temporary files) stays under $CARGO_TARGET_DIR,
# default .bench_build/, inside the checkout. Build output goes to stderr,
# so the benchmark's result is still the last line of stdout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/bench" && go build -o "$out/bench" .) >&2
cd "$root"
# Run the benchmark as a child, not with exec: an exec'd process inherits
# its parent's peak resident set, which would floor peak_rss_mb.
"$out/bench" "$@" &
pid=$!
trap 'kill -TERM "$pid" 2>/dev/null; wait "$pid"; exit 143' INT TERM
wait "$pid"
