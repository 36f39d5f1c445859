#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout, then runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build outputs and the Go build cache go to $CARGO_TARGET_DIR (default
# .bench_build) under the checkout root, so nothing is written outside it.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOTOOLCHAIN=local GOENV=off GOPROXY=off GOSUMDB=off GOFLAGS=
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

if [ -e "$root/.git" ] && commit=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	export PERFBENCH_COMMIT="$commit"
else
	# Not a git checkout: name the revision by a digest of its sources.
	digest=$(cd "$root" && find go.mod internal cmd perfbench -name '*.go' -o -name go.mod |
		LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)
	export PERFBENCH_COMMIT="source-sha256:$digest"
fi

exec "$out/perfbench" "$@"
