#!/usr/bin/env bash
# Builds the ftpn benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload campaign|topo|forensics|all \
#       --seed N --seconds S --trace 0|1 [--workers W]
#
# Everything the build and the run leave behind (Go build cache, the
# binary, span and profile files) goes under .bench_build/ at the root
# of the checkout. The script needs the repository's go.mod one level
# up; without it the build fails and no result is printed.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: $root holds no ftpn sources to build" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# The go command writes its build cache, temporary files and telemetry
# counters under these; keep all of them inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

workload=""
args=()
while [[ $# -gt 0 ]]; do
	if [[ "$1" == "--workload" && $# -gt 1 ]]; then
		workload="$2"
		shift 2
	else
		args+=("$1")
		shift
	fi
done

if [[ "$workload" == "all" ]]; then
	for w in campaign topo forensics; do
		"$out/perfbench" --out "$out" --workload "$w" "${args[@]}"
	done
	exit 0
fi
exec "$out/perfbench" --out "$out" --workload "$workload" "${args[@]}"
