#!/usr/bin/env bash
# Builds the campaign benchmark from the sources of the checkout it sits in,
# then runs it with the given arguments. Run it from the repository root:
#
#   bash campaignbench/run.sh --workload campaign_default --seed 2022 --seconds 10 --trace 0
#   bash campaignbench/run.sh ab -a ../parent -b . --workload paper_slice -n 10
#
# Everything it writes (Go build cache, binary, artifact stores, traces) stays
# under .bench_build/ in the checkout; no network or module download is used.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/campaignbench/go.mod" ]]; then
	echo "campaignbench: run from the root of a checkout (go.mod and campaignbench/ not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOSUMDB=off GOWORK=off GOTOOLCHAIN=local
(cd "$root/campaignbench" && go build -trimpath -o "$out/bin/campaignbench" .)
exec "$out/bin/campaignbench" "$@"
