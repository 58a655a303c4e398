#!/bin/sh
# Smoke-test the multi-process fleet harness end to end: build psnode and
# experiments, run the live bootstrap scenario with the subprocess driver
# (real forked psnode processes, driven through their control agents) and
# check the converged summary plus the long-form CSV scraped through the
# remote metrics source. This is the guard that keeps the fleet path from
# rotting: CI fails the moment psnode stops serving the agent contract or
# the driver stops converging. Churn under the same driver is
# chaos-smoke.sh's job. Run from the repository root.
set -eu

tmp=$(mktemp -d)
cleanup() {
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/psnode" ./cmd/psnode
go build -o "$tmp/experiments" ./cmd/experiments

"$tmp/experiments" -run bootstrap -driver subprocess \
    -psnode "$tmp/psnode" -metrics-csv "$tmp/fleet.csv" >"$tmp/out" 2>&1 || {
    echo "fleet experiment failed:" >&2
    cat "$tmp/out" >&2
    exit 1
}

for want in "converged: true" "subprocess driver"; do
    if ! grep -q "$want" "$tmp/out"; then
        echo "fleet summary missing \"$want\":" >&2
        cat "$tmp/out" >&2
        exit 1
    fi
done

# The remote source must land fleet members in the same long-form schema
# as in-process runs: spot-check the header, a wire counter and a latency
# quantile column.
for want in "^node,cycle,metric,value$" ",wire_dials," ",exchange_latency_p99,"; do
    if ! grep -q "$want" "$tmp/fleet.csv"; then
        echo "fleet CSV missing pattern \"$want\":" >&2
        head -n 20 "$tmp/fleet.csv" >&2
        exit 1
    fi
done

echo "fleet smoke OK: bootstrap converged, $(wc -l < "$tmp/fleet.csv") CSV rows"
