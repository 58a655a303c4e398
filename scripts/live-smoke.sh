#!/bin/sh
# Smoke-test the live experiments end to end on the subprocess fleet
# driver: build psnode and experiments once, then run bootstrap,
# livechurn, partitionheal, livebroadcast, liveaggregate and livegateway
# against real forked psnode processes driven through their control
# agents. experiments exits non-zero when any of them fails or does not
# converge, so the verdicts need no grep. What this script checks on top
# is the observation path: the experiments' own long-form CSVs, and the
# periodic metrics dump scraped through the remote metrics source across
# the process boundary. Run from the repository root.
set -eu

tmp=$(mktemp -d)
cleanup() { rm -rf "$tmp"; }
trap cleanup EXIT INT TERM

go build -o "$tmp/psnode" ./cmd/psnode
go build -o "$tmp/experiments" ./cmd/experiments

"$tmp/experiments" -run bootstrap,livechurn,partitionheal,livebroadcast,liveaggregate,livegateway \
    -driver subprocess -psnode "$tmp/psnode" -csv "$tmp/csv" \
    -metrics-csv "$tmp/metrics.csv" >"$tmp/out" 2>&1 || {
    echo "live experiments failed:" >&2
    cat "$tmp/out" >&2
    exit 1
}

# need <file> <pattern>...: every pattern must match a line of file.
need() {
    file=$1
    shift
    for want in "$@"; do
        if ! grep -q -- "$want" "$file"; then
            echo "$file missing pattern \"$want\":" >&2
            head -n 20 "$file" >&2
            exit 1
        fi
    done
}

# The reports name the driver and the chaos plans they replayed.
need "$tmp/out" "subprocess driver" "plan=churn-waves" "plan=partition-heal"

# The remote source lands fleet members in the same long-form schema as
# in-process runs — node counters, wire counters, latency quantiles —
# and carries the workload engines' counters next to them.
need "$tmp/metrics.csv" "^node,cycle,metric,value$" ",wire_dials," ",exchange_latency_p99," \
    ",app_rounds," ",app_infected," ",app_value,"

# The experiments' own series: the chaos timeline aligned with the
# freshness trace, per-node infection and fleet coverage, per-node
# estimates with fleet variance and size estimates, and the load
# generator's latency quantiles per ramp stage.
need "$tmp/csv/partitionheal_trace.csv" "^source,cycle,metric,value$" \
    ",chaos_event," ",chaos_event_partition," ",chaos_event_expire," ",chaos_active_rules," ",fresh_pairs,"
need "$tmp/csv/livebroadcast_spread.csv" "^node,cycle,metric,value$" ",infected," ",coverage,"
need "$tmp/csv/liveaggregate_decay.csv" ",value," ",variance," ",size_estimate,"
need "$tmp/csv/livegateway_load.csv" ",load_latency_p99,"

echo "live smoke OK: six live experiments converged on the subprocess driver," \
    "$(grep -c ',chaos_event,' "$tmp/csv/partitionheal_trace.csv") chaos events exported," \
    "$(wc -l <"$tmp/metrics.csv") scraped rows"
