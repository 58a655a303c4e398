#!/bin/sh
# Smoke-test the load-generation harness end to end: boot a 4-node psnode
# fleet with gateways enabled, point psload at every gateway with a few
# hundred spoofed clients, and require a clean run — successful samples,
# zero transport errors, zero non-limit failures, and long-form CSV rows
# with latency quantiles. The livegateway experiment's subprocess run is
# live-smoke.sh's job. Run from the repository root.
set -eu

# trust_proxy_header lets psload's -spoof-clients emulate distinct
# clients through one loopback socket; the per-client limit is set high
# enough that a clean run sees no 429s.
period=50ms
gateway='{
    "addr": "127.0.0.1:0",
    "refresh": "100ms",
    "rate_rps": 200,
    "burst": 400,
    "trust_proxy_header": true
  }'
. ./scripts/smoke-lib.sh
go build -o "$tmp/psload" ./cmd/psload

targets=""
for n in 0 1 2 3; do
    if [ "$n" -gt 0 ]; then
        start_member "$n" "$contact"
    fi
    # The daemon reports its bound gateway address in the ready file.
    gw=$(sed -n 's/.*"gateway_addr":"\([^"]*\)".*/\1/p' "$tmp/node$n/ready.json")
    if [ -z "$gw" ]; then
        echo "node$n ready file carries no gateway_addr:" >&2
        cat "$tmp/node$n/ready.json" >&2
        exit 1
    fi
    targets="$targets,$gw"
done
targets=${targets#,}

# The gateway caches fill from gossip; poll until the first one serves.
first=${targets%%,*}
i=0
until curl -sf "http://$first/v1/sample" >/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "gateway $first never served a sample" >&2
        cat "$tmp/node0/psnode.log" >&2
        exit 1
    fi
    sleep 0.1
done

# A few hundred spoofed clients across all four gateways: the run must
# finish with successes on every target and no errors of any kind.
"$tmp/psload" -targets "$targets" -clients 300 -rps 5 -duration 2s \
    -n 3 -spoof-clients -csv "$tmp/load.csv" | tee "$tmp/load.out"

total=$(awk '$1 == "total"' "$tmp/load.out")
if [ -z "$total" ]; then
    echo "psload output has no total row" >&2
    exit 1
fi
ok=$(printf '%s' "$total" | awk '{print $2}')
errors=$(printf '%s' "$total" | awk '{print $6}')
bad=$(printf '%s' "$total" | awk '{print $5}')
if [ "$ok" -eq 0 ] || [ "$errors" -ne 0 ] || [ "$bad" -ne 0 ]; then
    echo "load run not clean: ok=$ok errors=$errors bad=$bad" >&2
    exit 1
fi

# The CSV artifact must carry the long-form schema with quantile rows
# for every target plus the total aggregate.
if [ "$(head -n 1 "$tmp/load.csv")" != "target,cycle,metric,value" ]; then
    echo "load.csv header wrong: $(head -n 1 "$tmp/load.csv")" >&2
    exit 1
fi
for metric in load_ok load_latency_p50 load_latency_p99 load_freshness_p99; do
    if ! grep -q ",$metric," "$tmp/load.csv"; then
        echo "load.csv missing $metric rows" >&2
        exit 1
    fi
done
p99=$(awk -F, '$1 == "total" && $3 == "load_latency_p99" {print $4}' "$tmp/load.csv")
echo "loadgen smoke OK: ok=$ok errors=0, total p99=${p99}s"
