#!/bin/sh
# Smoke-test the config-driven daemon and its light-client gateway end to
# end: boot a 6-node psnode fleet from generated config files alone (no
# flags), wait for gossip to converge enough that the gateway cache is
# warm, then drive the public surface with curl — GET /v1/sample?n=5 must
# return 5 distinct live peer addresses, /healthz must report the daemon
# plugin aggregate, and a request burst past the configured rate limit
# must come back 429. Run from the repository root.
set -eu

period=100ms
gateway='{
    "addr": "127.0.0.1:0",
    "batch_size": 8,
    "refresh": "100ms",
    "rate_rps": 5,
    "burst": 10
  }'
. ./scripts/smoke-lib.sh

for n in 1 2 3 4 5; do
    start_member "$n" "$contact"
done

# Discover node5's gateway address through its control agent: the
# aggregated /healthz carries each plugin's bound address as "detail".
control=$(sed -n 's/.*"control_addr":"\([^"]*\)".*/\1/p' "$tmp/node5/ready.json")
gateway=$(curl -sf "http://$control/healthz" | tr ',{' '\n\n' |
    grep -A2 '"gateway"' | sed -n 's/.*"detail":"\([^"]*\)".*/\1/p' | head -n 1)
if [ -z "$gateway" ]; then
    echo "could not discover node5's gateway address" >&2
    curl -sf "http://$control/healthz" >&2 || true
    exit 1
fi

# The gateway cache fills from gossip; poll until a 5-peer sample works.
i=0
while true; do
    i=$((i + 1))
    sample=$(curl -s "http://$gateway/v1/sample?n=5" || true)
    count=$(printf '%s' "$sample" | tr ',' '\n' | grep -c '127.0.0.1:' || true)
    if [ "$count" -eq 5 ]; then
        break
    fi
    if [ "$i" -gt 100 ]; then
        echo "gateway never served 5 peers; last response: $sample" >&2
        cat "$tmp/node5/psnode.log" >&2
        exit 1
    fi
    sleep 0.1
done

# The 5 peers must be distinct live members of the fleet.
distinct=$(printf '%s' "$sample" | tr ',[]"' '\n\n\n\n' | grep '^127.0.0.1:' | sort -u | wc -l)
if [ "$distinct" -ne 5 ]; then
    echo "sample peers not distinct: $sample" >&2
    exit 1
fi

# The gateway's /healthz aggregates the daemon plugin report.
health=$(curl -sf "http://$gateway/healthz")
for want in '"status":"ok"' '"daemon"' '"gateway"' '"running"'; do
    case "$health" in
    *"$want"*) ;;
    *)
        echo "gateway healthz missing $want: $health" >&2
        exit 1
        ;;
    esac
done

# Burst past the limit (burst=10): some request among 30 back-to-back
# must be refused with 429.
saw429=0
for _ in $(seq 30); do
    code=$(curl -s -o /dev/null -w '%{http_code}' "http://$gateway/v1/sample")
    if [ "$code" = "429" ]; then
        saw429=1
        break
    fi
done
if [ "$saw429" -ne 1 ]; then
    echo "burst of 30 requests never hit the rate limit" >&2
    exit 1
fi

echo "gateway smoke OK: 5 distinct peers served, healthz aggregated, burst rate-limited"
