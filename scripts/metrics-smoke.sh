#!/bin/sh
# Smoke-test the live observability path end to end: build psnode, start
# it with /metrics on an ephemeral port and a CSV dump, scrape the
# endpoint and check that a known protocol counter and a known wire
# counter are exported, then stop psnode and check the same quantities
# in the dump file and the report log. This is the guard that keeps all
# three renderings from rotting silently: CI fails the moment psnode
# stops producing what the docs promise. Run from the repository root.
set -eu

tmp=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/psnode" ./cmd/psnode

"$tmp/psnode" -listen 127.0.0.1:0 -period 100ms -report 500ms \
    -metrics-addr 127.0.0.1:0 -metrics-csv "$tmp/dump.csv" >"$tmp/log" 2>&1 &
pid=$!

# psnode logs the bound metrics address; wait for it to appear.
addr=""
i=0
while [ "$i" -lt 50 ]; do
    addr=$(sed -n 's|.*serving http://\([^/]*\)/metrics.*|\1|p' "$tmp/log" | head -n 1)
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "psnode exited early:" >&2; cat "$tmp/log" >&2; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$addr" ]; then
    echo "metrics address never appeared in the log:" >&2
    cat "$tmp/log" >&2
    exit 1
fi

if command -v curl >/dev/null 2>&1; then
    body=$(curl -fsS "http://$addr/metrics")
else
    body=$(wget -qO- "http://$addr/metrics")
fi

for family in peersampling_cycles_total peersampling_view_size \
    peersampling_transport_dials_total peersampling_transport_keepalive_evictions_total; do
    if ! printf '%s\n' "$body" | grep -q "^$family{"; then
        echo "family $family missing from /metrics:" >&2
        printf '%s\n' "$body" >&2
        exit 1
    fi
done

# Stop psnode: the dumper writes its final round on shutdown, and by now
# the reporter has logged at least once.
sleep 1
kill -INT "$pid"
wait "$pid" || true
pid=""

for row in ,cycles, ,wire_dials,; do
    if ! grep -q -- "$row" "$tmp/dump.csv"; then
        echo "no $row rows in the dump:" >&2
        cat "$tmp/dump.csv" >&2
        exit 1
    fi
done
if ! grep -q "cycles=" "$tmp/log"; then
    echo "no cycles= report line in the log:" >&2
    cat "$tmp/log" >&2
    exit 1
fi

echo "metrics smoke OK: scraped $addr, dump and report log checked"
