# Shared by gateway-smoke.sh and loadgen-smoke.sh, which source it from
# the repository root after setting $period (the gossip period) and
# $gateway (the JSON body of the gateway section). It makes a scratch
# directory $tmp that is removed on exit together with every psnode it
# started, builds psnode into it, and boots loopback tcp members from
# generated config files alone: member n lives in $tmp/node<n>.

tmp=$(mktemp -d)
pids=""
cleanup() {
    for pid in $pids; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/psnode" ./cmd/psnode

write_config() {
    # write_config <dir> <contact-or-empty>
    contacts="[]"
    if [ -n "$2" ]; then
        contacts="[\"$2\"]"
    fi
    cat >"$1/config.json" <<EOF
{
  "version": 1,
  "node": {
    "listen": "127.0.0.1:0",
    "contacts": $contacts,
    "view_size": 8,
    "period": "$period"
  },
  "transport": { "backend": "tcp" },
  "control": {
    "addr": "127.0.0.1:0",
    "ready_file": "$1/ready.json"
  },
  "gateway": $gateway
}
EOF
}

boot() {
    # boot <dir>; waits for the ready file
    "$tmp/psnode" -config "$1/config.json" >"$1/psnode.log" 2>&1 &
    pids="$pids $!"
    i=0
    while [ ! -f "$1/ready.json" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "member in $1 never became ready:" >&2
            cat "$1/psnode.log" >&2
            exit 1
        fi
        sleep 0.1
    done
}

start_member() {
    # start_member <n> <contact-or-empty>
    mkdir "$tmp/node$1"
    write_config "$tmp/node$1" "$2"
    boot "$tmp/node$1"
}

# Member 0 is the contact: boot it first, then bootstrap the others from
# its discovered gossip address.
start_member 0 ""
contact=$(sed -n 's/.*"addr":"\([^"]*\)".*/\1/p' "$tmp/node0/ready.json")
