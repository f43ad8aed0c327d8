#!/usr/bin/env bash
# Multi-process fleet smoke test (the replicated-serving CI job).
#
#   scripts/run_fleet_smoke.sh [build_dir] [out_dir]
#
# First checks that pir_node and bench_sharded_fleet refuse malformed
# ports with exit 2. Then runs two scenarios, each on fresh pir_node
# processes listening on ephemeral loopback ports:
#
#   k1r3  3 nodes as one shard of 3 replicas (K=1); SIGKILL replica 1.
#   k2r2  4 nodes as 2 shards x 2 replicas; SIGKILL node 2, the first
#         replica of shard 1 (a shard owner).
#
# Nodes are shard-agnostic: the router assigns each connection's shard at
# kShardHello time, so the same binary serves both topologies. Each
# scenario runs the router smoke (bench_sharded_fleet --connect:
# bit-identity against an in-process reference, exit 1 on any mismatch or
# failed request), then re-runs the load and SIGKILLs the victim mid-run:
# every request must still complete via a sibling replica, and the bench
# JSON (out_dir/fleet_smoke_<scenario>.json) must show a nonzero entry in
# its shard_failovers array.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-${BUILD_DIR}}"
NODE_BIN="${BUILD_DIR}/tools/pir_node"
BENCH_BIN="${BUILD_DIR}/bench/bench_sharded_fleet"
WORK_DIR="$(mktemp -d)"

[ -x "$NODE_BIN" ] || { echo "missing $NODE_BIN (build first)"; exit 2; }
[ -x "$BENCH_BIN" ] || { echo "missing $BENCH_BIN (build first)"; exit 2; }
mkdir -p "$OUT_DIR"

NODE_PIDS=()
cleanup() {
    for pid in "${NODE_PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$WORK_DIR"
}
trap cleanup EXIT

expect_usage_error() { # $@ = command that must exit 2
    local status=0
    timeout 10 "$@" > "$WORK_DIR/usage.log" 2>&1 || status=$?
    if [ "$status" -ne 2 ]; then
        echo "expected exit 2, got $status: $*"; cat "$WORK_DIR/usage.log"
        exit 1
    fi
    echo "exit 2 as expected: $*"
}

echo "== malformed ports are refused =="
expect_usage_error "$NODE_BIN" --port=abc
expect_usage_error "$NODE_BIN" --port=70000
expect_usage_error "$BENCH_BIN" 1 1 --connect='127.0.0.1:1,bogus'

start_node() { # $1 = node index
    "$NODE_BIN" --port=0 --port-file="$WORK_DIR/port$1" \
        > "$WORK_DIR/node$1.log" 2>&1 &
    NODE_PIDS[$1]=$!
}

wait_port_file() { # $1 = node index
    for _ in $(seq 1 100); do
        [ -s "$WORK_DIR/port$1" ] && return 0
        kill -0 "${NODE_PIDS[$1]}" 2>/dev/null \
            || { echo "node $1 died during startup:"; cat "$WORK_DIR/node$1.log"; exit 1; }
        sleep 0.1
    done
    echo "node $1 never wrote its port file"; exit 1
}

run_scenario() { # $1 = name, $2 = shards, $3 = replicas per shard, $4 = victim node
    local name="$1" shards="$2" replicas="$3" victim="$4"
    local nodes=$((shards * replicas))
    local json="$OUT_DIR/fleet_smoke_$name.json"
    rm -f "$WORK_DIR"/port* "$WORK_DIR/ready"

    echo
    echo "== $name: $nodes pir_node processes as $shards shard(s) x $replicas replicas =="
    for i in $(seq 0 $((nodes - 1))); do start_node "$i"; done
    for i in $(seq 0 $((nodes - 1))); do wait_port_file "$i"; done
    # Shards separated by ';', replicas of a shard by ','; node
    # k * replicas + r is replica r of shard k.
    local endpoints="" group
    for k in $(seq 0 $((shards - 1))); do
        group=""
        for r in $(seq 0 $((replicas - 1))); do
            group+="${group:+,}127.0.0.1:$(cat "$WORK_DIR/port$((k * replicas + r))")"
        done
        endpoints+="${endpoints:+;}$group"
    done
    echo "fleet up: $endpoints"

    echo "-- router smoke: bit-identity across the fleet --"
    "$BENCH_BIN" 4 10 --connect="$endpoints" --json="$WORK_DIR/smoke.json"

    echo "-- kill-one: SIGKILL node $victim mid-run --"
    # The bench touches the ready file once 1,000 of its 6 x 1000 lookups
    # have completed, and the SIGKILL follows at once, so it lands mid-run
    # however fast the fleet answers; the victim's shard fails over to a
    # sibling replica and every request completes.
    "$BENCH_BIN" 6 1000 --connect="$endpoints" --json="$json" \
        --ready-file="$WORK_DIR/ready" > "$WORK_DIR/killone.log" 2>&1 &
    local bench_pid=$!
    for _ in $(seq 1 300); do
        [ -e "$WORK_DIR/ready" ] && break
        sleep 0.1
    done
    [ -e "$WORK_DIR/ready" ] || { echo "bench never signalled ready"; exit 1; }
    kill -KILL "${NODE_PIDS[$victim]}"
    echo "killed node $victim (pid ${NODE_PIDS[$victim]})"
    if ! wait "$bench_pid"; then
        echo "kill-one bench FAILED:"; cat "$WORK_DIR/killone.log"; exit 1
    fi
    cat "$WORK_DIR/killone.log"

    # The run must actually have exercised failover: at least one entry of
    # the shard_failovers array must be nonzero.
    python3 - "$json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
rows = [r for r in doc["results"] if "shard_failovers" in r]
if not rows:
    sys.exit("no shard_failovers in bench JSON")
if not any(f > 0 for r in rows for f in r["shard_failovers"]):
    sys.exit("kill-one run recorded zero shard failovers - kill landed too late?")
print("shard_failovers:", [r["shard_failovers"] for r in rows])
EOF

    for pid in "${NODE_PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    NODE_PIDS=()
}

run_scenario k1r3 1 3 1
run_scenario k2r2 2 2 2

echo
echo "== fleet smoke PASSED =="
