#!/bin/sh
# End-to-end smoke for the off-loopback cluster engine, all binaries
# race-built: three mstshard worker processes host a 4-shard mesh,
# mstrun -cluster dispatches a run to them and the stats must be
# bit-identical to the in-process engine; a second worker fleet started
# with -chaos-close-after severs mesh sockets mid-run and the healed
# run must still match with reconnects reported; finally mstserved
# -cluster runs a remote job and /metrics must expose the cluster
# transport families with a recorded reconnect. CI runs this on every
# push; locally it is `make smoke-cluster`.
set -eu

PORT_BASE="${MSTSHARD_PORT:-7310}"
SERVED_ADDR="127.0.0.1:${MSTSERVED_PORT:-8357}"
TMP="${TMPDIR:-/tmp}"
MSTSHARD="$TMP/mstshard-smoke"
MSTRUN="$TMP/mstrun-smoke"
MSTSERVED="$TMP/mstserved-smoke-cluster"
PIDS=""

json_field() { # json_field <key>  — extract a string/number field from stdin
    python3 -c "import json,sys; print(json.load(sys.stdin)[\"$1\"])"
}

cleanup() {
    for P in $PIDS; do kill "$P" 2>/dev/null || true; done
}
trap cleanup EXIT

go build -race -o "$MSTSHARD" ./cmd/mstshard
go build -race -o "$MSTRUN" ./cmd/mstrun
go build -race -o "$MSTSERVED" ./cmd/mstserved

# A 4-shard mesh across 3 workers (shard 3 shares worker 0's process).
W0="127.0.0.1:$PORT_BASE"
W1="127.0.0.1:$((PORT_BASE + 1))"
W2="127.0.0.1:$((PORT_BASE + 2))"
CFG="$TMP/mstshard-smoke-cluster.json"
cat >"$CFG" <<EOF
{"cluster":"v1","shards":4,"dial_timeout_ms":5000,"max_dial_attempts":6}
{"shard":0,"bind":"$W0"}
{"shard":1,"bind":"$W1"}
{"shard":2,"bind":"$W2"}
{"shard":3,"bind":"$W0"}
EOF

"$MSTSHARD" -addr "$W0" & PIDS="$PIDS $!"
"$MSTSHARD" -addr "$W1" & PIDS="$PIDS $!"
"$MSTSHARD" -addr "$W2" & PIDS="$PIDS $!"
sleep 0.5

RUN_ARGS="-graph random -n 300 -m 1200 -seed 5 -alg elkin -engine cluster"
REMOTE_OUT=$("$MSTRUN" $RUN_ARGS -cluster "$CFG")
LOCAL_OUT=$("$MSTRUN" $RUN_ARGS -shards 4)

field() { printf '%s\n' "$1" | awk -v k="$2" '$1 == k {print $3}'; }
R_ROUNDS=$(field "$REMOTE_OUT" rounds);   L_ROUNDS=$(field "$LOCAL_OUT" rounds)
R_MSGS=$(field "$REMOTE_OUT" messages);   L_MSGS=$(field "$LOCAL_OUT" messages)
R_WEIGHT=$(printf '%s\n' "$REMOTE_OUT" | awk '/^mst weight/ {print $3}')
L_WEIGHT=$(printf '%s\n' "$LOCAL_OUT" | awk '/^mst weight/ {print $3}')
[ -n "$R_ROUNDS" ] || { echo "FAIL: no rounds in remote output"; exit 1; }
[ "$R_ROUNDS" = "$L_ROUNDS" ] || { echo "FAIL: rounds $R_ROUNDS != $L_ROUNDS"; exit 1; }
[ "$R_MSGS" = "$L_MSGS" ] || { echo "FAIL: messages $R_MSGS != $L_MSGS"; exit 1; }
[ "$R_WEIGHT" = "$L_WEIGHT" ] || { echo "FAIL: weight $R_WEIGHT != $L_WEIGHT"; exit 1; }
printf '%s\n' "$REMOTE_OUT" | grep -q '^transport : .*reconnects=0' ||
    { echo "FAIL: transport line missing or reported reconnects on a healthy mesh"; exit 1; }
echo "ok: 3-worker mesh matches in-process engine (rounds=$R_ROUNDS messages=$R_MSGS weight=$R_WEIGHT)"

# Chaos fleet: every mesh link of every worker severs its socket under
# its 3rd written batch; the reconnect path must heal the mesh without
# changing a bit.
C0="127.0.0.1:$((PORT_BASE + 3))"
C1="127.0.0.1:$((PORT_BASE + 4))"
CCFG="$TMP/mstshard-smoke-chaos.json"
cat >"$CCFG" <<EOF
{"cluster":"v1","shards":4,"dial_timeout_ms":5000,"max_dial_attempts":6}
{"shard":0,"bind":"$C0"}
{"shard":1,"bind":"$C1"}
{"shard":2,"bind":"$C0"}
{"shard":3,"bind":"$C1"}
EOF
"$MSTSHARD" -addr "$C0" -chaos-close-after 3 & PIDS="$PIDS $!"
"$MSTSHARD" -addr "$C1" -chaos-close-after 3 & PIDS="$PIDS $!"
sleep 0.5
CHAOS_OUT=$("$MSTRUN" $RUN_ARGS -cluster "$CCFG")
C_ROUNDS=$(field "$CHAOS_OUT" rounds)
C_MSGS=$(field "$CHAOS_OUT" messages)
[ "$C_ROUNDS" = "$L_ROUNDS" ] || { echo "FAIL: chaos rounds $C_ROUNDS != $L_ROUNDS"; exit 1; }
[ "$C_MSGS" = "$L_MSGS" ] || { echo "FAIL: chaos messages $C_MSGS != $L_MSGS"; exit 1; }
RECONNECTS=$(printf '%s\n' "$CHAOS_OUT" | sed -n 's/^transport : .*reconnects=\([0-9]*\).*/\1/p')
[ -n "$RECONNECTS" ] && [ "$RECONNECTS" -ge 1 ] ||
    { echo "FAIL: chaos run reported reconnects='$RECONNECTS', want >= 1"; exit 1; }
echo "ok: severed mesh healed with $RECONNECTS reconnect(s), stats unchanged"

# mstserved remote dispatch: the same worker fleet serves a job
# submitted with "remote": true, and /metrics must expose the cluster
# transport families (with the chaos fleet's reconnect recorded).
"$MSTSERVED" -addr "$SERVED_ADDR" -workers 2 -cluster "$CCFG" & PIDS="$PIDS $!"
BASE="http://$SERVED_ADDR"
i=0
until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -le 50 ] || { echo "FAIL: mstserved never became healthy"; exit 1; }
    sleep 0.2
done
JOB=$(curl -sf -X POST \
    -d '{"gen":{"type":"random","n":300,"m":1200,"seed":5},"algorithm":"elkin","engine":"cluster","remote":true,"no_cache":true}' \
    "$BASE/jobs" | json_field id)
i=0
while :; do
    STATUS=$(curl -sf "$BASE/jobs/$JOB" | json_field status)
    [ "$STATUS" = done ] && break
    [ "$STATUS" = failed ] || [ "$STATUS" = canceled ] && { echo "FAIL: remote job $JOB $STATUS"; exit 1; }
    i=$((i + 1))
    [ "$i" -le 150 ] || { echo "FAIL: remote job $JOB stuck in $STATUS"; exit 1; }
    sleep 0.2
done
J_WEIGHT=$(curl -sf "$BASE/jobs/$JOB" | python3 -c 'import json,sys; print(json.load(sys.stdin)["result"]["weight"])')
[ "$J_WEIGHT" = "$L_WEIGHT" ] || { echo "FAIL: remote job weight $J_WEIGHT != $L_WEIGHT"; exit 1; }
echo "ok: mstserved remote job $JOB done, weight $J_WEIGHT"

METRICS=$(curl -sf "$BASE/metrics")
for FAMILY in \
    mstserved_cluster_dials_total mstserved_cluster_dial_retries_total \
    mstserved_cluster_reconnects_total mstserved_cluster_replayed_frames_total \
    mstserved_cluster_rtt_seconds; do
    printf '%s\n' "$METRICS" | grep -q "^# TYPE $FAMILY " ||
        { echo "FAIL: /metrics missing family $FAMILY"; exit 1; }
done
SRV_RECONNECTS=$(printf '%s\n' "$METRICS" | awk '$1 == "mstserved_cluster_reconnects_total" {print $2}')
[ -n "$SRV_RECONNECTS" ] && [ "$SRV_RECONNECTS" -ge 1 ] ||
    { echo "FAIL: mstserved_cluster_reconnects_total=$SRV_RECONNECTS, want >= 1 (chaos fleet)"; exit 1; }
DIALS=$(printf '%s\n' "$METRICS" | awk '$1 == "mstserved_cluster_dials_total" {print $2}')
[ -n "$DIALS" ] && [ "$DIALS" -ge 1 ] ||
    { echo "FAIL: mstserved_cluster_dials_total=$DIALS, want >= 1"; exit 1; }
echo "ok: /metrics exposes cluster transport families (reconnects=$SRV_RECONNECTS dials=$DIALS)"

cleanup
trap - EXIT
echo "PASS: cluster smoke"
