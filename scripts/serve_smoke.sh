#!/usr/bin/env bash
# End-to-end smoke of the cde-serve daemon over its HTTP control plane:
#
#   1. start the daemon on an ephemeral port (bursty chaos enabled),
#   2. register two tenants with 1:3 weights and run a campaign to
#      completion with the exact planted cache count,
#   3. scrape /metrics for the per-tenant probe counters,
#   4. run a large campaign under bursty loss and watch /v1/health
#      degrade to warn/critical with a loss-attributed cause, then
#      recover to ok once the burst-loss traffic drains,
#   5. trigger a flight dump over POST /v1/flight/dump while degraded,
#      assert the artifact exists and parses, and run the loss-forensics
#      reconciler (`cde-analyze --forensics`) over it,
#   6. kill -9 the daemon mid-campaign — which must never leave a torn
#      flight dump (tmp+rename, like checkpoints) — restart it with
#      --resume, and watch the checkpointed campaign run to completion,
#   7. shut down gracefully over HTTP and check the telemetry JSONL
#      carries the per-tenant campaign spans.
#
# Note on step 4: restarting the daemon rebuilds the *simulated*
# testbed, so its caches come back cold — honey-fetch evidence across a
# process restart is additive (old world + new world), unlike the
# in-process kill/resume (same world) where the recovered count is
# exact; that stronger property is proven by
# `crates/serve/tests/kill_resume.rs`. Here we assert completion,
# accounting and that the resume really continued from the snapshot.
#
# Usage: scripts/serve_smoke.sh   (from the repo root; needs curl)

set -euo pipefail
# Checks on a pipeline end in `grep … >/dev/null`, never `grep -q`: grep -q
# exits at its first match, the writer then dies of SIGPIPE, and pipefail
# turns a found match into a failed check.

SEED="${CDE_CHAOS_SEED:-4242}"
DIR="target/serve-smoke"
BIN="target/release/cde-serve"
CACHES=6

say() { echo "serve-smoke: $*"; }
die() { echo "serve-smoke: FAIL: $*" >&2; exit 1; }

json_field() { # json_field <key> — prints the value of "key" from stdin
    sed -n "s/.*\"$1\": \"\{0,1\}\([^,\"}]*\)\"\{0,1\}.*/\1/p" | head -n 1
}

DAEMON_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
}
trap cleanup EXIT

start_daemon() { # start_daemon [extra flags...]
    rm -f "$DIR/addr"
    "$BIN" --listen 127.0.0.1:0 --checkpoint-dir "$DIR/ckpt" \
        --testbed-caches "$CACHES" --testbed-seed "$SEED" \
        --chaos --rate 2000 \
        --telemetry-jsonl "$DIR/events.jsonl" --addr-file "$DIR/addr" \
        "$@" &
    DAEMON_PID=$!
    for _ in $(seq 1 100); do
        [ -s "$DIR/addr" ] && break
        kill -0 "$DAEMON_PID" 2>/dev/null || die "daemon died during startup"
        sleep 0.1
    done
    [ -s "$DIR/addr" ] || die "daemon never wrote its address file"
    ADDR="$(cat "$DIR/addr")"
    say "daemon up at $ADDR (pid $DAEMON_PID)"
}

poll_status() { # poll_status <id> <want-state> <timeout-s>
    local id="$1" want="$2" timeout="$3" status state
    for _ in $(seq 1 $((timeout * 10))); do
        status="$(curl -fsS "http://$ADDR/v1/campaigns/$id")"
        state="$(echo "$status" | json_field state)"
        if [ "$state" = "$want" ]; then
            echo "$status"
            return 0
        fi
        sleep 0.1
    done
    die "campaign $id never reached state=$want (last: $status)"
}

say "building cde-serve and cde-analyze"
cargo build --release --locked -p cde-serve -p cde-insight

rm -rf "$DIR"
mkdir -p "$DIR"
start_daemon

say "health check"
curl -fsS "http://$ADDR/healthz" | grep '"ok": true' >/dev/null || die "healthz"

say "registering tenants alice (weight 1) and bob (weight 3)"
curl -fsS -X POST -d '{"name": "alice", "weight": 1}' "http://$ADDR/v1/tenants" >/dev/null
curl -fsS -X POST -d '{"name": "bob", "weight": 3}' "http://$ADDR/v1/tenants" >/dev/null

say "submitting bob's campaign against the planted $CACHES-cache testbed"
BOB_ID="$(curl -fsS -X POST -d \
    '{"tenant": "bob", "label": "smoke", "caches_hint": 6, "loss_hint": 0.25, "farm_size": 60, "redundancy": 2, "window": 8, "checkpoint_every": 8}' \
    "http://$ADDR/v1/campaigns" | json_field id)"
[ -n "$BOB_ID" ] || die "no campaign id returned"
say "campaign $BOB_ID submitted; polling to completion"

STATUS="$(poll_status "$BOB_ID" done 60)"
echo "$STATUS" | grep "\"estimated\": $CACHES," >/dev/null || die "wrong estimate: $STATUS"
echo "$STATUS" | grep '"fully_accounted": true' >/dev/null || die "probes leaked: $STATUS"
say "campaign $BOB_ID done: exact cache count recovered under chaos"

say "scraping /metrics for per-tenant counters"
METRICS="$(curl -fsS "http://$ADDR/metrics")"
echo "$METRICS" | grep 'cde_serve_tenant_probes_total{tenant="bob"}' >/dev/null \
    || die "missing bob's probe counter in scrape"
echo "$METRICS" | grep 'cde_serve_tenant_weight{tenant="alice"} 1' >/dev/null \
    || die "missing alice's weight gauge in scrape"

# --- /v1/health: degrade under bursty loss, then recover -------------------
# curl -f would abort on the 503 a critical verdict serves, so fetch the
# health body with plain -sS and grep the JSON.
health() { curl -sS "http://$ADDR/v1/health"; }

say "submitting a large campaign under bursty loss; /v1/health must degrade"
PULSE_ID="$(curl -fsS -X POST -d \
    '{"tenant": "bob", "label": "pulse", "caches_hint": 6, "loss_hint": 0.25, "farm_size": 2000, "redundancy": 2, "window": 32, "checkpoint_every": 64}' \
    "http://$ADDR/v1/campaigns" | json_field id)"
[ -n "$PULSE_ID" ] || die "no pulse campaign id returned"
DEGRADED=""
for _ in $(seq 1 300); do
    HEALTH="$(health)"
    if echo "$HEALTH" | grep -Eq '"status": "(warn|critical)"'; then
        DEGRADED=1
        break
    fi
    sleep 0.1
done
[ -n "$DEGRADED" ] || die "/v1/health never degraded under 25% bursty loss (last: $HEALTH)"
echo "$HEALTH" | grep 'loss_budget_burn' >/dev/null \
    || die "degraded verdict lacks a loss-attributed cause: $HEALTH"
say "health degraded with loss cause: $(echo "$HEALTH" | json_field status)"

curl -fsS "http://$ADDR/v1/health/shards" | grep '"duty_cycle"' >/dev/null \
    || die "/v1/health/shards missing shard duty cycles"
curl -fsS "http://$ADDR/metrics" | grep '^cde_pulse_health_status ' >/dev/null \
    || die "cde_pulse_health_status missing from /metrics"

# --- flight recorder: operator-triggered dump + loss forensics -------------
say "triggering a flight dump while degraded"
DUMP_PATH="$(curl -fsS -X POST "http://$ADDR/v1/flight/dump" | json_field flight_dump)"
[ -n "$DUMP_PATH" ] || die "POST /v1/flight/dump returned no path"
[ -s "$DUMP_PATH" ] || die "flight dump artifact missing or empty: $DUMP_PATH"
head -n 1 "$DUMP_PATH" | grep '"kind": "flight_header", "flight_version": 1' >/dev/null \
    || die "flight dump lacks its versioned header: $(head -n 1 "$DUMP_PATH")"
say "reconciling the dump with cde-analyze --forensics"
FORENSICS="$(target/release/cde-analyze "$DUMP_PATH" --forensics --check)" \
    || die "forensics reconciliation failed on $DUMP_PATH"
echo "$FORENSICS" | grep 'unanswered coverage' >/dev/null || die "no coverage line: $FORENSICS"
echo "$FORENSICS" | grep '0 line(s) skipped' >/dev/null || die "dump had malformed lines: $FORENSICS"
say "flight dump reconciled: $(echo "$FORENSICS" | grep 'unanswered coverage')"

poll_status "$PULSE_ID" done 120 >/dev/null
# Recovery is bounded by the SLO mid window (1m): warn clears once the
# lossy traffic ages out of it and the activity floor disengages.
say "pulse campaign done; waiting for /v1/health to recover (~60s)"
RECOVERED=""
for _ in $(seq 1 90); do
    HEALTH="$(health)"
    if echo "$HEALTH" | grep '"status": "ok"' >/dev/null; then
        RECOVERED=1
        break
    fi
    sleep 1
done
[ -n "$RECOVERED" ] || die "/v1/health never recovered after the lossy campaign (last: $HEALTH)"
say "health recovered to ok"

say "submitting alice's slow campaign, then kill -9 mid-flight"
curl -fsS -X POST -d '{"name": "victim", "weight": 1, "cap_per_second": 150, "cap_burst": 1}' \
    "http://$ADDR/v1/tenants" >/dev/null
VICTIM_ID="$(curl -fsS -X POST -d \
    '{"tenant": "victim", "label": "victim", "caches_hint": 6, "loss_hint": 0.25, "farm_size": 120, "redundancy": 2, "window": 8, "checkpoint_every": 8}' \
    "http://$ADDR/v1/campaigns" | json_field id)"
for _ in $(seq 1 300); do
    COMPLETED="$(curl -fsS "http://$ADDR/v1/campaigns/$VICTIM_ID" | json_field completed)"
    [ "${COMPLETED:-0}" -ge 40 ] && break
    sleep 0.1
done
[ "${COMPLETED:-0}" -ge 40 ] || die "victim campaign made no progress"
[ "$COMPLETED" -lt 240 ] || die "victim finished before the kill landed"
say "kill -9 at $COMPLETED/240 completions"
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

# The dump discipline is tmp + fsync + rename, exactly like checkpoints:
# however the kill lands, no torn or half-written flight artifact may
# survive, and every committed dump must still parse.
if ls "$DIR"/ckpt/flight-*.jsonl.tmp >/dev/null 2>&1; then
    die "kill -9 left a torn flight dump temp file behind"
fi
for dump in "$DIR"/ckpt/flight-*.jsonl; do
    [ -e "$dump" ] || continue
    head -n 1 "$dump" | grep '"flight_version": 1' >/dev/null \
        || die "committed flight dump $dump does not parse after kill -9"
done

say "restarting with --resume"
start_daemon --resume
STATUS="$(poll_status "$VICTIM_ID" done 60)"
RESUMED_FROM="$(echo "$STATUS" | json_field resumed_from)"
[ "${RESUMED_FROM:-0}" -gt 0 ] || die "resume did not continue from the snapshot: $STATUS"
echo "$STATUS" | grep '"completed": 240' >/dev/null || die "resumed campaign incomplete: $STATUS"
echo "$STATUS" | grep '"fully_accounted": true' >/dev/null || die "probes leaked across the kill: $STATUS"
say "campaign $VICTIM_ID resumed from $RESUMED_FROM and completed"

say "graceful shutdown over HTTP"
curl -fsS -X POST "http://$ADDR/v1/shutdown" >/dev/null
wait "$DAEMON_PID" || die "daemon did not exit cleanly after /v1/shutdown"
DAEMON_PID=""

say "checking telemetry JSONL for per-tenant campaign spans"
grep -q '"kind": "campaign_tenant", "tenant": "bob"' "$DIR/events.jsonl" \
    || die "bob's span tenant tag missing from $DIR/events.jsonl"
grep -q '"kind": "campaign_tenant", "tenant": "victim"' "$DIR/events.jsonl" \
    || die "victim's span tenant tag missing from $DIR/events.jsonl"
grep -q '"kind": "campaign_begin"' "$DIR/events.jsonl" || die "no campaign spans captured"

say "OK"
