#!/usr/bin/env bash
# Serve smoke (docs/serving.md): end-to-end proof of the serve layer's
# restart-under-load contract.
#
#   1. Start sesp_serve with a journal dir and --chaos=1: the first sweep's
#      supervisor stops after one journal append, draining the server
#      exactly as a SIGTERM would (deterministic kill point).
#   2. Submit that sweep plus mixed traffic (bounds, runs, malformed lines,
#      a replay of a crafted trace) through sesp_client; every reply must
#      be structured and the server must keep serving.
#   3. The server drains and exits 75 (EX_TEMPFAIL) with the sweep
#      journaled and resumable.
#   4. Restart with --resume: the sweep finishes and its report must be
#      byte-identical to an offline `sesp_cli --degradation` run.
#   5. The restarted server also writes a span trace (--trace-events),
#      uploaded as a CI artifact.
#
# Usage: scripts/serve_smoke.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

build="${1:-build}"
serve="$build/tools/sesp_serve"
client="$build/tools/sesp_client"
cli="$build/tools/sesp_cli"
for bin in "$serve" "$client" "$cli"; do
  [ -x "$bin" ] || { echo "serve smoke: missing $bin" >&2; exit 2; }
done

workdir="serve-smoke"
rm -rf "$workdir"
mkdir -p "$workdir"

# Offline reference: the identical sweep through sesp_cli (the served
# report starts at the algorithm line, which is line 4 of the CLI output).
"$cli" --substrate=mpm --model=semisync --degradation --seed=1992 \
  | tail -n +4 > "$workdir/expected_report.txt"

start_server() {  # start_server <logfile> <extra flags...>
  local log="$1"; shift
  SESP_JOURNAL_FSYNC=0 "$serve" --port=0 --journal-dir="$workdir/journals" \
    "$@" > "$log" 2>&1 &
  server_pid=$!
  for _ in $(seq 1 100); do
    port="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$log")"
    [ -n "$port" ] && return 0
    kill -0 "$server_pid" 2>/dev/null || break
    sleep 0.1
  done
  echo "serve smoke: server did not come up; log:" >&2
  cat "$log" >&2
  return 1
}

# --- 1+2: chaos server; mixed traffic first (served before the chaos kill
# point, which only arms once the sweep below starts executing), then the
# sweep whose supervisor the chaos hook stops.
start_server "$workdir/server-chaos.log" --chaos=1
summary="$("$client" --port="$port" --timeout-ms=10000 --summary \
  --send='{"id":2,"op":"health"}' \
  --send='{"id":3,"op":"bound","model":"semisync","side":"mp"}' \
  --send='{"id":4,"op":"bound","model":"async","side":"sm"}' \
  --send='{"id":5,"op":"run","adversary":"lockstep"}' \
  --send='this is not json' \
  --send='{"id":6,"op":"warp"}')"
echo "serve smoke: mixed traffic: $summary"
test "$summary" = "Ok=4 BadRequest=2 Overloaded=0 Timeout=0"

# A replay trace whose message names a deliver step past the trace's end
# replays as undelivered (match:false); the server must keep serving.
crafted='{"id":7,"op":"replay","model":"async","side":"mp","s":2,"n":2,"trace":"sesp-trace v1\nmeta,mpm,2,2\nstep,c,0,1,0,-1,-1,0,0,0\nmsg,0,1,0,4000000000,-,0,0,0\n"}'
summary="$("$client" --port="$port" --timeout-ms=10000 --summary \
  --send="$crafted" --send='{"id":8,"op":"health"}')"
echo "serve smoke: crafted replay: $summary"
test "$summary" = "Ok=2 BadRequest=0 Overloaded=0 Timeout=0"

sweep='{"id":1,"op":"sweep","substrate":"mpm","model":"semisync","seed":1992}'
ticket="$("$client" --port="$port" --send="$sweep" --print-field=result.ticket)"
[ -n "$ticket" ] || { echo "serve smoke: no sweep ticket" >&2; exit 1; }
echo "serve smoke: sweep ticket $ticket"

# --- 3: the chaos drain exits 75 with the sweep journaled ------------------
rc=0; wait "$server_pid" || rc=$?
echo "serve smoke: chaos server exit $rc"
test "$rc" -eq 75
ls "$workdir/journals/sweep-"*.journal > /dev/null

# --- 4+5: resume, finish the sweep, compare byte-for-byte ------------------
start_server "$workdir/server-resume.log" --resume \
  --trace-events="$workdir/serve_trace.jsonl"
"$client" --port="$port" --timeout-ms=120000 \
  --wait-ticket="$ticket" --report > "$workdir/actual_report.txt"
diff "$workdir/expected_report.txt" "$workdir/actual_report.txt"
echo "serve smoke: resumed sweep report is byte-identical"

kill -TERM "$server_pid"
rc=0; wait "$server_pid" || rc=$?
test "$rc" -eq 0
[ -s "$workdir/serve_trace.jsonl" ] || {
  echo "serve smoke: empty serve trace" >&2; exit 1; }
echo "serve smoke: OK"
