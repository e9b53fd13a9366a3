#!/usr/bin/env bash
# Full reproduction: build, test, run every experiment, and collect the
# outputs next to the repository root (test_output.txt / bench_output.txt).
#
# Sweep parallelism: --jobs=N (or SESP_JOBS=N) sets the worker-thread count
# for the sweep engine in every test and bench below; results are
# bit-identical for any value (docs/parallelism.md). Default: hardware.
set -euo pipefail
cd "$(dirname "$0")/.."

for arg in "$@"; do
  case "$arg" in
    --jobs=*) export SESP_JOBS="${arg#--jobs=}" ;;
    *) echo "unknown argument: $arg (supported: --jobs=N)" >&2; exit 2 ;;
  esac
done

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

# Sanitizer stage: the fault-injection fuzz (and everything else) must run
# clean under ASan + UBSan. Skip with SESP_SKIP_SANITIZE=1.
if [ "${SESP_SKIP_SANITIZE:-0}" != "1" ]; then
  cmake -B build-asan -G Ninja -DSESP_SANITIZE=ON
  cmake --build build-asan
  ctest --test-dir build-asan 2>&1 | tee -a test_output.txt
fi

# Resume smoke: interrupt a checkpointed sweep deterministically, resume it,
# and require the resumed stdout to be byte-identical to an uninterrupted
# run (docs/robustness.md). Skip with SESP_SKIP_RESUME_SMOKE=1.
if [ "${SESP_SKIP_RESUME_SMOKE:-0}" != "1" ]; then
  smoke_cmd=(build/tools/sesp_cli --substrate=mpm --model=sporadic
             --adversary=worst --s=3 --n=4 --c1=1 --d1=1 --d2=4 --jobs=2)
  "${smoke_cmd[@]}" > resume_expected.out
  rm -f resume_smoke.journal
  rc=0
  SESP_STOP_AFTER=2 SESP_JOURNAL_FSYNC=0 \
    "${smoke_cmd[@]}" --journal=resume_smoke.journal > /dev/null 2>&1 || rc=$?
  [ "$rc" -eq 75 ] || { echo "resume smoke: expected exit 75, got $rc" >&2; exit 1; }
  for _ in $(seq 1 50); do
    rc=0
    SESP_JOURNAL_FSYNC=0 "${smoke_cmd[@]}" --resume=resume_smoke.journal \
      > resume_actual.out 2>/dev/null || rc=$?
    [ "$rc" -ne 75 ] && break
  done
  [ "$rc" -eq 0 ] || { echo "resume smoke: resume failed with $rc" >&2; exit 1; }
  diff resume_expected.out resume_actual.out
  rm -f resume_smoke.journal resume_expected.out resume_actual.out
  echo "resume smoke: interrupted run resumed byte-identically"
fi

# Shard smoke: run the same sweep through three worker processes with one
# worker SIGTERMed mid-sweep and restarted; the coordinator's merged replay
# must be byte-identical to the plain run (docs/robustness.md "Sharded
# execution"). Skip with SESP_SKIP_SHARD_SMOKE=1.
if [ "${SESP_SKIP_SHARD_SMOKE:-0}" != "1" ]; then
  smoke_cmd=(build/tools/sesp_cli --substrate=mpm --model=sporadic
             --s=4 --n=4 --degradation --jobs=2)
  "${smoke_cmd[@]}" > shard_expected.out
  rm -rf shard_smoke_dir
  SESP_JOURNAL_FSYNC=0 build/tools/sesp_shard --shard-dir=shard_smoke_dir \
    --workers=3 --kill-after=1 --kill-signal=TERM --kill-worker=1 \
    -- "${smoke_cmd[@]}" > shard_actual.out
  diff shard_expected.out shard_actual.out
  rm -rf shard_smoke_dir shard_expected.out shard_actual.out
  echo "shard smoke: killed-worker sharded run merged byte-identically"
fi

# Serve smoke: chaos-interrupt a served sweep mid-flight, resume the server,
# and require the served report to be byte-identical to the offline CLI run
# (docs/serving.md). Skip with SESP_SKIP_SERVE_SMOKE=1.
if [ "${SESP_SKIP_SERVE_SMOKE:-0}" != "1" ]; then
  scripts/serve_smoke.sh build
fi

# Bench stage: every bench binary writes a machine-readable record
# (BENCH_<name>.json, schema sesp-bench/3); the verdict comes from the
# structured ok / solved / admissible / upper_ok fields via sesp_bench_merge,
# not from grepping the tables. Speed is measured separately by perfbench
# (python3 perfbench/run.py, scripts/perf_gate.py).
rm -f BENCH_*.json bench_results.json
: > bench_output.txt
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "######## $b" | tee -a bench_output.txt
  "$b" 2>&1 | tee -a bench_output.txt
done

echo
echo "Verdicts (from BENCH_*.json):"
build/tools/sesp_bench_merge --out=bench_results.json BENCH_*.json
