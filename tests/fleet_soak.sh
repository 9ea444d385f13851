#!/bin/sh
# Fleet soak (docs/robustness.md "Fleet supervision"): a 20-job campaign with
# every failure mode the supervisor claims to survive, injected on purpose.
#
#   - 3 workers are killed mid-run by chaos injection: SIGKILL (hard crash),
#     SIGTERM (graceful checkpoint-eviction) and SIGSTOP (a wedge the hang
#     detector must catch);
#   - one job deterministically crashes every attempt (undelegated illegal
#     instruction, exit 11) and must exhaust its retry budget and leave a
#     self-contained repro directory;
#   - one job exhausts its guest cycle budget (exit 12) and must be terminal
#     on the first attempt (retrying a deterministic timeout is futile).
#
# Assertions: every job reaches a terminal state; the chaos-killed jobs'
# stats.json files match an uninterrupted control fleet's outside the
# host-tier cache counters; the
# fleet.json report is byte-stable run-to-run; failures are harvested.
#
# usage: tests/fleet_soak.sh [BUILD_DIR] [OUT_DIR]
set -eu

BUILD_DIR=${1:-build}
OUT=${2:-$(mktemp -d /tmp/fleet_soak.XXXXXX)}
MSIM=$BUILD_DIR/tools/msim
MSIMD=$BUILD_DIR/tools/msimd

test -x "$MSIM" || { echo "no msim at $MSIM" >&2; exit 1; }
test -x "$MSIMD" || { echo "no msimd at $MSIMD" >&2; exit 1; }
mkdir -p "$OUT"

cat > "$OUT/short.s" <<'EOF'
_start:
  li t0, 200
loop:
  addi t0, t0, -1
  bnez t0, loop
  halt t0
EOF

# ~1.6M guest cycles: long enough for checkpoints and mid-run kills.
cat > "$OUT/long.s" <<'EOF'
_start:
  li t0, 400000
loop:
  addi t0, t0, -1
  bnez t0, loop
  halt t0
EOF

cat > "$OUT/illegal.s" <<'EOF'
_start:
  .word 0
  halt x0
EOF

{
  printf '# Generated by tests/fleet_soak.sh — 20 jobs, every failure mode.\n'
  i=0
  while [ "$i" -lt 13 ]; do
    printf '[job smoke%02d]\nprogram = %s/short.s\nmax-cycles = 1000000\n\n' "$i" "$OUT"
    i=$((i + 1))
  done
  # Snapshots carry the whole guest DRAM (~20 MB), so keep the checkpoint
  # cadence coarse: two per job is enough to prove crash/evict resume.
  for name in victim-kill victim-term victim-stop steady0 steady1; do
    printf '[job %s]\nprogram = %s/long.s\nmax-cycles = 50000000\ncheckpoint-every = 700000\n\n' \
      "$name" "$OUT"
  done
  printf '[job deadbudget]\nprogram = %s/long.s\nmax-cycles = 50000\n\n' "$OUT"
  printf '[job faulty]\nprogram = %s/illegal.s\nmax-cycles = 1000000\n\n' "$OUT"
} > "$OUT/soak.ini"

"$MSIMD" check "$OUT/soak.ini"

# The hang timeout and the SIGTERM->SIGKILL grace need headroom: on a loaded
# CI machine a healthy worker can stall for seconds while another worker
# writes a 20 MB checkpoint, and an evicted worker must finish flushing its
# own final checkpoint before the escalation fires.
FLAGS="--msim $MSIM --workers 4 --retries 2 --deadline-ms 120000 \
  --hang-timeout-ms 10000 --heartbeat-every 50000 --grace-ms 5000 \
  --backoff-base-ms 10 --backoff-max-ms 100 --poll-ms 5 --quiet"

run_fleet() {
  # expected exit is 20 (kExitJobsFailed): faulty and deadbudget always fail.
  out_dir=$1; shift
  rc=0
  # shellcheck disable=SC2086  # FLAGS is intentionally word-split
  "$MSIMD" run "$OUT/soak.ini" $FLAGS --out-dir "$out_dir" "$@" || rc=$?
  if [ "$rc" -ne 20 ]; then
    echo "fleet in $out_dir exited $rc, want 20 (jobs-failed)" >&2
    exit 1
  fi
}

echo "== chaos fleet (kill/term/stop injected) =="
run_fleet "$OUT/chaos" \
  --chaos kill@victim-kill --chaos term@victim-term --chaos stop@victim-stop

echo "== control fleet (no chaos), twice for report byte-stability =="
run_fleet "$OUT/clean"
run_fleet "$OUT/clean2"
cmp "$OUT/clean/fleet.json" "$OUT/clean2/fleet.json"

echo "== byte-identity: interrupted jobs match the uninterrupted control =="
# Every component but the host-tier "superblock" metric group, which a
# resumed attempt starts cold (docs/performance.md).
for job in victim-kill victim-term victim-stop steady0 steady1 smoke00 smoke12; do
  python3 - "$OUT/chaos/jobs/$job/stats.json" "$OUT/clean/jobs/$job/stats.json" <<'EOF'
import json, sys
a, b = (json.load(open(path)) for path in sys.argv[1:])
for stats in (a, b):
    stats["metrics"].pop("superblock")
assert a == b, f"{sys.argv[1]} differs beyond the host-tier counters"
EOF
done

echo "== harvested repro for the crashing job =="
test -x "$OUT/chaos/jobs/faulty/repro/repro.sh"
test -s "$OUT/chaos/jobs/faulty/repro/stderr.tail"
grep -q illegal_instruction "$OUT/chaos/jobs/faulty/repro/stderr.tail"

echo "== fleet.json outcome assertions =="
python3 - "$OUT/chaos/fleet.json" <<'EOF'
import json, sys

report = json.load(open(sys.argv[1]))
jobs = {j["name"]: j for j in report["jobs"]}
assert len(jobs) == 20, sorted(jobs)
assert all(j["outcome"] != "pending" for j in jobs.values()), "non-terminal job"

# The three chaos victims each survived their injected fault.
assert jobs["victim-kill"]["outcome"] == "retried", jobs["victim-kill"]
assert jobs["victim-kill"]["failures"] >= 1
assert jobs["victim-term"]["outcome"] == "evicted", jobs["victim-term"]
assert jobs["victim-term"]["evictions"] >= 1
assert jobs["victim-term"]["failures"] == 0, "eviction must not consume retries"
assert jobs["victim-stop"]["outcome"] == "retried", jobs["victim-stop"]
assert jobs["victim-stop"]["hang_kills"] >= 1, jobs["victim-stop"]

# Deterministic failures are terminal with the right budgets spent.
assert jobs["faulty"]["outcome"] == "crashed", jobs["faulty"]
assert jobs["faulty"]["attempts"] == 3, jobs["faulty"]  # 1 + 2 retries
assert jobs["faulty"]["repro_dir"], jobs["faulty"]
assert jobs["deadbudget"]["outcome"] == "timed-out", jobs["deadbudget"]
assert jobs["deadbudget"]["attempts"] == 1, "guest timeout must not retry"

summary = report["summary"]
assert summary["total"] == 20 and summary["crashed"] == 1 and summary["timed_out"] == 1, summary
assert summary["evicted"] == 1 and summary["retried"] == 2 and summary["ok"] == 15, summary
print("soak ok:", json.dumps(summary))
EOF

echo "fleet soak passed (artifacts in $OUT)"
