#!/usr/bin/env bash
# Wall-clock comparison of --jobs 1 vs --jobs N for the two heaviest
# batch drivers on the vrcache-exec substrate:
#
#   * the model checker's full scope battery   (vrcache-model --scope all)
#   * the 624-run fault-injection full campaign (vrcache-inject --campaign full)
#
# Writes BENCH_exec.json at the repo root: each cell is the median of
# five runs, and the file names the measured commit (with a flag for
# uncommitted changes to tracked files). Timing lives here in the
# shell (date +%s%N), not in the drivers: driver output is required to
# be byte-identical across worker counts, so the binaries themselves
# never read the wall clock for their reports.
#
# Usage: scripts/bench_exec.sh [JOBS]   (default JOBS=4)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-4}"
HOST_CPUS="$(nproc 2>/dev/null || echo 1)"
OUT="BENCH_exec.json"
RUNS=5
COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git status --porcelain --untracked-files=no 2>/dev/null)" ]; then
  DIRTY=true
else
  DIRTY=false
fi

echo "==> building release binaries"
cargo build -q --release -p vrcache-model -p vrcache-inject

# now_ns: monotonic-enough nanosecond stamp for coarse intervals.
now_ns() { date +%s%N; }

# time_cmd <cmd...>: runs the command, discarding
# stdout/stderr, and prints elapsed seconds with millisecond precision.
time_cmd() {
  local t0 t1
  t0="$(now_ns)"
  "$@" >/dev/null 2>&1
  t1="$(now_ns)"
  # Integer-only arithmetic: bash has no floats.
  local ns=$((t1 - t0))
  printf '%d.%03d' $((ns / 1000000000)) $(((ns % 1000000000) / 1000000))
}

# median_time <cmd...>: runs the command RUNS times and prints the
# median elapsed seconds.
median_time() {
  local i times=()
  for ((i = 0; i < RUNS; i++)); do
    times+=("$(time_cmd "$@")")
  done
  printf '%s\n' "${times[@]}" | sort -n | sed -n "$(((RUNS + 1) / 2))p"
}

MODEL_BIN=target/release/vrcache-model
INJECT_BIN=target/release/vrcache-inject

echo "==> model full battery, --jobs 1 (median of ${RUNS})"
MODEL_1="$(median_time "$MODEL_BIN" --scope all --jobs 1)"
echo "    ${MODEL_1}s"
echo "==> model full battery, --jobs ${JOBS} (median of ${RUNS})"
MODEL_N="$(median_time "$MODEL_BIN" --scope all --jobs "$JOBS")"
echo "    ${MODEL_N}s"

echo "==> inject full campaign, --jobs 1 (median of ${RUNS})"
INJECT_1="$(median_time "$INJECT_BIN" --campaign full --jobs 1)"
echo "    ${INJECT_1}s"
echo "==> inject full campaign, --jobs ${JOBS} (median of ${RUNS})"
INJECT_N="$(median_time "$INJECT_BIN" --campaign full --jobs "$JOBS")"
echo "    ${INJECT_N}s"

# Speedup with three decimals, integer arithmetic only.
ratio() {
  local a_ms b_ms
  # 10# guards against "0058" being read as octal.
  a_ms=$((10#$(echo "$1" | tr -d '.')))
  b_ms=$((10#$(echo "$2" | tr -d '.')))
  if [ "$b_ms" -eq 0 ]; then printf 'null'; return; fi
  printf '%d.%03d' $((a_ms / b_ms)) $(((a_ms % b_ms) * 1000 / b_ms))
}

MODEL_SPEEDUP="$(ratio "$MODEL_1" "$MODEL_N")"
INJECT_SPEEDUP="$(ratio "$INJECT_1" "$INJECT_N")"

cat > "$OUT" <<EOF
{
  "note": "wall-clock of batch drivers on the vrcache-exec fixed-partition pool, median of runs_per_cell runs per cell; speedup is bounded above by host_cpus — on a single-CPU host the honest expectation is ~1.0x, and the determinism tests (not this file) are what prove the pool correct",
  "commit": "${COMMIT}",
  "dirty": ${DIRTY},
  "host_cpus": ${HOST_CPUS},
  "jobs": ${JOBS},
  "runs_per_cell": ${RUNS},
  "benchmarks": [
    {
      "name": "model_full_battery",
      "command": "vrcache-model --scope all",
      "jobs1_s": ${MODEL_1},
      "jobs${JOBS}_s": ${MODEL_N},
      "speedup": ${MODEL_SPEEDUP}
    },
    {
      "name": "inject_full_campaign",
      "command": "vrcache-inject --campaign full",
      "runs": 624,
      "jobs1_s": ${INJECT_1},
      "jobs${JOBS}_s": ${INJECT_N},
      "speedup": ${INJECT_SPEEDUP}
    }
  ]
}
EOF

echo "==> wrote $OUT (host has ${HOST_CPUS} cpu(s))"
