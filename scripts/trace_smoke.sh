#!/usr/bin/env bash
# Trace-file replay smoke: for every organization, replaying a stored
# trace file (`vrsim run --trace-file`, streamed through the codec's
# Decoder) must print exactly what replaying the same preset generated
# in memory prints. The file spans at least three of the decoder's
# 64 KiB refill windows (`codec::WINDOW_BYTES`), so every run refills
# mid-file. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build -q --release -p vrcache-bench --bin vrsim
VRSIM=target/release/vrsim
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

SCALE=0.02
WINDOW_BYTES=$((64 * 1024))
"$VRSIM" gen --preset pops --scale "$SCALE" --out "$TMP/pops.vrt" > /dev/null 2>&1
size="$(stat -c %s "$TMP/pops.vrt")"
if (( size < 3 * WINDOW_BYTES )); then
  echo "smoke trace is $size bytes, under three $WINDOW_BYTES-byte decoder windows" >&2
  exit 1
fi
for kind in vr rr rr-noincl goodman; do
  "$VRSIM" run --trace-file "$TMP/pops.vrt" --kind "$kind" > "$TMP/file.out"
  "$VRSIM" run --preset pops --scale "$SCALE" --kind "$kind" > "$TMP/preset.out" 2>/dev/null
  if ! cmp -s "$TMP/file.out" "$TMP/preset.out"; then
    echo "trace-file replay differs from in-memory replay for --kind $kind:" >&2
    diff "$TMP/preset.out" "$TMP/file.out" >&2 || true
    exit 1
  fi
  echo "  $kind: trace-file replay matches"
done
