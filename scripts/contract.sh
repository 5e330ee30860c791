#!/usr/bin/env bash
# Behaviour contract: writes every output a behaviour-preserving change
# must leave byte-identical into OUTDIR —
#
#   repro.txt              `repro --scale 0.05` stdout
#   model.txt              `vrcache-model --scope all` stdout
#   coverage.txt           its `--write-coverage` file
#   inject-smoke.txt       `vrcache-inject --campaign smoke --report`
#   inject-pairs-smoke.txt `vrcache-inject --campaign pairs-smoke --report`
#   vrsim-<kind>.txt       `vrsim run` of a pops 0.01 trace file, per kind
#
# Run it on the parent tree and on the change, then `diff -r` the two
# directories: any difference is a behaviour change.
#
# Usage: scripts/contract.sh OUTDIR
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: scripts/contract.sh OUTDIR" >&2
  exit 2
fi
mkdir -p "$1"
OUT="$(cd "$1" && pwd)"

cargo build -q --release -p vrcache-bench -p vrcache-model -p vrcache-inject
BIN="$PWD/target/release"

"$BIN/repro" --scale 0.05 --jobs 2 > "$OUT/repro.txt"
# Relative coverage path: the binary echoes it, and OUTDIR must not leak
# into the compared stdout.
(cd "$OUT" && "$BIN/vrcache-model" --scope all --jobs 2 \
  --write-coverage coverage.txt > model.txt)
for campaign in smoke pairs-smoke; do
  "$BIN/vrcache-inject" --campaign "$campaign" --jobs 2 \
    --report "$OUT/inject-$campaign.txt" > /dev/null
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
"$BIN/vrsim" gen --preset pops --scale 0.01 --out "$TMP/pops.vrt" > /dev/null 2>&1
for kind in vr rr rr-noincl goodman; do
  "$BIN/vrsim" run --trace-file "$TMP/pops.vrt" --kind "$kind" > "$OUT/vrsim-$kind.txt"
done
echo "contract outputs written to $OUT"
