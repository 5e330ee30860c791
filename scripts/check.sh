#!/usr/bin/env bash
# Pre-merge gate for the vrcache workspace: format, build, test, lint.
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

# Worker count for the batch drivers (model / mutate / inject). Their
# reports are byte-identical for any value — JOBS only changes wall
# clock, never output.
JOBS="${JOBS:-2}"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> trace-file replay smoke"
scripts/trace_smoke.sh

echo "==> model checker (smoke scope)"
cargo run -q --release -p vrcache-model -- --scope smoke --jobs "$JOBS"

# Opt-in: WRITE_HOTPATH=1 re-pins the hot-path allocation baseline.
# The gate lives here — after the build and the full test suite
# (tier-1) have passed — so a broken tree can never pin its own debt.
if [[ "${WRITE_HOTPATH:-0}" == "1" ]]; then
  echo "==> re-pin hot-path-hygiene baseline (tier-1 clean)"
  cargo run -q --release -p vrcache-analysis --bin lint -- --write-hotpath-baseline
fi

# Opt-in: WRITE_PROTOCOL_SPEC=1 re-pins the extracted coherence
# transition surface. Same placement rationale: only a tree that
# builds and passes tier-1 may rewrite its own protocol contract.
if [[ "${WRITE_PROTOCOL_SPEC:-0}" == "1" ]]; then
  echo "==> re-pin protocol-spec transition surface (tier-1 clean)"
  cargo run -q --release -p vrcache-analysis --bin lint -- --write-protocol-spec
fi

# Opt-in: WRITE_DOMAIN_BASELINE=1 re-pins the address-domain flow
# baseline. Same placement rationale again: the cross-domain debt
# ratchet may only be rewritten by a tree that passes tier-1.
if [[ "${WRITE_DOMAIN_BASELINE:-0}" == "1" ]]; then
  echo "==> re-pin address-domain baseline (tier-1 clean)"
  cargo run -q --release -p vrcache-analysis --bin lint -- --write-domain-baseline
fi

echo "==> workspace lints"
cargo run -q --release -p vrcache-analysis --bin lint

# Opt-in: MUTATE=1 runs the bounded mutation smoke sweep (~25 mutants,
# a few minutes on one core). The full sweep is `--suite full`.
if [[ "${MUTATE:-0}" == "1" ]]; then
  echo "==> mutation smoke sweep"
  cargo run -q --release -p vrcache-mutate -- --suite smoke --jobs "$JOBS"
fi

# Opt-in: INJECT=1 runs the fault-injection smoke campaigns: the
# single-fault sweep (128 runs) and the compositional pair sweep
# (264 runs), both well under a minute in release. The nightly matrix
# is `--campaign nightly`.
if [[ "${INJECT:-0}" == "1" ]]; then
  echo "==> fault-injection smoke campaign"
  cargo run -q --release -p vrcache-inject -- --campaign smoke --jobs "$JOBS"
  echo "==> fault-injection pair-composition smoke campaign"
  cargo run -q --release -p vrcache-inject -- --campaign pairs-smoke --jobs "$JOBS"
fi

echo "All checks passed."
