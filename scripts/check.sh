#!/usr/bin/env bash
# Pre-merge gate for the vrcache workspace: format, build, clippy, test,
# lint.
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

# Worker count for the batch drivers (model / mutate / inject). Their
# reports are byte-identical for any value — JOBS only changes wall
# clock, never output.
JOBS="${JOBS:-2}"

# REPIN=protocol re-pins the extracted protocol transition surface
# (crates/analysis/protocol_spec.txt), the one baseline the lint binary
# writes, after tier-1. Any other value is a usage error (exit 2),
# checked up front so a typo fails before the build, not after it.
REPIN="${REPIN:-}"
case "$REPIN" in
  "" | protocol) ;;
  *)
    echo "REPIN must be protocol (got '$REPIN')" >&2
    exit 2
    ;;
esac

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release

# The criterion benches are not part of the test build; compile them
# so an API change cannot leave them broken.
echo "==> cargo build --release --benches"
cargo build --release --benches

# Every target (tests, benches, examples, the vendored shims) must be
# clippy-clean: a new warning fails the gate.
echo "==> cargo clippy --release --all-targets -- -D warnings"
cargo clippy --release --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test -q

echo "==> trace-file replay smoke"
scripts/trace_smoke.sh

echo "==> model checker (smoke scope)"
cargo run -q --release -p vrcache-model -- --scope smoke --jobs "$JOBS"

# Opt-in: REPIN re-pins the protocol spec (validated above).
# The gate lives here — after the build and the full test suite
# (tier-1) have passed — so a broken tree can never pin its own debt
# or rewrite its own protocol contract.
if [[ -n "$REPIN" ]]; then
  echo "==> re-pin $REPIN spec (tier-1 clean)"
  cargo run -q --release -p vrcache-analysis --bin lint -- --write "$REPIN"
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
