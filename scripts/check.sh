#!/usr/bin/env bash
# Pre-merge gate for the vrcache workspace: format, build, clippy, test,
# lint, and the benchmark's build and tests.
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
# clippy-clean: a new warning fails the gate. The root clippy.toml bans
# wall-clock reads and hash-ordered collections; the strict crates deny
# unwrap/expect in library code, core denies wildcard enum arms, and
# [workspace.lints] forbids unsafe code.
echo "==> cargo clippy --release --all-targets -- -D warnings"
cargo clippy --release --all-targets -- -D warnings

# The benchmark (perfbench/) is a package of its own, outside the
# workspace's [lints]: hold it to the same clippy.toml and forbid
# unsafe code on the command line.
echo "==> cargo clippy (perfbench) -- -D warnings -F unsafe_code"
cargo clippy -q --release --offline --manifest-path perfbench/Cargo.toml --all-targets \
  -- -D warnings -F unsafe_code

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

# The benchmark (perfbench/) is a package of its own, outside the
# workspace, so nothing above compiles it: an API change in the
# simulator's crates that breaks it would otherwise pass. Build and
# test it: the Rust worker and the Python runner.
echo "==> benchmark builds and passes its tests"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
python3 -m unittest discover -s perfbench -p 'test_*.py'

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
