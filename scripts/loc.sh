#!/usr/bin/env bash
# Non-test line count per crate: for every `.rs` file under a crate's
# `src/`, the lines above the file's `#[cfg(test)]`-gated `mod` (the
# unit-test module), or the whole file when it has none. A gated helper
# function above library code does not end the count; only the gated
# module does. Blank and comment lines count: run `cargo fmt` first so
# the figure is reproducible.
#
# Usage: scripts/loc.sh [crate-dir ...]   (default: every crates/*)
# Prints `<lines> <crate>/src` per crate, then the total.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -eq 0 ]]; then
  set -- crates/*
fi

total=0
for crate in "$@"; do
  src="${crate%/}/src"
  [[ -d "$src" ]] || continue
  n=$(find "$src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { if (NR > 1) sum += count; count = 0; done = 0; gated = 0 }
    done { next }
    gated && /^[[:space:]]*$/ { pending++; next }
    gated && /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/ { done = 1; next }
    gated { count += pending; gated = 0 }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { gated = 1; pending = 1; next }
    { count++ }
    END { sum += count; print sum }
  ')
  echo "$n $src"
  total=$((total + n))
done
echo "$total total"
