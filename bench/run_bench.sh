#!/usr/bin/env bash
# Builds the benches in Release (-O2 -DNDEBUG) and emits BENCH_sched.json,
# BENCH_faults.json, BENCH_overload.json and BENCH_index.json at the repo
# root. Every emitted file gets a `meta` block (git sha, compiler, flags)
# stamped in so a committed result is traceable to the build that made it.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-release"
RELEASE_FLAGS="-O2 -DNDEBUG"

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS_RELEASE="$RELEASE_FLAGS"
cmake --build "$BUILD" -j --target bench_sched_scale bench_faults \
    bench_overload bench_index

# Injects a meta block right after the opening '{' of a bench JSON file.
# The values are one-line strings with no quotes, so plain sed is safe.
stamp_meta() {
  local file="$1"
  local sha dirty compiler
  sha="$(git -C "$ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)"
  dirty="false"
  # The BENCH files this script just rewrote do not make the tree dirty.
  if ! git -C "$ROOT" diff --quiet HEAD -- . ':!BENCH_*.json' 2>/dev/null; then
    dirty="true"
  fi
  compiler="$(c++ --version 2>/dev/null | head -n1 | tr -d '"' || echo unknown)"
  local tmp="$file.tmp.$$"
  {
    head -n1 "$file"
    printf '  "meta": {"git_sha": "%s", "dirty": %s, "compiler": "%s", "flags": "%s"},\n' \
        "$sha" "$dirty" "$compiler" "$RELEASE_FLAGS"
    tail -n +2 "$file"
  } > "$tmp"
  mv "$tmp" "$file"
}

"$BUILD/bench/bench_sched_scale" "$ROOT/BENCH_sched.json"
"$BUILD/bench/bench_faults" "$ROOT/BENCH_faults.json"
"$BUILD/bench/bench_overload" "$ROOT/BENCH_overload.json"
# Checksum-gated: batched probes must beat one-at-a-time scalar lookups by
# >= 1.5x on the LLC-exceeding trees, with bit-identical visit sequences.
DFIM_BENCH_CHECK=1 "$BUILD/bench/bench_index" "$ROOT/BENCH_index.json"

for f in BENCH_sched.json BENCH_faults.json BENCH_overload.json \
         BENCH_index.json; do
  stamp_meta "$ROOT/$f"
done
