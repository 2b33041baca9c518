#!/usr/bin/env bash
# Runs the test suite under a sanitizer preset.
#
#   scripts/sanitize.sh [asan|tsan] [extra ctest args...]
#
# `asan` (the default) uses the `asan-ubsan` CMake preset (build dir:
# build-asan); `tsan` uses the `tsan` preset (build dir: build-tsan) to
# race-check the code that starts threads: compare_schemes' worker grid
# and LoC-MPS's look-ahead lanes on their helper pool (LocMPSLanes.*).
# Benches and examples are skipped in both to keep the instrumented builds
# fast. Any extra arguments are forwarded to ctest, e.g. `-R Obs` to scope
# the run.
set -euo pipefail
cd -- "$(dirname -- "$0")/.." || exit 1

preset=asan-ubsan
case "${1:-}" in
  asan) shift ;;
  tsan) preset=tsan; shift ;;
esac

cmake --preset "$preset"
cmake --build --preset "$preset" -j "$(nproc)"
ctest --preset "$preset" -j "$(nproc)" "$@"
