#!/usr/bin/env bash
# Static-analysis driver for locmps (docs/static_analysis.md).
#
# Runs, in order:
#   1. locmps-lint  — project determinism/hygiene rules (always; built here),
#                     then a check that docs/module_graph.dot is current
#   2. clang-tidy   — .clang-tidy profile over compile_commands.json
#   3. cppcheck     — warning/performance/portability, .cppcheck-suppressions
#   4. clang-format — check-only, scoped to FORMAT_PATHS (incremental adoption)
#   5. shellcheck   — scripts/*.sh
#   6. ruff         — scripts/*.py
#   7. clang++ -Wthread-safety -Werror=thread-safety build of src/
#
# Tools 2-7 are skipped with a notice when absent so the script is useful on
# a bare gcc box; pass --require to turn every skip into a failure (CI mode).
#
# Usage: scripts/lint.sh [--require] [--build-dir DIR]
set -euo pipefail

REQUIRE=0
BUILD_DIR=build-lint
while [ "$#" -gt 0 ]; do
  case "$1" in
    --require) REQUIRE=1 ;;
    --build-dir)
      shift
      BUILD_DIR=${1:?--build-dir needs an argument}
      ;;
    *)
      echo "usage: scripts/lint.sh [--require] [--build-dir DIR]" >&2
      exit 2
      ;;
  esac
  shift
done

ROOT=$(cd -- "$(dirname -- "$0")/.." && pwd)
cd -- "$ROOT"

FAILED=0
fail() {
  echo "lint.sh: FAIL: $1" >&2
  FAILED=1
}

# skip <tool>: honor --require for a missing optional tool.
skip() {
  if [ "$REQUIRE" -eq 1 ]; then
    fail "$1 not found but --require was given"
  else
    echo "lint.sh: skip: $1 not found" >&2
  fi
}

# Paths under .clang-format enforcement. Incremental adoption: extend this
# list as files are formatted, never reformat the whole tree in one PR.
FORMAT_PATHS=(
  tools/lint
  src/util/annotations.hpp
  tests/test_lint.cpp
)

echo "== locmps-lint =="
cmake -B "$BUILD_DIR" -S . -DLOCMPS_BUILD_TESTS=OFF -DLOCMPS_BUILD_BENCH=OFF \
  -DLOCMPS_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$BUILD_DIR" --target locmps-lint -j "$(nproc)" >/dev/null
# GitHub Actions gets inline annotations; everywhere else the text format.
LINT_FORMAT=text
if [ "${GITHUB_ACTIONS:-false}" = "true" ]; then
  LINT_FORMAT=github
fi
# Per-file rules plus the dependency passes (layer-violation,
# include-cycle against tools/lint/layers.txt); the module DAG lands in
# the build dir for the CI artifact upload.
"$BUILD_DIR/tools/locmps-lint" --baseline tools/lint/lint_baseline.txt \
  --deps --deps-dot "$BUILD_DIR/module_graph.dot" \
  --format "$LINT_FORMAT" \
  src bench tools examples || fail "locmps-lint reported findings"
"$BUILD_DIR/tools/locmps-lint" --baseline tools/lint/lint_baseline.txt \
  --deps --format json \
  src bench tools examples >"$BUILD_DIR/lint_findings.json" || true
# The committed module DAG must match the one just generated, so a change
# to the include structure regenerates docs/module_graph.dot with it.
if ! cmp -s docs/module_graph.dot "$BUILD_DIR/module_graph.dot"; then
  diff -u docs/module_graph.dot "$BUILD_DIR/module_graph.dot" >&2 || true
  fail "docs/module_graph.dot is stale; copy $BUILD_DIR/module_graph.dot"
fi

echo "== clang-tidy =="
# LOCMPS_LINT_SKIP_TIDY=1 is the CI cache-hit signal: the compilation
# database (and .clang-tidy) are unchanged since the last green run, so
# re-analysis would reproduce the same empty report. Honored even under
# --require because it is an explicit opt-out, not a missing tool.
if [ "${LOCMPS_LINT_SKIP_TIDY:-0}" = "1" ]; then
  echo "lint.sh: skip: clang-tidy (LOCMPS_LINT_SKIP_TIDY=1, cached result)" >&2
elif command -v clang-tidy >/dev/null 2>&1; then
  # compile_commands.json comes from the main build dir so clang-tidy sees
  # tests/bench/examples too; CMAKE_EXPORT_COMPILE_COMMANDS is on globally.
  cmake -B "$BUILD_DIR" -S . -DLOCMPS_BUILD_TESTS=OFF \
    -DLOCMPS_BUILD_BENCH=OFF -DLOCMPS_BUILD_EXAMPLES=OFF >/dev/null
  mapfile -t TIDY_SOURCES < <(find src tools/lint -name '*.cpp' | sort)
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -quiet -p "$BUILD_DIR" "${TIDY_SOURCES[@]}" \
      || fail "clang-tidy reported findings"
  else
    clang-tidy -quiet -p "$BUILD_DIR" "${TIDY_SOURCES[@]}" \
      || fail "clang-tidy reported findings"
  fi
else
  skip clang-tidy
fi

echo "== cppcheck =="
if command -v cppcheck >/dev/null 2>&1; then
  cppcheck --std=c++20 --language=c++ --enable=warning,performance,portability \
    --inline-suppr --suppressions-list=.cppcheck-suppressions \
    --error-exitcode=1 --quiet -I src src tools/lint \
    || fail "cppcheck reported findings"
else
  skip cppcheck
fi

echo "== clang-format (check only, FORMAT_PATHS) =="
if command -v clang-format >/dev/null 2>&1; then
  mapfile -t FMT_FILES < <(
    find "${FORMAT_PATHS[@]}" \
      \( -name '*.cpp' -o -name '*.hpp' -o -name '*.h' \) | sort)
  clang-format --dry-run -Werror "${FMT_FILES[@]}" \
    || fail "clang-format check failed (run clang-format -i on the files above)"
else
  skip clang-format
fi

echo "== shellcheck =="
if command -v shellcheck >/dev/null 2>&1; then
  shellcheck scripts/*.sh || fail "shellcheck reported findings"
else
  skip shellcheck
fi

echo "== ruff =="
if command -v ruff >/dev/null 2>&1; then
  ruff check scripts/*.py || fail "ruff reported findings"
else
  skip ruff
fi

echo "== clang thread-safety build =="
if command -v clang++ >/dev/null 2>&1; then
  TSA_DIR="$BUILD_DIR-tsa"
  cmake -B "$TSA_DIR" -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_CXX_FLAGS="-Wthread-safety -Werror=thread-safety" \
    -DLOCMPS_BUILD_TESTS=OFF -DLOCMPS_BUILD_BENCH=OFF \
    -DLOCMPS_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$TSA_DIR" -j "$(nproc)" >/dev/null \
    || fail "clang -Werror=thread-safety build failed"
else
  skip clang++
fi

if [ "$FAILED" -ne 0 ]; then
  echo "lint.sh: one or more checks failed" >&2
  exit 1
fi
echo "lint.sh: all checks passed"
