#!/usr/bin/env bash
# Runs every example and diffs its stdout against the committed
# examples/expected/NAME.txt. The examples are deterministic (fixed seeds,
# counters and plans only, no timings or paths), so a difference is a moved
# plan, estimate, counter or result. After an intended change, regenerate
# one with: build/examples/NAME > examples/expected/NAME.txt
#
# Usage: tools/check_examples.sh [-B build_dir]     (default build dir: build)
#
# Registered as the `examples_golden` ctest entry, which is how CI runs it.

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
while [[ $# -gt 0 ]]; do
  case "$1" in
    -B) BUILD_DIR=$2; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT
failures=0

for src in examples/*.cpp; do
  name=$(basename "$src" .cpp)
  bin="$BUILD_DIR/examples/$name"
  expected="examples/expected/$name.txt"
  if [[ ! -x "$bin" ]]; then
    echo "FAIL: $bin not built (run: cmake --build $BUILD_DIR --target $name)"
    failures=$((failures + 1))
    continue
  fi
  if [[ ! -f "$expected" ]]; then
    echo "FAIL: $expected missing"
    failures=$((failures + 1))
    continue
  fi
  status=0
  "$bin" > "$OUT/$name.txt" || status=$?
  if [[ $status -ne 0 ]]; then
    echo "FAIL: $name exited with status $status"
    failures=$((failures + 1))
  elif ! diff -u "$expected" "$OUT/$name.txt"; then
    echo "FAIL: $name output differs from $expected"
    failures=$((failures + 1))
  fi
done

if [[ $failures -ne 0 ]]; then
  echo "$failures example check(s) failed"
  exit 1
fi
echo "examples match their expected output"
