#!/usr/bin/env bash
# Runs tools/smoke.sql through ovcsql under each SQL smoke flag set and
# checks that every run exits 0 and prints the plan shapes it should:
#
#   default                          elided sort, merge join, in-stream
#                                    aggregation, estimates, EXPLAIN ANALYZE
#                                    actuals
#   --parallelism=4 --profile=FILE   exchange-parallel shapes, actuals, and
#                                    a JSON profile per profiled statement
#   low memory (64 hash rows, 256 sort rows), serial and rule-based
#   parallel: graceful degradation still plans and runs everything, and
#   each LIMIT over an unsorted table shows top= on its spilling sort,
#   in-sort aggregate and in-sort distinct
#   low memory + --fallback=partition --rule-based: recursive grace
#   partitioning, including a build key that no hash split can bring
#   under the budget
#
# Usage: tools/sql_smoke.sh [-B build_dir]     (default build dir: build)
#
# Registered as the `sql_smoke` ctest entry, which is how CI runs it.

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
while [[ $# -gt 0 ]]; do
  case "$1" in
    -B) BUILD_DIR=$2; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

OVCSQL="$BUILD_DIR/ovcsql"
if [[ ! -x "$OVCSQL" ]]; then
  echo "error: $OVCSQL not built (run: cmake --build $BUILD_DIR --target ovcsql)" >&2
  exit 2
fi

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT
failures=0

# run NAME FLAGS...: pipes the script through ovcsql into $OUT/NAME.out.
run() {
  local name=$1
  shift
  local status=0
  "$OVCSQL" "$@" < tools/smoke.sql > "$OUT/$name.out" 2>&1 || status=$?
  if [[ $status -ne 0 ]]; then
    echo "FAIL: ovcsql $* exited with status $status; last lines:"
    tail -n 5 "$OUT/$name.out"
    failures=$((failures + 1))
  fi
}

# expect NAME REGEX: run NAME printed a line matching the extended REGEX.
expect() {
  if ! grep -Eq "$2" "$OUT/$1.out"; then
    echo "FAIL: ovcsql ($1) printed nothing matching /$2/"
    failures=$((failures + 1))
  fi
}

run default
for shape in "elided-sort" "merge-join" "in-stream-aggregate" "\{rows=" \
             "rows=[0-9]+/[0-9]+"; do
  expect default "$shape"
done

run parallel --parallelism=4 --profile="$OUT/profile.json"
for shape in "merge-exchange" "split-exchange" "rows=[0-9]+/[0-9]+"; do
  expect parallel "$shape"
done
if ! python3 -c "import json, sys; [json.loads(l) for l in open(sys.argv[1])]" \
    "$OUT/profile.json"; then
  echo "FAIL: --profile wrote invalid JSON lines"
  failures=$((failures + 1))
fi

# expect_top NAME: the LIMIT 5 statements over the unsorted table handed
# their limit down to the spilling sort, in-sort aggregate and in-sort
# distinct (serial or per worker).
expect_top() {
  for shape in "sort\(top=5" "in-sort-aggregate\(group=1, top=5" \
               "in-sort-distinct\(top=5\)"; do
    expect "$1" "$shape"
  done
}

LOW_MEMORY=(--hash-memory-rows=64 --sort-memory-rows=256)
run lowmem "${LOW_MEMORY[@]}"
expect lowmem "\{rows="
expect_top lowmem
run lowmem-parallel "${LOW_MEMORY[@]}" --rule-based --parallelism=4
expect lowmem-parallel "\{rows="
expect_top lowmem-parallel
run partition "${LOW_MEMORY[@]}" --fallback=partition --rule-based
expect partition "\{rows="
expect_top partition

if [[ $failures -gt 0 ]]; then
  echo "sql_smoke: $failures failure(s)"
  exit 1
fi
echo "sql_smoke: 5 flag sets passed"
