#!/usr/bin/env bash
# Verifies that the documentation cannot drift from the implementation:
#
#  1. Every ```ovcsql [flags]``` / ```plan``` fence pair in docs/*.md and
#     README.md is replayed through the real ovcsql binary (with the
#     flags from the fence info string) and the output -- minus the
#     ".gen" confirmation lines -- must match the ```plan``` block byte
#     for byte. EXPLAIN output is deterministic (plan shapes and cost
#     estimates depend only on declared statistics, not data), so any
#     mismatch means the docs or the planner changed.
#  2. Every relative markdown link [text](path) in those files must
#     resolve to an existing file.
#
# Usage: tools/check_docs.sh [-B build_dir]     (default build dir: build)
#
# Wired into .github/workflows/ci.yml after the build step, and registered
# as the `check_docs` ctest entry so a local ctest run replays it too.

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

OVCSQL="$OVCSQL" python3 - <<'PYEOF'
import os
import re
import subprocess
import sys

ovcsql = os.environ["OVCSQL"]
files = ["README.md"] + sorted(
    os.path.join("docs", f) for f in os.listdir("docs") if f.endswith(".md")
)

failures = 0
snippets = 0
links = 0

def fail(msg):
    global failures
    failures += 1
    print(f"FAIL: {msg}")

fence = re.compile(r"^```(\S*)(.*)$")

# EXPLAIN ANALYZE lines carry wall-clock times (time=..ms, wall=..ms) and
# `.metrics` histogram lines carry microsecond latencies (sum=..us,
# p50=..us) that differ run to run; normalize them on both sides so the
# docs can embed real output and everything else still matches byte for
# byte.
def normalize(line):
    line = re.sub(r"\d[\d.]*ms", "?ms", line)
    return re.sub(r"\d[\d.]*us", "?us", line)

for path in files:
    with open(path) as f:
        lines = f.read().splitlines()

    # --- extract fenced blocks (language, info, body, line number) ---
    blocks = []
    i = 0
    while i < len(lines):
        m = fence.match(lines[i])
        if m and m.group(1):
            lang, info = m.group(1), m.group(2).strip()
            body, start = [], i + 1
            i += 1
            while i < len(lines) and lines[i] != "```":
                body.append(lines[i])
                i += 1
            blocks.append((lang, info, body, start))
        i += 1

    # --- replay ovcsql/plan pairs ---
    for idx, (lang, info, body, lineno) in enumerate(blocks):
        if lang != "ovcsql":
            continue
        if idx + 1 >= len(blocks) or blocks[idx + 1][0] != "plan":
            fail(f"{path}:{lineno}: ovcsql block without a following ```plan``` block")
            continue
        expected = blocks[idx + 1][2]
        args = info.split() if info else []
        script = "\n".join(body) + "\n"
        proc = subprocess.run(
            [ovcsql] + args, input=script, capture_output=True, text=True
        )
        got = [
            normalize(line)
            for line in proc.stdout.splitlines()
            if not line.startswith("table ")  # .gen confirmations
        ]
        expected = [normalize(line) for line in expected]
        snippets += 1
        if proc.returncode != 0:
            fail(f"{path}:{lineno}: ovcsql exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
        elif got != expected:
            fail(
                f"{path}:{lineno}: EXPLAIN snippet drifted\n"
                + "--- expected ---\n" + "\n".join(expected)
                + "\n--- got ---\n" + "\n".join(got)
            )

    # --- markdown link resolution ---
    text = "\n".join(lines)
    # strip fenced code before scanning for links
    stripped = re.sub(r"```.*?```", "", text, flags=re.S)
    for m in re.finditer(r"\[[^\]]+\]\(([^)\s]+)\)", stripped):
        target = m.group(1)
        if target.startswith(("http://", "https://", "#", "mailto:")):
            continue
        target = target.split("#", 1)[0]
        if not target:
            continue
        resolved = os.path.normpath(os.path.join(os.path.dirname(path), target))
        links += 1
        if not os.path.exists(resolved):
            fail(f"{path}: broken link -> {m.group(1)}")

print(f"checked {snippets} EXPLAIN snippets and {links} links across {len(files)} files")
sys.exit(1 if failures else 0)
PYEOF
