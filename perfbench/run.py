#!/usr/bin/env python3
"""Builds and runs the repo benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload serve_point --seed 1 --seconds 15 --trace 0

Run from the repository root. Builds perfbench/ (and the engine through
the repo's CMakeLists) in Release under $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs one workload. Every metric is
printed as `name value unit`; the last line of standard output is the
JSON result {"correct", "attempted", "failed", "metrics"}. The exit code
is ovcbench's: 0 when every answer was right, 1 when one was wrong,
2 on bad arguments, a failed build, or a tree without the engine.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A hung ovcbench is killed after this long, so every run ends.
RUN_TIMEOUT_S = 170


def git_sha():
    """HEAD's commit when the tree is a git checkout, read without git."""
    git = os.path.join(ROOT, ".git")
    head = os.path.join(git, "HEAD")
    if not os.path.isfile(head):
        return "none"
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = os.path.join(git, ref)
    if os.path.isfile(loose):
        with open(loose) as f:
            return f.read().strip()
    packed = os.path.join(git, "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return "unknown"


def build(build_dir):
    """Configures and builds ovcbench; cmake's output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "ovcbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies table sizes (the smoke test uses 0.02)")
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("run.py: %s holds no engine sources (CMakeLists.txt, src/)" % ROOT,
              file=sys.stderr)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 2
    command = [
        os.path.join(build_dir, "ovcbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", str(args.scale),
        "--temp-dir", os.path.join(build_dir, "tmp"),
        "--git-sha", git_sha(),
    ]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: ovcbench ran past %d s and was killed" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
