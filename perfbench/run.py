#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload train-higgs --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first run configures and builds
perfbench/ (and the library it links) in $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset; later runs only rebuild
what changed. Build output goes to stderr; the benchmark's own output goes
to stdout, whose last line is the result object. Every argument is passed
on to the benchmark binary (see perfbench/README.md).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_id(root):
    """Commit id when the checkout is a git work tree, else a digest of the
    sources the benchmark builds from."""
    if (root / ".git").exists():
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    files = [root / "CMakeLists.txt"]
    for tree in ("src", "include", "perfbench"):
        files += sorted(p for p in (root / tree).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build(root, build_dir):
    def step(args):
        done = subprocess.run(args, cwd=root, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
                              check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(args)}")

    if not (build_dir / "CMakeCache.txt").exists():
        step(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", str(build_dir), "--target", "sb_perfbench",
          "-j", "4"])
    return build_dir / "sb_perfbench"


def main():
    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"no streambrain sources in {root}; run from a full checkout")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(root, build_dir / "perfbench")

    # One compute thread per caller: the workloads' own threads (serving
    # clients, ranks) are the only concurrency, so no run asks for more
    # threads than the host's cores.
    env = dict(os.environ, STREAMBRAIN_THREADS="1", OMP_NUM_THREADS="1")
    command = [str(binary), *sys.argv[1:], "--commit", source_id(root)]
    try:
        done = subprocess.run(command, cwd=root, env=env,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 3)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
