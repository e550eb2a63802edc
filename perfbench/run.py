#!/usr/bin/env python3
"""Build and run the rsmpi wall-clock benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>

Run from the root of a source tree.  The first call configures and builds
perfbench (the rsmpi library from src/ plus the program in perfbench/src)
in $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only re-check that build.  Build output goes to stderr.  The benchmark's
stdout passes through unchanged, so its last line is the result object.
Span files and run records land in .bench_out/.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when the tree is a checkout, else a digest of the
    sources the benchmark builds, so every result names what it measured."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and (ROOT / ".git").exists():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"rsmpi sources not found under {ROOT / 'src'}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(ROOT / ".bench_out"), "--source-id", source_id()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
