#!/usr/bin/env python3
"""Builds and runs the anycastd benchmark from the checkout's sources.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
library and the benchmark binary (Release) under .bench_build/ (or under
$CARGO_TARGET_DIR when set, relative to the checkout); later calls rebuild
incrementally. The binary's output passes through unchanged: its last line
is the JSON result. Extra arguments (--scale toy, --corrupt-oracle) go to
the binary as given. Exits non-zero, printing no result, when the build
fails.
"""
import fcntl
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(build_dir):
    """Configures (once) and builds the binary; returns its path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        binary_dir = build_dir / "perfbench"
        if not (binary_dir / "CMakeCache.txt").exists():
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(binary_dir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", str(binary_dir), "--target", "perfbench",
             "-j", str(min(4, os.cpu_count() or 1))],
            check=True, stdout=sys.stderr)
    return binary_dir / "perfbench"


def source_digest():
    """sha256 over the library sources, so a result names its code even in
    a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def main(argv):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    build_dir = build_root()
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    work_dir = build_dir / f"work-{os.getpid()}"
    command = [str(binary), *argv, "--work-dir", str(work_dir),
               "--commit", commit(), "--source-digest", source_digest()]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
