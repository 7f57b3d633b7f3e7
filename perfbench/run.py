#!/usr/bin/env python3
"""Served-path benchmark: build, then run one workload.

Builds perfbench/ (and with it the repository's libraries) under the
build directory, then runs one workload:

    python3 perfbench/run.py --workload orbit-steady --seed 1 \
        --seconds 10 --trace 0

--trace 0 prints every end-to-end metric, --trace 1 every per-layer
metric (see BENCHMARK.json and perfbench/layers.json, which also holds
the default --seed). The last stdout line is the JSON result.

    python3 perfbench/run.py --smoke

runs all three workloads briefly, traced and untraced, and fails unless
every run reports correct output: the benchmark's own test.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("orbit-steady", "dense-dolly", "fleet-durable")
# A run must end within 180 s; leave room to report.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout) == 0
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return False


def build():
    """Configure (once) and build neo_perfbench; path of the binary or None."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log("no CMakeLists.txt at the checkout root; nothing to benchmark")
        return None
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd, BUILD_TIMEOUT_S):
            log("configure failed")
            return None
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not run_quiet(["cmake", "--build", out, "--target", "neo_perfbench",
                      "-j", jobs], BUILD_TIMEOUT_S):
        log("build failed")
        return None
    binary = os.path.join(out, "neo_perfbench")
    return binary if os.path.isfile(binary) else None


def commit_id():
    """Git commit of the checkout, or "none" outside a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """SHA-256 prefix over the sources the benchmark builds."""
    h = hashlib.sha256()
    for top in ("src", "cmake", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return h.hexdigest()[:16]


def run_binary(binary, argv):
    """Run the benchmark binary, echo its stdout; (code, last line)."""
    cmd = [binary] + argv + [
        "--artifacts", os.path.join(build_dir(), "perfbench-runs"),
        "--commit", commit_id(), "--source", source_digest()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("benchmark timed out")
        return 1, ""
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = [line for line in out.splitlines() if line.strip()]
    return proc.returncode, lines[-1] if lines else ""


def smoke(binary):
    """Every workload, traced and untraced, one short run each."""
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, last = run_binary(binary, [
                "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", trace, "--setups", "1"])
            try:
                result = json.loads(last)
                good = code == 0 and result["correct"] is True
            except (ValueError, KeyError, TypeError):
                good = False
            log(f"smoke {workload} trace={trace}: {'ok' if good else 'FAILED'}")
            ok = ok and good
    return 0 if ok else 1


def main():
    with open(os.path.join(HERE, "layers.json")) as f:
        default_seed = json.load(f)["default_seed"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=default_seed)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="short run of every workload (self-test)")
    args = parser.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds,
                                   args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build()
    if binary is None:
        return 2
    if args.smoke:
        return smoke(binary)
    code, _ = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace)])
    return code


if __name__ == "__main__":
    sys.exit(main())
