#!/usr/bin/env python3
"""Time-to-verified-MST benchmark: one command per workload run.

    python3 perfbench/run.py --workload sparse-serial --seed 1 --seconds 40 --trace 0

Run from the repository root. Builds the dmst library and the benchmark
driver (perfbench/mstbench.cpp) in Release under .bench_build/, runs the
driver, and prints a provenance line followed by the result line
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones and writes the span trace
to .bench_build/traces/. Exits nonzero, without a result line, when the
build fails or the build is not an NDEBUG (release) build; exits nonzero
after the result line when any output check failed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("sparse-serial", "dense-parallel", "async-alpha")
RUN_TIMEOUT_S = 175  # the whole command must end within 180 s


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    """Configures (once) and builds the driver; returns its path."""
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
                     + generator)
    steps.append(["cmake", "--build", build_dir, "--target", "mstbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                # A half-configured cache would be reused next time.
                cache = os.path.join(build_dir, "CMakeCache.txt")
                if step[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (see .bench_build/perfbench/build.log)", 3)
    return os.path.join(build_dir, "mstbench")


def source_digest(root):
    """sha256 over the library sources, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny-n graphs, for the benchmark's own tests")
    ap.add_argument("--inject-mismatch", action="store_true",
                    help="corrupt Elkin's edge set before its check "
                         "(the tests use it to prove failures are counted)")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    binary = build(root, build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(root, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")

    # The build may have taken most of a first run; the measured run gets
    # its own budget (a timeout kills the driver and waits for it).
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s", 5)
    sys.stderr.write(proc.stderr)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode not in (0, 1) or len(lines) < 2:
        fail(f"driver exited {proc.returncode} without a result", 6)
    provenance = json.loads(lines[-2])["provenance"]
    result = json.loads(lines[-1])
    if provenance["build_type"] != "release":
        fail("driver is not an NDEBUG build; timings would be meaningless", 4)

    provenance.update(nproc=len(os.sched_getaffinity(0)), commit=commit(root),
                      src_sha256=source_digest(root), seed=args.seed,
                      seconds=args.seconds, trace=int(args.trace),
                      wall_s=round(time.monotonic() - start, 3))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
