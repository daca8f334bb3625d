#!/usr/bin/env python3
"""Repository benchmark: build the program from source, run one workload, and
print its metrics; the last line of stdout is the result object.

    python3 perfbench/run.py --workload genet_abr|serve_open|fleet_mix \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test      # the benchmark's own unit tests

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under that root; build output goes to stderr. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def nproc():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def build(target):
    """Configure (once) and build `target`; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("perfbench: no program sources at %s" % ROOT)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", str(nproc())])
    for cmd in steps:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S
        )
        if proc.returncode != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(cmd))
    return os.path.join(out, target)


def source_id():
    """The commit when this is a git checkout, else a digest of the sources."""
    # Without .git here, git would look for a repository in parent directories.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return sources_digest()
    try:
        head = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return sources_digest()


def sources_digest():
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    return {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}


def check_metrics(metrics, expected):
    """Why `metrics` is not exactly the manifest's list for the mode, or None."""
    got = {name: m.get("unit") for name, m in metrics.items()}
    if set(got) != set(expected):
        return "metrics %s, BENCHMARK.json lists %s" % (sorted(got), sorted(expected))
    for name, unit in expected.items():
        value = metrics[name].get("value")
        if got[name] != unit:
            return "%s is in %s, BENCHMARK.json says %s" % (name, got[name], unit)
        if not isinstance(value, (int, float)) or value != value or abs(value) == float("inf"):
            return "%s has no finite value" % name
    return None


def clean_env():
    # The program reads GENET_* knobs (threads, math mode, tracing, logging,
    # health watchdog); the benchmark runs it with none of them set.
    return {k: v for k, v in os.environ.items() if not k.startswith("GENET_")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=["genet_abr", "serve_open", "fleet_mix"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        binary = build("perfbench_tests")
        return subprocess.run([binary], cwd=ROOT, env=clean_env()).returncode
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")

    expected = expected_metrics(args.trace)
    binary = build("perfbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", os.path.join(os.path.dirname(build_dir()), "perfbench_work"),
        "--source-id", source_id(),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=clean_env(), stdout=subprocess.PIPE,
            stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError, IndexError):
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: the measuring program printed no result")
    mismatch = check_metrics(result["metrics"], expected)
    if mismatch:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: %s: %s" % (args.workload, mismatch))
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.write(lines[-1] + "\n")
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
