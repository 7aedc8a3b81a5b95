#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload kv_smallwrite --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

The harness is built from source (Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, under perfbench/. The last line of stdout
is the run's JSON result; build output and the human summary go to stderr.
Run details (effective knobs, sample counts, failures, determinism counts)
and traces land in <build dir>/perfbench/results/.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def clean_env():
    """The environment without NVMCP_* knobs: workloads pin every knob."""
    return {k: v for k, v in os.environ.items() if not k.startswith("NVMCP_")}


def load_declared(path):
    """Declared metrics from BENCHMARK.json, checked against its rules."""
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}", 2)
    declared = {}
    for kind in ("end_to_end", "per_layer"):
        for m in spec.get(kind, []):
            name, unit = m.get("name", ""), m.get("unit", "")
            if not NAME_RE.match(name) or not UNIT_RE.match(unit):
                fail(f"invalid metric {name!r} / unit {unit!r}", 2)
            if name in declared:
                fail(f"metric {name!r} declared twice", 2)
            if kind == "end_to_end" and not 0 < m.get("bound", 0) <= 0.25:
                fail(f"bound of {name!r} must be in (0, 0.25]", 2)
            declared[name] = (kind, unit)
    workloads = [w["name"] for w in spec.get("workloads", [])]
    return declared, workloads


def build(build_dir, env):
    """Configure once, then build incrementally (a no-op when current)."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        r = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=log, stderr=log, env=env)
        if r.returncode != 0:
            fail("configure failed", 3)
    r = subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                       stdout=log, stderr=log, env=env)
    if r.returncode != 0:
        fail("build failed", 3)
    return os.path.join(build_dir, "nvbench")


def check_result(line, declared, trace):
    """The result line must carry exactly the declared metrics of its mode."""
    try:
        res = json.loads(line)
    except ValueError:
        fail("harness printed no JSON result", 4)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(res)}", 4)
    want = {n: u for n, (k, u) in declared.items()
            if k == ("per_layer" if trace else "end_to_end")}
    got = res["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metric mismatch: missing {missing}, undeclared {extra}", 4)
    for name, m in got.items():
        if m.get("unit") != want[name]:
            fail(f"unit of {name}: {m.get('unit')} != {want[name]}", 4)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    env = clean_env()
    declared, workloads = load_declared("BENCHMARK.json")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    exe = build(build_dir, env)

    # The harness's own arithmetic and metric table first.
    if subprocess.run([exe, "--selftest"], env=env,
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("selftest failed", 5)
    if args.selftest:
        return
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {workloads}", 2)

    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", results]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 6)
    if r.returncode != 0:
        fail(f"harness exited with {r.returncode}", 6)
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("harness printed nothing", 4)
    check_result(lines[-1], declared, args.trace == 1)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
