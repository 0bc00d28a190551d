#!/usr/bin/env python3
"""Host-time benchmark of the evolvable VM.

Run from the root of a checkout:

    python3 hostbench/run.py --workload paper-stream --seed 1 --seconds 20 --trace 0
    python3 hostbench/run.py --self-test

The first run configures and builds (CMake, Release) the repository's
libraries, the evm-served daemon and the benchmark binary into .bench_build/;
later runs only check that the build is up to date.  The binary's last
stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

preceded by a report line with provenance (git SHA, source digest,
compiler, build type and flags, nproc, seed) and the figures behind each
metric.  Exit status is nonzero when the build fails, an output differs from
the golden data, or the binary does not finish in time.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"
WORKLOADS = ("paper-stream", "relaunch", "serve-open")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the benchmark and daemon up to date."""
    jobs = str(max(1, min(8, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", "hostbench",
           "evm-served"]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def source_digest():
    """sha256 over the program sources, for provenance in non-git checkouts."""
    h = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in sorted(paths):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def run_bench(workload, seed, seconds, trace, perturb=False):
    """Runs one workload; returns (exit code, stdout lines)."""
    work = os.path.join(BUILD, "work-" + workload)
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(BUILD, "hostbench"), "--workload=" + workload,
           "--seed=%d" % seed, "--seconds=%g" % seconds,
           "--trace=%d" % trace, "--golden=" + os.path.join(HERE, "golden"),
           "--workdir=" + work,
           "--served=" + os.path.join(BUILD, "repo", "tools", "evm-served"),
           "--source-digest=" + source_digest()]
    if perturb:
        cmd.append("--perturb-golden")
    # The binary leads its own process group (with the evm-served daemon it
    # starts), so whatever happens here, nothing it started outlives the run.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("error: %s did not finish in %d s" % (workload, RUN_TIMEOUT_S))
        return 1, []
    finally:
        stop_group(proc)
    return proc.returncode, out.splitlines()


def stop_group(proc):
    """Kills what is left of the binary's process group and waits for it."""
    for _ in range(100):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        if proc.poll() is None:
            proc.wait()
        time.sleep(0.05)
    proc.wait()


def parse_result(lines):
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return res


def self_test():
    """Checks every named metric on every workload, and that a perturbed
    golden entry is reported as a failure."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_bench(name, 1, 1, trace)
            res = parse_result(lines)
            if code != 0 or res is None or not res["correct"]:
                problems.append("%s trace=%d: exit %d, result %r"
                                % (name, trace, code, res))
                continue
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append("%s trace=%d: metric %s missing or unit "
                                    "is not %s" % (name, trace, m["name"],
                                                   m["unit"]))
            extra = set(res["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                problems.append("%s trace=%d: unlisted metrics %s"
                                % (name, trace, sorted(extra)))
            log("self-test: %s trace=%d ok (%d ops)"
                % (name, trace, res["attempted"]))
        code, lines = run_bench(name, 1, 1, 0, perturb=True)
        res = parse_result(lines)
        if code == 0 or res is None or res["correct"] or res["failed"] < 1:
            problems.append("%s: perturbed golden entry not reported as a "
                            "failure (exit %d, result %r)" % (name, code, res))
        else:
            log("self-test: %s perturbed golden entry caught" % name)
    for p in problems:
        log("self-test FAILED: " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not args.self_test and not args.workload:
        ap.error("--workload or --self-test is required")
    if not build():
        log("error: build failed")
        return 1
    if args.self_test:
        return self_test()
    code, lines = run_bench(args.workload, args.seed, args.seconds,
                             args.trace)
    if parse_result(lines) is None:
        log("error: the benchmark printed no result")
        return 1
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
