#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ in Release and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-check

The build, the generated datasets, the trace files and one results file per
run (with provenance) go under $CARGO_TARGET_DIR, or .bench_build when it is
unset. The last line of standard output is the JSON result; the lines before
it are human-readable: each workload's own figures (sketch rate, exact batch
times, query rate and latency percentiles, append and refresh times, each
with its sample count), a provenance record, and in a traced run the
per-layer self-time table.

--self-check builds, runs every workload at tiny scale (two seeds untraced,
one traced) and validates the output against BENCHMARK.json and the
answer checks. It takes well under a minute once built.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base) if not os.path.isabs(base) else base


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = os.path.join(build_dir(), "perfbench")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "opaq_perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT)
        if done.returncode != 0:
            return None
    return os.path.join(out, "opaq_perfbench")


def source_digest():
    """SHA-256 over the sources the binary is built from."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "include", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            if name.endswith((".cc", ".h", ".txt", ".py")):
                digest.update(os.path.relpath(name, ROOT).encode())
                with open(name, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def provenance(workload, seed, seconds, trace, lines):
    commit = None
    try:
        # Only a repository rooted here counts; an enclosing one would
        # name some other tree's commit.
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_line = next((l for l in lines if l.startswith("build: ")), "")
    sizes = [l for l in lines if l.startswith(workload + ": ")]
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "build": build_line[len("build: "):],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": sizes[0] if sizes else None,
    }


def run_binary(binary, workload, seed, seconds, trace, scale):
    """Runs one workload; returns (exit code, stdout lines, trace path)."""
    base = build_dir()
    work = os.path.join(base, "work", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(base, "traces"), exist_ok=True)
    trace_path = os.path.join(base, "traces",
                              "%s-seed%d.json" % (workload, seed))
    command = [binary, "--workload=" + workload, "--seed=%d" % seed,
               "--seconds=%s" % seconds, "--trace=%d" % trace,
               "--scale=" + scale, "--work-dir=" + work,
               "--trace-out=" + trace_path]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
        code, out = done.returncode, done.stdout
    except subprocess.TimeoutExpired as expired:
        code, out = 2, expired.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        print("%s: timed out after %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code, out.splitlines(), trace_path


def validate(result, expected, traced):
    """Problems with one result line against BENCHMARK.json's metrics."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys are %s" % sorted(result)]
    if result["correct"] is not True:
        problems.append("correct is not true")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted < 1")
    if result["failed"] != 0:
        problems.append("failed = %r" % result["failed"])
    metrics = result["metrics"]
    names = [m["name"] for m in expected]
    if list(metrics) != names:
        problems.append("metric names differ from BENCHMARK.json")
    for m in expected:
        got = metrics.get(m["name"])
        if not got or set(got) != {"value", "unit"}:
            problems.append("%s missing or malformed" % m["name"])
            continue
        if got["unit"] != m["unit"]:
            problems.append("%s unit %r != %r" % (m["name"], got["unit"],
                                                 m["unit"]))
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s is not a finite number" % m["name"])
        elif not traced and value <= 0:
            problems.append("%s = %r is not positive" % (m["name"], value))
    return problems


def self_check():
    binary = build()
    if binary is None:
        print("self-check: build failed")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for seed, trace in ((1, 0), (2, 0), (1, 1)):
            label = "%s seed=%d trace=%d" % (workload, seed, trace)
            problems = check_run(binary, spec, workload, seed, trace)
            print("self-check: %s %s" % (label, "FAILED" if problems else "ok"))
            for problem in problems:
                print("self-check:   " + problem)
            failed = failed or bool(problems)
    print("self-check: %s" % ("FAILED" if failed else "ok"))
    return 1 if failed else 0


def check_run(binary, spec, workload, seed, trace):
    """Problems with one tiny-scale run of `workload`."""
    code, lines, trace_path = run_binary(binary, workload, seed, 1, trace,
                                         "tiny")
    if code != 0 or not lines:
        return ["exit code %d" % code]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return ["last line is not JSON"]
    problems = validate(result, spec["per_layer" if trace else "end_to_end"],
                        trace == 1)
    if trace:
        try:
            with open(trace_path) as handle:
                events = json.load(handle)["traceEvents"]
            if not isinstance(events, list) or not events:
                problems.append("empty traceEvents")
        except (OSError, ValueError, KeyError):
            problems.append("trace file does not parse")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if args.self_check:
        return self_check()
    if not args.workload:
        parser.error("--workload is required")
    binary = build()
    if binary is None:
        print("build failed", file=sys.stderr)
        return 2
    code, lines, _ = run_binary(binary, args.workload, args.seed,
                                args.seconds, args.trace, "full")
    result = None
    if code in (0, 1) and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None:
        sys.stdout.write("".join(line + "\n" for line in lines))
        print("%s: no result (exit code %d)" % (args.workload, code),
              file=sys.stderr)
        return code if code != 0 else 2
    record = provenance(args.workload, args.seed, args.seconds, args.trace,
                        lines)
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as handle:
        json.dump({"provenance": record, "result": result}, handle, indent=1)
    for line in lines[:-1]:
        print(line)
    print("provenance: " + json.dumps(record, sort_keys=True))
    print(lines[-1])
    return code


if __name__ == "__main__":
    sys.exit(main())
