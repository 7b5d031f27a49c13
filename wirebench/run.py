#!/usr/bin/env python3
"""Wire-level benchmark of sitime_serve: build, run one workload, report.

usage: python3 wirebench/run.py --workload cold_mix|warm_hits|edit_loop
                                --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library, sitime_serve and the
benchmark's own C++ programs (Release only) into $CARGO_TARGET_DIR, or
.bench_build when unset, then:

  --trace 0  drives the server over TCP (wirebench_client) and reports the
             end-to-end metrics of BENCHMARK.json;
  --trace 1  does the same wire run, then the traced in-process replay
             (wirebench_replay), and reports the per-layer metrics.

The last line of stdout is one JSON object with exactly the keys correct,
attempted, failed and metrics; the line before it is a human summary.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One run may take this long; the first run of a checkout also builds.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print("wirebench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(command, timeout):
    """Runs a build step with its output on stderr (stdout stays JSON)."""
    result = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr, timeout=timeout)
    if result.returncode != 0:
        fail("command failed: " + " ".join(command))


def build(build_dir, targets):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        run_logged(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(os.cpu_count() or 1)
    run_logged(["cmake", "--build", build_dir, "-j", jobs, "--target"]
               + targets, BUILD_TIMEOUT_S)


def compiler(build_dir):
    """The compiler id and version recorded in the build cache."""
    found = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
        for line in cache:
            for key in ("CMAKE_CXX_COMPILER:", "CMAKE_BUILD_TYPE:"):
                if line.startswith(key):
                    found[key] = line.split("=", 1)[1].strip()
    path = found.get("CMAKE_CXX_COMPILER:", "c++")
    try:
        version = subprocess.run([path, "-dumpfullversion"],
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip()
    except OSError:
        version = "?"
    return os.path.basename(path) + " " + version, found.get(
        "CMAKE_BUILD_TYPE:", "?")


def last_json(command):
    """Runs a benchmark program; returns the JSON on its last stdout line."""
    try:
        result = subprocess.run(command, cwd=ROOT, capture_output=True,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(command))
    sys.stderr.write(result.stderr)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        fail("failed (exit %d): %s" % (result.returncode, " ".join(command)))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold_mix", "warm_hits", "edit_loop"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    for required in ("CMakeLists.txt", "src", "tools/sitime_serve.cpp",
                     "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, required)):
            fail("no %s in %s: run from a full checkout of the repository"
                 % (required, ROOT))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    targets = ["sitime_serve", "wirebench_client"]
    if args.trace:
        targets.append("wirebench_replay")
    build(build_dir, targets)
    toolchain, build_type = compiler(build_dir)
    if build_type != "Release":
        fail("refusing to measure a %s build" % build_type)

    work = os.path.join(build_dir, "runs", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    try:
        wire = last_json(
            [os.path.join(build_dir, "wirebench_client")] + common
            + ["--server", os.path.join(build_dir, "sitime", "sitime_serve"),
               "--work", os.path.join(work, "wire"),
               "--golden", os.path.join(HERE, "golden")]
            + (["--trace"] if args.trace else []))
        runs = [wire]
        if args.trace:
            runs.append(last_json(
                [os.path.join(build_dir, "wirebench_replay")] + common
                + ["--work", os.path.join(work, "replay")]))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = {}
    for run in runs:
        measured.update(run["metrics"])
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        fail("the benchmark programs did not report: " + ", ".join(missing))
    metrics = {m["name"]: {"value": measured[m["name"]]["value"],
                           "unit": m["unit"]} for m in wanted}

    info = wire["info"]
    value = lambda name: wire["metrics"][name]["value"]
    print("wirebench %s seed=%d: setup_s=%.4f cpu_ms_per_request=%.3f "
          "throughput_rps=%.1f latency_p50_ms=%.3f latency_p99_ms=%.3f "
          "fail_ratio=%.4f peak_rss_mb=%.1f samples=%d nproc=%d "
          "compiler=%s build=%s" % (
              args.workload, args.seed, value("setup_s"),
              value("cpu_ms_per_request"), value("throughput_rps"),
              value("latency_p50_ms"), value("latency_p99_ms"),
              value("fail_ratio"), value("peak_rss_mb"), info["samples"],
              info["nproc"], toolchain, build_type))
    print(json.dumps({
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
