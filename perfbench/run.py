#!/usr/bin/env python3
"""End-to-end benchmark of the stack: builds rp_perfbench and runs one workload.

    python3 perfbench/run.py --workload prune_cold|potential_warm|serve_open \
        --seed N --seconds S --trace 0|1 [--threads K] [--sparse MODE]

Run it from the repository root. The first call configures and builds
perfbench/ (which pulls in the repository's libraries with their own flags)
under .bench_build/; later calls only re-check the build. Every inherited
RP_* variable is dropped so no knob leaks into a measurement; the pool width
is pinned to half the CPUs (--threads overrides it, and --sparse sets
RP_SPARSE, for the bit-identity checks). The workload's result digest is
compared with digests.json when the seed is the default one.

The last line of standard output is the result object; the record with
provenance lands in .bench_build/records/, and a traced run writes its
chrome trace to .bench_build/traces/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CHILD_TIMEOUT_S = 170


def configured_for(cmake_dir):
    """Source directory a build tree was configured for, or None."""
    try:
        with open(os.path.join(cmake_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(jobs):
    cmake_dir = os.path.join(BUILD, "cmake")
    steps = []
    if configured_for(cmake_dir) != HERE:  # fresh, or copied from another checkout
        shutil.rmtree(cmake_dir, ignore_errors=True)
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir, *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "rp_perfbench", "-j", str(jobs)])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    return os.path.join(cmake_dir, "rp_perfbench")


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def shape_metrics(result, spec, trace):
    """Every declared metric of the run's kind, in BENCHMARK.json order.

    End-to-end metrics must all be measured. A per-layer metric the workload
    does not exercise reads 0 (no time spent, nothing counted there). A
    metric that BENCHMARK.json does not declare, or a unit that differs from
    the declared one, is a benchmark bug and fails the run.
    """
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    measured = result["metrics"]
    names = {m["name"] for m in declared}
    extra = sorted(set(measured) - names)
    if extra:
        raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: {extra}")
    out = {}
    for m in declared:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                raise SystemExit(f"perfbench: end-to-end metric {m['name']} not measured")
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            raise SystemExit(f"perfbench: {m['name']} measured in {got['unit']}, "
                             f"declared in {m['unit']}")
        out[m["name"]] = got
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--threads", type=int, default=max(1, (os.cpu_count() or 2) // 2))
    ap.add_argument("--sparse", default=None, help="RP_SPARSE for this run (default: unset)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"perfbench: unknown workload {args.workload}")
    with open(os.path.join(HERE, "digests.json")) as f:
        digests = json.load(f)

    binary = build(max(1, (os.cpu_count() or 2) // 2))

    env = {k: v for k, v in os.environ.items() if not k.startswith("RP_")}
    env["RP_THREADS"] = str(args.threads)
    if args.sparse is not None:
        env["RP_SPARSE"] = args.sparse

    work = os.path.join(BUILD, "work", f"{args.workload}-{os.getpid()}")
    traces = os.path.join(BUILD, "traces")
    records = os.path.join(BUILD, "records")
    for d in (work, traces, records):
        os.makedirs(d, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", work,
           "--trace-file", os.path.join(traces, f"{tag}.json"),
           "--git-commit", git_commit(), "--source-digest", source_digest()]
    if args.seed == digests["default_seed"]:
        cmd += ["--expect-digest", digests["digests"][args.workload]]

    started = time.time()
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {args.workload} did not finish in {CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or len(lines) < 2:
        raise SystemExit(f"perfbench: {args.workload} failed (exit {done.returncode})")

    provenance = json.loads(lines[-2])
    result = json.loads(lines[-1])
    result["metrics"] = shape_metrics(result, spec, args.trace == 1)
    record = dict(provenance, result=result, elapsed_s=time.time() - started)
    with open(os.path.join(records, f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(provenance))
    print(json.dumps(result))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
