#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads (README.md).

    python3 perfbench/run.py --workload kv-hot --seed 1 --seconds 10 --trace 0

Builds qdlpd and the perfbench harness from this checkout (Release, into
$CARGO_TARGET_DIR or .bench_build), runs the harness's self-tests, runs the
workload and prints every metric by name with its unit, a host block, and
as the last line one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set. Exits nonzero when the build, a self-test or
an output check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Per-layer metrics of the simulator path; every other per-layer metric
# belongs to the serving stack. A workload reports 0 for the layers it
# never calls into.
SWEEP_LAYERS = ("trace.", "sim.", "policies.")
BOTH_LAYERS = ("tracing.",)


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (out / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                      "qdlpd", "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log_path})")


def cmake_cache(out):
    cache = {}
    for line in (out / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    return cache


def source_digest():
    """sha256 over src/ and perfbench/, for checkouts without git."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def host_block(out, seed):
    cache = cmake_cache(out)
    zstd = cache.get("QDLP_ZSTD_LIBRARY", "")
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines() if compiler else []
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "allowed_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "compiler": version[0] if version else compiler,
        "zstd": bool(zstd) and not zstd.endswith("NOTFOUND"),
        "git_commit": commit,
        "source_sha256": source_digest(),
        "seed": seed,
    }


def run_harness(argv):
    """Runs the harness in its own process group; returns (rc, stdout)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def stop(*_):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(1)

    signal.signal(signal.SIGTERM, stop)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"harness did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, stdout


def select_metrics(spec, workload, trace, produced):
    """The metrics BENCHMARK.json names for this mode, from the harness's."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    selected = {}
    for metric in wanted:
        name = metric["name"]
        if name in produced:
            got = produced[name]
            if got["unit"] != metric["unit"]:
                fail(f"{name}: unit {got['unit']} != {metric['unit']}")
            selected[name] = got
            continue
        sweep_layer = name.startswith(SWEEP_LAYERS)
        other_family = sweep_layer != (workload == "sweep")
        if trace and other_family and not name.startswith(BOTH_LAYERS):
            selected[name] = {"value": 0, "unit": metric["unit"]}
            continue
        fail(f"the {workload} run produced no {name}")
    return selected


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no qdlp sources next to {BENCH_DIR.name}/", code=2)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found", code=2)
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"--workload must be one of {', '.join(workloads)}", code=2)

    out = build_dir()
    build(out)
    work = out / "work"
    work.mkdir(exist_ok=True)
    harness = str(out / "perfbench")
    selftest = subprocess.run([harness, "selftest", "--workdir", str(work)],
                              stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    if selftest.returncode != 0:
        fail("harness self-tests failed")

    print("host " + json.dumps(host_block(out, args.seed)), flush=True)
    rc, stdout = run_harness([
        harness, args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--qdlpd", str(out / "qdlp" / "server" / "qdlpd"),
        "--workdir", str(work)])
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"harness exited {rc} without a result")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    metrics = select_metrics(spec, args.workload, args.trace,
                             result["metrics"])
    correct = rc == 0 and result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
