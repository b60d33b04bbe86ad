"""Benchmark of the deepssm CLI: one workload, one seed, one closed loop.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload expand-dense --seed 1 --seconds 30 --trace 0

Steps: generate the workload's inputs from ``--seed``; start a fresh
worker process that imports ``deepssm`` from ``src``, warms up and runs
jobs back to back for ``--seconds`` (see ``worker.py``); start further
set-up-only workers so set-up time is a median; check every job's outputs
against the references in ``workloads.py``; print a report and, as the
last line, ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
reports its per-layer metrics from a traced run (see ``tracing.py``).
Spans and the full report are kept under ``.bench_out/``.  Exits 1 if the
worker fails or overruns, 2 if the checkout has no ``src/deepssm``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: Set-up-only workers started after the measured one; set-up time is the
#: median of all their set-ups.
SETUP_PROBES = 2
#: Every process of one run must have ended within this many seconds.
RUN_BUDGET_S = 170.0
#: Jobs beyond the tail percentile, and the lowest share of jobs below it.
TAIL_JOBS = 10
TAIL_FLOOR = 0.75
BLAS_THREADS = "1"

END_TO_END_UNITS = {
    "setup_s": "s", "job_p50_s": "s", "job_tail_s": "s", "jobs_per_s": "1/s",
    "failed_job_ratio": "ratio", "peak_rss_mb": "MB",
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("PYTHONPATH", None)
    # A fixed hash seed keeps dict and set layouts, and so the work they
    # cost, the same in every worker instead of varying from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(workdir: str, seconds: float, trace: int, setup_only: bool, deadline: float):
    """Run one worker; return its result and its set-up time, measured from
    just before the interpreter is started to the end of its warm-up job."""
    argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workdir", workdir,
            "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    result_path = os.path.join(workdir, "worker.json")
    if os.path.exists(result_path):
        os.unlink(result_path)
    with open(os.path.join(workdir, "worker.log"), "w") as log:
        spawned = now()
        proc = subprocess.Popen(argv, cwd=ROOT, env=worker_env(), stdout=log, stderr=log)
        try:
            code = proc.wait(timeout=max(deadline - now(), 1.0))
        except subprocess.TimeoutExpired:
            raise RuntimeError("worker overran the run's time budget") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        with open(os.path.join(workdir, "worker.log")) as log:
            raise RuntimeError(f"worker exited {code}:\n{log.read()[-3000:]}")
    with open(result_path) as handle:
        result = json.load(handle)
    return result, result["ready_at"] - spawned


def account(plan: dict, jobs: list[dict]) -> list[dict]:
    """Every job that did not end with exit 0 and correct outputs, with its
    reasons.  A failure is ``expected`` when it is the package's documented
    outcome for its input: a seeded training run that diverges and exits 3
    (``DivergenceDetected``), with no traceback, the same way on every job
    of that input.  Any other failure is a wrong result."""
    checker = workloads.Checker(plan)
    failures, first_code = [], {}
    for job in jobs:
        last = job["verbs"][-1]
        expected = False
        if last["code"] == 0:
            reasons = checker.check(job, job["dir"])
        else:
            reasons = [f"{last['verb']} exited {last['code']}: {last['stderr'].strip()[-300:]}"]
            expected = (plan["workload"] == "impulse-train" and last["code"] == 3
                        and "exceeds 1e6 x initial" in last["stderr"])
        if any("Traceback" in verb["stderr"] for verb in job["verbs"]):
            reasons.append("traceback on stderr")
            expected = False
        # A seeded job ends the same way every time it runs.
        first = first_code.setdefault(job["slot"], last["code"])
        if first != last["code"]:
            reasons.append(f"exit code {last['code']} differs from {first} on the same input")
            expected = False
        if reasons:
            failures.append({"index": job["index"], "slot": job["slot"], "expected": expected,
                             "reasons": reasons})
    return failures


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_JOBS jobs beyond it, but
    never below p75: in a run of few long jobs (factorize-roundtrip runs
    about 16) that rule alone would fall to the median or below.  The
    percentile is the share of jobs at or below the returned latency."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - TAIL_JOBS - 1, math.ceil(TAIL_FLOOR * len(ordered)) - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def environment(plan: dict, attempted: int) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "deepssm", "*.py"))):
        with open(path, "rb") as handle:
            digest.update(handle.read())
    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "workload": plan["workload"],
        "seed": plan["seed"],
        "jobs_attempted": attempted,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = now()
    if not os.path.isfile(os.path.join(ROOT, "src", "deepssm", "__init__.py")):
        print(f"no deepssm source tree under {ROOT}/src", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        plan = workloads.generate(args.workload, args.seed, os.path.join(workdir, "inputs"))
        with open(os.path.join(workdir, "plan.json"), "w") as handle:
            json.dump(plan, handle)
        deadline = started + RUN_BUDGET_S
        result, setup = start_worker(workdir, args.seconds, args.trace, False, deadline)
        setups = [setup]
        imports = [result["setup_s"]["import"]]
        warmups = [result["setup_s"]["warmup"]]
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe, setup = start_worker(workdir, args.seconds, 0, True, deadline)
                setups.append(setup)
                imports.append(probe["setup_s"]["import"])
                warmups.append(probe["setup_s"]["warmup"])
        checked_at = now()
        phase = result["phases"][0]
        jobs = phase["jobs"]
        traced_jobs = result["phases"][1]["jobs"] if args.trace else []
        failures = account(plan, jobs + traced_jobs)
        wrong = [f for f in failures if not f["expected"]]
        check_s = now() - checked_at
        if args.trace:
            os.replace(os.path.join(workdir, "spans.jsonl"),
                       os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = [job["latency_s"] for job in jobs]
    untraced_failures = sum(1 for f in failures if f["index"] < len(jobs))
    tail_s, tail_pct = tail(latencies)
    attempted = len(jobs) + len(traced_jobs)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_s,
        "jobs_per_s": len(jobs) / phase["wall_s"],
        "failed_job_ratio": untraced_failures / len(jobs),
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
    }
    if args.trace:
        traced = result["phases"][1]
        per_layer = dict(result["per_layer"])
        per_layer["setup.import_s"] = statistics.median(imports)
        per_layer["setup.warmup_s"] = statistics.median(warmups)
        per_layer["failed_job_ratio"] = len(failures) / attempted
        traced_rate = len(traced["jobs"]) / traced["wall_s"]
        per_layer["trace.overhead_ratio"] = traced_rate / end_to_end["jobs_per_s"]
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            wanted = json.load(handle)["per_layer"]
        # A function that no job of this workload calls reads 0.
        metrics = {m["name"]: {"value": per_layer.get(m["name"], 0), "unit": m["unit"]}
                   for m in wanted}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items() if name != "failed_job_ratio"}

    report = {
        "environment": environment(plan, attempted),
        "end_to_end": {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                       for name, value in end_to_end.items()},
        "jobs": len(jobs),
        "tail_percentile": tail_pct,
        "latencies_s": latencies,
        "setup_samples_s": setups,
        "check_s": check_s,
        "failures": failures,
    }
    if args.trace:
        report["per_layer"] = per_layer
        report["computed"] = sorted(name for name in per_layer if tracing.is_computed(name))
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as handle:
        json.dump(report, handle, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for name, value in end_to_end.items():
        extra = {"job_p50_s": f"n={len(jobs)}", "job_tail_s": f"p{tail_pct:.0f} of n={len(jobs)}",
                 "setup_s": f"median of {len(setups)}",
                 "failed_job_ratio": f"{untraced_failures} of {len(jobs)} jobs"}.get(name, "")
        print(f"  {name:<18} {value:12.6g} {END_TO_END_UNITS[name]:<6} {extra}")
    if args.trace:
        for name, entry in metrics.items():
            label = "  (computed)" if tracing.is_computed(name) else ""
            print(f"  {name:<46} {entry['value']:14.6g} {entry['unit']}{label}")
    for failure in failures[:20]:
        kind = "diverged as documented" if failure["expected"] else "WRONG"
        print(f"  failed job {failure['index']} (input {failure['slot']}, {kind}): "
              f"{failure['reasons'][0]}")
    print(json.dumps({"report": report["environment"]}))
    # ``failed`` counts wrong results only; the documented divergences are
    # in failed_job_ratio, fit.divergences and cli.exit_3.
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": len(wrong), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
