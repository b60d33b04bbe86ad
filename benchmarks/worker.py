"""The workload process: import the package, warm up, run the closed loop.

Started by ``run.py`` as a fresh interpreter.  It imports ``deepssm`` from
the checkout's ``src`` directory, runs one warm-up job, records when set-up
ended on the system-wide monotonic clock, and then runs jobs back to back
(one client, the next job starts when the previous one ends) until the
time is up.  Jobs call the public ``deepssm.cli.run(argv)`` in-process, so
the 1-2 s import is paid once, as set-up.  Each verb's exit code and
stderr are kept; output files are left for ``run.py`` to check.

With ``--trace 1`` the time is split: the first half runs untraced, then
:mod:`tracing` wraps the package's public functions and the second half
runs traced, which gives the tracing overhead from one process.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class _Stream(io.TextIOBase):
    """Stands in for stdout/stderr and writes to the current job's buffer."""

    def __init__(self):
        self.target = io.StringIO()

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        return self.target.write(text)


def run_chain(cli, chain: list[list[str]], stream: _Stream) -> list[dict]:
    """Run the verbs of one job in order, stopping at the first failure.

    The verbs' stdout and stderr, including log records and warnings, go to
    ``stream``; the worker's own errors still reach the real stderr.
    """
    verbs = []
    saved = sys.stdout, sys.stderr
    sys.stdout = sys.stderr = stream
    try:
        for argv in chain:
            stream.target = io.StringIO()
            try:
                code = cli.run(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is recorded as the console script would exit
                traceback.print_exc(file=stream)
                code = 1
            verbs.append({"verb": argv[0], "code": code,
                          "stderr": stream.target.getvalue()[-4000:]})
            if code != 0:
                break
    finally:
        sys.stdout, sys.stderr = saved
    return verbs


def closed_loop(cli, plan, stream, workdir, seconds, first, recorder=None):
    """Run jobs back to back until ``seconds`` have passed; return them and
    the wall time from the first job's start to the last job's end.  Jobs
    are numbered from ``first`` and take their inputs from the start of the
    cycle."""
    jobs, index = [], first
    start = end = now()
    while end - start < seconds:
        slot = (index - first) % len(plan["jobs"])
        job_dir = os.path.join(workdir, "jobs", f"{index:06d}")
        os.makedirs(job_dir)
        chain = [[arg.replace("{job}", job_dir) for arg in argv]
                 for argv in plan["jobs"][slot]["chain"]]
        if recorder is not None:
            recorder.job = index
        began = now()
        verbs = run_chain(cli, chain, stream)
        end = now()
        jobs.append({"index": index, "slot": slot, "dir": job_dir,
                     "latency_s": end - began, "verbs": verbs})
        index += 1
    return jobs, end - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    began = now()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import deepssm
    from deepssm import cli

    source = os.path.join(ROOT, "src", "deepssm")
    if os.path.dirname(os.path.abspath(deepssm.__file__)) != source:
        print(f"imported deepssm from {deepssm.__file__}, not {source}", file=sys.stderr)
        return 2
    imported = now()

    with open(os.path.join(args.workdir, "plan.json")) as handle:
        plan = json.load(handle)
    stream = _Stream()
    warm_dir = os.path.join(args.workdir, "warmup")
    os.makedirs(warm_dir, exist_ok=True)
    warmup = run_chain(
        cli, [[arg.replace("{job}", warm_dir) for arg in argv] for argv in plan["warmup"]], stream
    )
    ready = now()
    result = {"setup_s": {"import": imported - began, "warmup": ready - imported},
              "ready_at": ready, "warmup": warmup, "phases": []}

    if not args.setup_only:
        seconds = args.seconds / 2 if args.trace else args.seconds
        jobs, wall = closed_loop(cli, plan, stream, args.workdir, seconds, 0)
        result["phases"].append({"traced": False, "wall_s": wall, "jobs": jobs})
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.trace:
            import tracing

            recorder = tracing.Recorder()
            tracing.install(recorder, deepssm)
            jobs, wall = closed_loop(
                cli, plan, stream, args.workdir, seconds, len(jobs), recorder
            )
            result["phases"].append({"traced": True, "wall_s": wall, "jobs": jobs})
            result["per_layer"] = tracing.summarize(recorder.spans, jobs)
            result["spans"] = len(recorder.spans)
            recorder.dump(os.path.join(args.workdir, "spans.jsonl"))

    with open(os.path.join(args.workdir, "worker.json"), "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
