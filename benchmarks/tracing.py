"""In-process span recorder for the traced benchmark run.

:func:`install` wraps every public function of the modules ``cli``,
``core``, ``convert``, ``symfun`` and ``fit`` under every module attribute
that binds it (``deepssm.core.kernel_by_simulation`` is also bound as
``deepssm.kernel_by_simulation``, ``deepssm.cli.kernel_by_simulation`` and
``deepssm.fit.kernel_by_simulation``), so a call through any of those names
opens a span.  Nothing in the package changes on disk and the
wrapping lives only in the process that installs it.

A span is ``[name, start, end, parent, job, outcome, computed]``.  Spans
stay in memory until :func:`summarize` reduces them to per-layer metrics
and :meth:`Recorder.dump` writes them out.

Counts whose names end in ``paths``, ``bytes``, ``rows``, ``layer_steps``
or ``time_steps`` are *computed*: derived from the shapes of the arguments
a call receives, not read from counters inside the package.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
import types

import numpy as np

from workloads import live_paths

MODULES = ("cli", "core", "convert", "symfun", "fit")
COMPUTED_SUFFIXES = ("paths", "bytes", "rows", "layer_steps", "time_steps")


def is_computed(name: str) -> bool:
    """Whether a per-layer metric is derived from argument shapes."""
    return name.endswith(COMPUTED_SUFFIXES)


def _expansion_counts(a) -> dict:
    model = a["model"]
    mats = [layer.input_matrix for layer in model.layers]
    return {"paths": model.width ** model.depth, "live_paths": live_paths(mats, model.read_out)}


def _rows(seqs) -> int:
    shape = np.shape(seqs)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


#: Computed counts per span name, from the bound call arguments.
COMPUTED = {
    "core.simulate": lambda a: {"layer_steps": a["model"].depth * np.size(a["inputs"])},
    # Output text is JSON or CSV, pure ASCII, so characters are bytes.
    "core.atomic_write_text": lambda a: {"bytes": len(a["text"])},
    "symfun.extend_homogeneous": lambda a: {"rows": _rows(a["seqs"])},
    "convert.expand_coefficients": _expansion_counts,
    "symfun.coincident_pairs": lambda a: {"bytes": 16 * np.size(a["values"]) ** 2},
    "fit.kernel_gradient": lambda a: {"time_steps": int(a["target"].horizon)},
}


class Recorder:
    """Collects spans in memory; ``job`` tags the spans of the current job."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        measure = COMPUTED.get(name)
        signature = inspect.signature(fn) if measure else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            computed = None
            if measure is not None:
                bound = signature.bind(*args, **kwargs)
                computed = measure(bound.arguments)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None, computed]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if name == "cli.run":
                span[5] = result
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def install(recorder: Recorder, package) -> None:
    """Wrap the public functions of :data:`MODULES` wherever they are bound."""
    modules = [getattr(package, short) for short in MODULES]
    holders = [package, *modules]
    for short, module in zip(MODULES, modules):
        for attr in module.__all__:
            fn = getattr(module, attr)
            if not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__:
                continue
            name = f"{short}.{attr}"
            traced = recorder.wrap(name, fn)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, traced)


def summarize(spans: list[list], jobs: list[dict]) -> dict:
    """Per-layer metrics from the spans of the traced jobs.

    Times and counts are per job, as the median over jobs; event counts
    (divergences, exit codes) are totals.  ``jobs`` holds each traced job's
    ``index`` and ``latency_s``.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_job: dict = {job["index"]: {} for job in jobs}
    covered = 0.0
    events = {"fit.divergences": 0, "cli.exit_2": 0, "cli.exit_3": 0}
    for index, (name, start, end, parent, job, outcome, computed) in enumerate(spans):
        if job not in per_job:
            continue
        acc = per_job[job]
        duration = end - start
        for key, value in (("s", duration), ("self_s", duration - child_time[index]), ("calls", 1)):
            acc[f"{name}.{key}"] = acc.get(f"{name}.{key}", 0) + value
        for key, value in (computed or {}).items():
            acc[f"{name}.{key}"] = acc.get(f"{name}.{key}", 0) + value
        if name == "cli.run":
            covered += child_time[index]
            if outcome in (2, 3):
                events[f"cli.exit_{outcome}"] += 1
        elif name == "fit.train" and outcome == "DivergenceDetected":
            events["fit.divergences"] += 1
    for acc in per_job.values():
        paths = acc.get("convert.expand_coefficients.paths", 0)
        if paths:
            acc["convert.expand_coefficients.live_ratio"] = (
                acc["convert.expand_coefficients.live_paths"] / paths
            )
    keys = sorted({key for acc in per_job.values() for key in acc})
    metrics = {
        key: statistics.median(acc.get(key, 0) for acc in per_job.values()) for key in keys
    }
    metrics.update(events)
    total = sum(job["latency_s"] for job in jobs)
    metrics["trace.coverage"] = covered / total if total else 0.0
    return metrics
