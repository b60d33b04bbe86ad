"""Byte-identity manifest: every CLI verb on fixed inputs, outputs hashed.

Usage, from the root of a checkout:

    python tools/digests.py > manifest.json

Runs each of the eight verbs, and a few refusals that exit 2 and 3, through
``deepssm.cli.main`` (``cli.run`` with the console script's one-line
warnings) in-process, on inputs written in a fresh temporary directory: a
few jobs of ``benchmarks/workloads.generate(..., 1, ...)``, imported
read-only, plus small models written here.  It prints one JSON manifest:
for each run its argv, exit code, stdout and stderr, and the sha256 of
every file the runs wrote.  Records CSVs are hashed without their
``wall_time_rel`` column, the one output that is not deterministic.

Two trees, or two runs of one tree, give the same outputs exactly when
their manifests are byte-identical; compare them with ``cmp``.  Every path
is relative to the temporary directory, so the manifest names none of it.
A run takes a few seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import os
import shutil
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]
sys.dont_write_bytecode = True  # leave benchmarks/ as it is

from deepssm import cli  # noqa: E402
import workloads  # noqa: E402

#: The one column of a records CSV that is a wall-clock time.
WALL_TIME = "wall_time_rel"


def write_json(name: str, obj, indent=None) -> str:
    with open(name, "w") as handle:
        json.dump(obj, handle, indent=indent)
    return name


def small_models(rng) -> dict:
    """Small models for the verbs and refusals that no benchmark input reaches."""

    def normal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    modes = 25
    diag = (0.3 + 0.025 * np.arange(modes)) * np.exp(1j * rng.uniform(-3, 3, modes))
    return {
        "teacher": workloads.model_json([diag], [normal(modes, 1)], normal(modes)),
        # Two modes on one eigenvalue: factorize refuses it unless perturbed.
        "degenerate": workloads.model_json([[0.5, 0.5, 0.2]], [normal(3, 1)], normal(3)),
        "unstable": workloads.model_json([[1.5, 0.5]], [[[1.0], [1.0]]], [1.0, 1.0]),
        "ragged": {"layers": [{"state_diag": [[0.5, 0.0]], "input_matrix": [[]]}],
                   "read_out": [[1.0, 0.0]]},
    }


def chains() -> list[list[list[str]]]:
    """Argv chains; the steps of one chain share an output directory, ``{job}``."""
    roundtrip = workloads.generate("factorize-roundtrip", 1, "inputs/factorize-roundtrip")
    dense = workloads.generate("expand-dense", 1, "inputs/expand-dense")
    impulse = workloads.generate("impulse-train", 1, "inputs/impulse-train")
    small = small_models(workloads.rng_for(1, "expand-dense", 10**6))
    models = {name: write_json(f"inputs/{name}.json", obj) for name, obj in small.items()}
    # save_model's layout but for the final newline: read by the JSON parser.
    indented = write_json("inputs/indented.json", small["teacher"], indent=2)
    model = dense["jobs"][0]["chain"][0][2]
    teacher, student = models["teacher"], "{job}/student.json"
    diverging = write_json("inputs/diverging.json", dict(
        workloads.IMPULSE_CONFIG, depths=[2], train={"learning_rate": 50.0, "steps": 20}
    ))
    sweep = write_json("inputs/sweep.json", {"seed": 7, "depths": [2, 3], "width": 3,
                                             "norm_scale": 2.0, "real_params": True})
    jobs = roundtrip["jobs"][:1] + dense["jobs"][:3] + impulse["jobs"][:2]
    return [job["chain"] for job in jobs] + [
        [
            ["factorize", "--input", teacher, "--output", student, "--depth", "6"],
            ["factorize", "--input", teacher, "--output", "{job}/padded.json", "--depth", "7",
             "--pad", "--certificate", "{job}/padded-certificate.json"],
            ["factorize", "--input", teacher, "--output", "{job}/wide.json", "--depth", "3",
             "--width", "13", "--pad"],
            ["kernel", "--input", student, "--output", "{job}/sim.csv", "--horizon", "300"],
            ["kernel", "--input", student, "--output", "{job}/closed.csv", "--horizon", "300",
             "--method", "closed"],
            ["collapse", "--input", student, "--output", "{job}/dense.json"],
            ["expand", "--input", student, "--output", "{job}/table.json"],
            ["verify", "--input", student, "--bound", "1e6"],
            ["verify", "--input", student, "--bound", "1e-3", "--output", "{job}/violations.json"],
        ],
        [["collapse", "--input", model, "--output", "{job}/dense.json"]],
        [["kernel", "--input", indented, "--output", "{job}/kernel.csv", "--method", "closed"]],
        [["verify", "--input", model, "--bound", "0.5"]],
        [["plan-depth", "--c1", "100", "--c2", "4", "--modes", "12"]],
        [["plan-depth", "--c1", "1e6", "--c2", "2.5", "--modes", "4001",
          "--output", "{job}/plan.json"]],
        [["teacher-student", "--config", sweep, "--output", "{job}/records.csv"]],
        [["train-impulse", "--config", impulse["jobs"][0]["chain"][0][2], "--seed", "6",
          "--real-params", "--output", "{job}/records.csv"]],
        [["kernel", "--input", models["unstable"], "--output", "{job}/kernel.csv"]],
        [["factorize", "--input", models["degenerate"], "--output", "{job}/perturbed.json",
          "--depth", "2", "--allow-perturb"]],
        # Refusals: exit 3, then exit 2.
        [["train-impulse", "--config", diverging, "--output", "{job}/records.csv"]],
        [["kernel", "--input", models["unstable"], "--output", "{job}/kernel.csv",
          "--strict-stability"]],
        [["factorize", "--input", models["degenerate"], "--output", "{job}/student.json",
          "--depth", "2"]],
        [["kernel", "--input", models["ragged"], "--output", "{job}/kernel.csv"]],
        [["kernel", "--input", "inputs/missing.json", "--output", "{job}/kernel.csv"]],
        [["kernel", "--input", diverging, "--output", "{job}/kernel.csv"]],
        [["kernel", "--input", model, "--output", "{job}/kernel.csv", "--horizon", "0"]],
        [["expand", "--input", model]],
        [["plan-depth", "--c1", "100", "--c2", "1", "--modes", "12"]],
        [["teacher-student", "--config", models["teacher"], "--output", "{job}/records.csv"]],
    ]


def run(argv: list[str]) -> dict:
    """One CLI call as the console script makes it, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    argv_before = sys.argv
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # cli.run's logging writes to the stderr of its first call.
        for handler in logging.getLogger().handlers:
            handler.setStream(err)
        sys.argv = ["deepssm", *argv]
        try:
            cli.main()
        except SystemExit as exc:
            code = exc.code
        finally:
            sys.argv = argv_before
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def digest(path: str) -> str:
    """sha256 of the file, a records CSV without its wall-time column."""
    with open(path, "rb") as handle:
        data = handle.read()
    rows = [line.split(",") for line in data.decode().split("\n")] if path.endswith(".csv") else []
    if rows and WALL_TIME in rows[0]:
        k = rows[0].index(WALL_TIME)
        data = "\n".join(",".join(row[:k] + row[k + 1 :]) for row in rows).encode()
    return hashlib.sha256(data).hexdigest()


def manifest() -> dict:
    os.makedirs("inputs")
    runs = []
    for number, chain in enumerate(chains()):
        job = f"jobs/{number:02d}"
        os.makedirs(job)
        runs += [run([arg.replace("{job}", job) for arg in argv]) for argv in chain]
    files = {
        os.path.join(top, name): digest(os.path.join(top, name))
        for top, _, names in sorted(os.walk("jobs"))
        for name in sorted(names)
    }
    return {"runs": runs, "files": files}


def main() -> int:
    start, workdir = os.getcwd(), tempfile.mkdtemp(prefix="deepssm-digests-")
    try:
        os.chdir(workdir)
        result = manifest()
    finally:
        os.chdir(start)
        shutil.rmtree(workdir)
    json.dump(result, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
