"""Seeded inputs, job chains and output checks for the benchmark workloads.

A job is a fixed chain of CLI verbs.  Every input file is generated here
from the workload seed with numpy's Philox generator and written directly
in the README's JSON formats, without calling the package, so a change to
the package cannot change the inputs.  The checks compare each job's output
files with references computed here, again without the package.

Why each workload exists (which module does most of the work):

* ``impulse-train``: one ``train-impulse`` sweep per job.  Nearly all time
  goes to ``fit``: backpropagation through time, the forward loop, and
  rebuilding the model on every step.  A few config seeds diverge at depth 3
  and exit 3; those jobs count in ``failed_job_ratio`` and
  ``fit.divergences``, not as wrong results.
* ``expand-dense``: ``expand`` then ``kernel --method closed`` on a fresh
  dense depth-5 width-6 model per job, so all 6**5 index paths are live and
  path enumeration in ``convert`` and ``core`` does nearly all the work.
* ``factorize-roundtrip``: ``factorize`` a 1201-mode teacher to depth 12
  (about 7 MB of student JSON), simulate that student for 2048 steps, then
  a ``teacher-student`` sweep whose factorized students leave only a tiny
  share of their index paths live.  JSON load/save, the pair check and the
  telescoping weights dominate.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

WORKLOADS = ("impulse-train", "expand-dense", "factorize-roundtrip")

#: Kernel taps must match the reference within this share of max |tap|.
KERNEL_RTOL = 1e-8
#: Slack of the certificate comparison, as in the package's README.
CERTIFICATE_RTOL = 1e-9

IMPULSE_CONFIG = {"shift": 5, "horizon": 64, "effective_width": 7, "depths": [1, 2, 3]}
IMPULSE_TRAIN = {"learning_rate": 0.02, "steps": 100}
# A cycle of only 4 config seeds would be too coarse: 56 of the 640 config
# seeds of workload seeds 1-20 (8.75 %) diverge at depth 3 and end their job
# in about half the time, so a run's share of short jobs would jump between
# 0, 25 and 50 % from one workload seed to the next.  With 32 seeds per run
# a workload seed has 0-7 diverging config seeds (quartiles 1.25 and 3.75;
# 4 of those 20 workload seeds have none), and a 30 s run still repeats
# some seeds, which the determinism check needs.
IMPULSE_CONFIG_SEEDS = 32

DENSE_DEPTH, DENSE_WIDTH, DENSE_HORIZON = 5, 6, 256
# Distinct models per run; a run that outlasts the pool starts over.
DENSE_POOL = 256

TEACHER_MODES, STUDENT_DEPTH, STUDENT_HORIZON = 1201, 12, 2048
SWEEP_CONFIG = {"depths": [2, 3, 4, 5, 6, 7, 8], "width": 5, "norm_scale": 4.0}
FACTORIZE_INPUTS = 4

RECORDS_HEADER = [
    "depth", "width", "seed", "final_loss", "max_param_norm",
    "equiv_shallow_max_norm", "wall_time_rel",
]

_STREAM = {name: tag for tag, name in enumerate(WORKLOADS, start=1)}


def rng_for(seed: int, workload: str, index: int) -> np.random.Generator:
    """Independent Philox stream for input ``index`` of ``workload``."""
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(_STREAM[workload], index))
    return np.random.Generator(np.random.Philox(seq))


def warmup_rng(workload: str) -> np.random.Generator:
    """Philox stream of the warm-up input, the same for every workload seed,
    so set-up time does not depend on the seed.  Its spawn key starts with
    0, which no job stream uses."""
    seq = np.random.SeedSequence(entropy=0, spawn_key=(0, _STREAM[workload]))
    return np.random.Generator(np.random.Philox(seq))


def _pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _unit_phases(rng, count) -> np.ndarray:
    return np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))


def model_json(diags, mats, read_out) -> dict:
    """Deep diagonal model in the README's model JSON format."""
    return {
        "layers": [
            {
                "state_diag": [_pair(z) for z in diag],
                "input_matrix": [[_pair(z) for z in row] for row in np.asarray(mat)],
            }
            for diag, mat in zip(diags, mats)
        ],
        "read_out": [_pair(z) for z in read_out],
    }


def _write_json(directory: str, name: str, obj) -> str:
    path = os.path.join(directory, name)
    with open(path, "w") as handle:
        json.dump(obj, handle)
        handle.write("\n")
    return path


def _seed_list(rng, count: int) -> list[int]:
    seeds: list[int] = []
    while len(seeds) < count:
        value = int(rng.integers(0, 2**31))
        if value not in seeds:
            seeds.append(value)
    return seeds


# ---------------------------------------------------------------------------
# input generation


def dense_model(rng) -> tuple[list, list, np.ndarray]:
    """Dense random depth-5 width-6 model with well-separated eigenvalues.

    The 30 eigenvalue moduli are evenly spaced over [0.3, 0.9] and dealt to
    (layer, index) slots at random, with random phases, so the modal
    expansion is well conditioned.  Every B and C entry is nonzero.
    """
    total = DENSE_DEPTH * DENSE_WIDTH
    mags = rng.permutation(np.linspace(0.3, 0.9, total))
    eigs = (mags * _unit_phases(rng, total)).reshape(DENSE_DEPTH, DENSE_WIDTH)

    def block(shape):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return z / np.sqrt(2.0 * DENSE_WIDTH)

    mats = [block((DENSE_WIDTH, 1))]
    mats += [block((DENSE_WIDTH, DENSE_WIDTH)) for _ in range(DENSE_DEPTH - 1)]
    return list(eigs), mats, block((DENSE_WIDTH,))


def modal_teacher(rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random stable 1201-mode teacher: moduli in [0.3, 0.95], read-ins/outs
    with moduli in [0.3, 1] * 2, all phases uniform."""
    n = TEACHER_MODES
    sigma = rng.uniform(0.3, 0.95, n) * _unit_phases(rng, n)
    b = rng.uniform(0.3, 1.0, n) * 2.0 * _unit_phases(rng, n)
    c = rng.uniform(0.3, 1.0, n) * 2.0 * _unit_phases(rng, n)
    return sigma, b, c


def _impulse_chain(inputs_dir: str, name: str, cfg_seed: int) -> list:
    config = dict(IMPULSE_CONFIG, train=dict(IMPULSE_TRAIN, seed=cfg_seed))
    cfg = _write_json(inputs_dir, name, config)
    return [["train-impulse", "--config", cfg, "--output", "{job}/records.csv"]]


def _dense_chain(inputs_dir: str, name: str, rng) -> list:
    model = _write_json(inputs_dir, name, model_json(*dense_model(rng)))
    return [
        ["expand", "--input", model, "--output", "{job}/table.csv"],
        ["kernel", "--input", model, "--output", "{job}/kernel.csv",
         "--horizon", str(DENSE_HORIZON), "--method", "closed"],
    ]


def _roundtrip_chain(inputs_dir: str, tag: str, rng) -> tuple[list, int]:
    sigma, b, c = modal_teacher(rng)
    teacher = _write_json(inputs_dir, f"teacher_{tag}.json", model_json([sigma], [b[:, None]], c))
    sweep_seed = _seed_list(rng, 1)[0]
    sweep = _write_json(inputs_dir, f"sweep_{tag}.json", dict(SWEEP_CONFIG, seed=sweep_seed))
    chain = [
        ["factorize", "--input", teacher, "--output", "{job}/student.json",
         "--depth", str(STUDENT_DEPTH)],
        ["kernel", "--input", "{job}/student.json", "--output", "{job}/kernel.csv",
         "--method", "sim", "--horizon", str(STUDENT_HORIZON)],
        ["teacher-student", "--config", sweep, "--output", "{job}/records.csv"],
    ]
    return chain, sweep_seed


def generate(workload: str, seed: int, inputs_dir: str) -> dict:
    """Write the inputs of one run and return its plan.

    The plan holds the warm-up chain and the cycle of job chains.  A chain
    is a list of argv lists for ``deepssm.cli.run``; ``{job}`` stands for
    the job's own output directory.  The warm-up input comes from
    :func:`warmup_rng`, the jobs' inputs from ``seed``.
    """
    os.makedirs(inputs_dir, exist_ok=True)
    jobs = []
    if workload == "impulse-train":
        warmup = _impulse_chain(inputs_dir, "impulse_warmup.json",
                                _seed_list(warmup_rng(workload), 1)[0])
        for k, cfg_seed in enumerate(_seed_list(rng_for(seed, workload, 0), IMPULSE_CONFIG_SEEDS)):
            chain = _impulse_chain(inputs_dir, f"impulse_{k:02d}.json", cfg_seed)
            jobs.append({"input": k, "seed": cfg_seed, "chain": chain})
    elif workload == "expand-dense":
        warmup = _dense_chain(inputs_dir, "dense_warmup.json", warmup_rng(workload))
        for k in range(DENSE_POOL):
            chain = _dense_chain(inputs_dir, f"dense_{k:03d}.json", rng_for(seed, workload, k))
            jobs.append({"input": k, "chain": chain})
    elif workload == "factorize-roundtrip":
        warmup, _ = _roundtrip_chain(inputs_dir, "warmup", warmup_rng(workload))
        for k in range(FACTORIZE_INPUTS):
            chain, sweep_seed = _roundtrip_chain(inputs_dir, str(k), rng_for(seed, workload, k))
            jobs.append({"input": k, "seed": sweep_seed, "chain": chain})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": int(seed), "inputs_dir": inputs_dir,
            "warmup": warmup, "jobs": jobs}


# ---------------------------------------------------------------------------
# references and output checks


def _complex(pairs) -> np.ndarray:
    return np.array([complex(*p) for p in pairs])


def _load_model(path: str):
    with open(path) as handle:
        data = json.load(handle)
    diags = [_complex(layer["state_diag"]) for layer in data["layers"]]
    mats = [np.array([_complex(row) for row in layer["input_matrix"]]) for layer in data["layers"]]
    return diags, mats, _complex(data["read_out"])


def reference_kernel(diags, mats, read_out, horizon: int) -> np.ndarray:
    """Impulse response of the diagonal stack by its own recurrence."""
    states = [np.zeros(d.size, dtype=complex) for d in diags]
    taps = np.empty(horizon, dtype=complex)
    for t in range(horizon):
        drive = mats[0][:, 0] if t == 0 else 0.0
        states[0] = diags[0] * states[0] + drive
        for i in range(1, len(diags)):
            states[i] = diags[i] * states[i] + mats[i] @ states[i - 1]
        taps[t] = read_out @ states[-1]
    return taps


def modal_kernel(sigma, weights, horizon: int) -> np.ndarray:
    """Taps sum_i weights[i] * sigma[i]**t of a modal teacher."""
    taps = np.empty(horizon, dtype=complex)
    power = np.array(weights, dtype=complex)
    for t in range(horizon):
        taps[t] = power.sum()
        power = power * sigma
    return taps


def live_paths(mats, read_out) -> int:
    """Index paths with nonzero weight: 1^T [C!=0]^T [B_l!=0] ... [B_1!=0].

    Costs O(l * m^2) instead of enumerating all m^l paths.
    """
    count = (np.asarray(mats[0])[:, 0] != 0).astype(object)
    for mat in mats[1:]:
        count = (np.asarray(mat) != 0).astype(object) @ count
    return int((np.asarray(read_out) != 0).astype(object) @ count)


def _rel_err(got, ref) -> float:
    return float(np.max(np.abs(got - ref))) / max(float(np.max(np.abs(ref))), 1e-300)


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise ValueError(f"{os.path.basename(path)} is empty")
    return rows[0], [r for r in rows[1:] if r]


def _kernel_taps(path: str) -> np.ndarray:
    header, rows = _read_csv(path)
    if header != ["t", "re", "im"]:
        raise ValueError(f"kernel CSV header {header!r}")
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        raise ValueError("kernel CSV rows are not t = 0, 1, ...")
    return np.array([complex(float(r[1]), float(r[2])) for r in rows])


def _records(path: str) -> list[tuple]:
    """Experiment CSV rows without the wall-time column."""
    header, rows = _read_csv(path)
    if header != RECORDS_HEADER:
        raise ValueError(f"records CSV header {header!r}")
    return [(int(r[0]), int(r[1]), int(r[2]), *(float(v) for v in r[3:6])) for r in rows]


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _check_kernel(path, ref) -> list[str]:
    taps = _kernel_taps(path)
    if taps.size != ref.size:
        return [f"kernel has {taps.size} taps, expected {ref.size}"]
    err = _rel_err(taps, ref)
    if err > KERNEL_RTOL:
        return [f"kernel differs from reference by {err:.3g} of max |tap|"]
    return []


class Checker:
    """Checks each finished job of one run against references computed here.

    Deterministic outputs are hashed, and each distinct output of an input
    is checked in full once; jobs on the same input must agree.
    """

    def __init__(self, plan: dict):
        self.plan = plan
        self.workload = plan["workload"]
        self._refs: dict = {}
        self._checked: dict = {}
        self._content: dict = {}

    def check(self, job: dict, job_dir: str) -> list[str]:
        spec = self.plan["jobs"][job["slot"]]
        try:
            if self.workload == "impulse-train":
                return self._impulse(spec, job_dir)
            if self.workload == "expand-dense":
                return self._dense(spec, job_dir)
            return self._roundtrip(spec, job_dir)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def _same_as_before(self, key, content) -> list[str]:
        first = self._content.setdefault(key, content)
        return [] if first == content else [f"output differs from an earlier job on input {key}"]

    def _impulse(self, spec, job_dir) -> list[str]:
        rows = _records(os.path.join(job_dir, "records.csv"))
        problems = []
        span = IMPULSE_CONFIG["effective_width"] - 1
        shapes = [(depth, span // depth + 1) for depth in IMPULSE_CONFIG["depths"]]
        if [(r[0], r[1]) for r in rows] != shapes:
            problems.append(f"records hold (depth, width) {[(r[0], r[1]) for r in rows]}")
        if any(r[2] != spec["seed"] for r in rows):
            problems.append("records carry the wrong seed")
        if any(not math.isfinite(r[3]) for r in rows):
            problems.append("non-finite final loss")
        return problems + self._same_as_before(spec["input"], rows)

    def _dense(self, spec, job_dir) -> list[str]:
        files = [os.path.join(job_dir, name) for name in ("table.csv", "kernel.csv")]
        key = (spec["input"], *map(_sha256, files))
        if key in self._checked:
            return self._checked[key]
        diags, mats, read_out = _load_model(spec["chain"][0][2])
        ref = reference_kernel(diags, mats, read_out, DENSE_HORIZON)
        problems = _check_kernel(os.path.join(job_dir, "kernel.csv"), ref)
        header, rows = _read_csv(os.path.join(job_dir, "table.csv"))
        if header != ["layer", "index", "lambda_re", "lambda_im", "xi_re", "xi_im"]:
            problems.append(f"expansion CSV header {header!r}")
        elif len(rows) != DENSE_DEPTH * DENSE_WIDTH:
            problems.append(f"expansion lists {len(rows)} eigenvalues")
        else:
            lam = np.array([complex(float(r[2]), float(r[3])) for r in rows])
            xi = np.array([complex(float(r[4]), float(r[5])) for r in rows])
            if any(lam[n] != diags[int(r[0]) - 1][int(r[1]) - 1] for n, r in enumerate(rows)):
                problems.append("expansion eigenvalues do not match the model")
            rebuilt = modal_kernel(lam, xi, DENSE_HORIZON)
            err = _rel_err(rebuilt, ref)
            if err > KERNEL_RTOL:
                problems.append(f"expansion rebuilds the kernel only to {err:.3g} of max |tap|")
        self._checked[key] = problems + self._same_as_before(key[0], key)
        return self._checked[key]

    def _roundtrip(self, spec, job_dir) -> list[str]:
        k = spec["input"]
        if k not in self._refs:
            (sigma,), (b,), c = _load_model(spec["chain"][0][2])
            weights = b[:, 0] * c
            self._refs[k] = (
                modal_kernel(sigma, weights, STUDENT_HORIZON),
                2.0 * float(np.max(np.abs(weights))) ** (1.0 / (STUDENT_DEPTH + 1)),
            )
        ref, z0 = self._refs[k]
        student, cert_path, kernel = (os.path.join(job_dir, name) for name in
                                      ("student.json", "student.cert.json", "kernel.csv"))
        key = (k, *map(_sha256, (student, cert_path, kernel)))
        if key not in self._checked:
            problems = _check_kernel(kernel, ref) + self._same_as_before(("files", k), key)
            with open(cert_path) as handle:
                cert = json.load(handle)
            _, mats, read_out = _load_model(student)
            measured = max(float(np.max(np.abs(block))) for block in [*mats, read_out])
            width = (TEACHER_MODES - 1) // STUDENT_DEPTH + 1
            if len(mats) != STUDENT_DEPTH or read_out.size != width:
                problems.append(f"student has depth {len(mats)} width {read_out.size}")
            if cert.get("satisfied") is not True:
                problems.append("certificate is not satisfied")
            if measured > z0 * (1.0 + CERTIFICATE_RTOL):
                problems.append(f"student entries reach {measured!r} above the bound {z0!r}")
            if not math.isclose(cert.get("measured_max", math.nan), measured, rel_tol=1e-12):
                problems.append("certificate measured_max disagrees with the student")
            self._checked[key] = problems
        problems = list(self._checked[key])
        rows = _records(os.path.join(job_dir, "records.csv"))
        scale = SWEEP_CONFIG["norm_scale"]
        if [r[0] for r in rows] != SWEEP_CONFIG["depths"]:
            problems.append(f"sweep records depths {[r[0] for r in rows]}")
        for depth, width, seed, loss, norm, _ in rows:
            if width != SWEEP_CONFIG["width"] or seed != spec["seed"]:
                problems.append(f"sweep record at depth {depth} has width {width} seed {seed}")
            if norm > 2.0 * scale ** (2.0 / (depth + 1)) * (1.0 + CERTIFICATE_RTOL):
                problems.append(f"sweep depth {depth} breaks its norm bound")
            if not loss <= 1e-12:
                problems.append(f"sweep depth {depth} kernel residual {loss!r}")
        return problems + self._same_as_before(k, rows)
