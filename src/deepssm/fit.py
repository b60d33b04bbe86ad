"""Kernel-space fitting and the desk-scale experiment drivers.

Training minimizes the squared kernel mismatch

    L(model) = sum_t |rho_model(t) - rho_target(t)|^2

by plain full-batch gradient descent.  The gradient is computed by
backpropagating through the impulse-driven recurrence; for a complex
parameter ``p`` the reported value is ``dL/d Re(p) + i dL/d Im(p)``, so
a real-initialized model fitting a real target stays exactly real.

Two drivers mirror the package's headline comparison: a teacher-student
sweep that factorizes random modal teachers at several depths and records
the certified norms, and an impulse-fitting sweep across depths at a
fixed effective width ``depth * (width - 1) + 1``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .convert import CERTIFICATE_RTOL, expand_coefficients, factorize
from .core import (
    ConvolutionKernel,
    DEFAULT_HORIZON,
    DeepLinearSSM,
    LayerParams,
    ShallowRealization,
    _csv_text,
    _layer_blocks,
    _response,
    _stack,
    atomic_write_text,
    parameter_norm,
)
from .errors import (
    DeepSsmError,
    DivergenceDetected,
    HorizonMismatch,
    ResonantEigenvalues,
    ShapeMismatch,
    ShiftOutOfHorizon,
    ZeroEigenvalue,
    _checked,
)

__all__ = [
    "ImpulseTarget",
    "impulse_target",
    "TrainConfig",
    "ModelGradient",
    "ExperimentRecord",
    "seeded_rng",
    "init_model",
    "sample_teacher",
    "kernel_loss",
    "kernel_gradient",
    "train",
    "teacher_student_experiment",
    "depth_sweep_impulse",
    "records_csv_text",
    "save_records_csv",
]

logger = logging.getLogger(__name__)

#: Training keeps eigenvalue moduli at or below this when projection is on.
_STABILITY_CLIP = 1.0 - 1e-6


def seeded_rng(seed: int, *branch: int) -> np.random.Generator:
    """Counter-based generator for ``seed``, split by an optional branch key.

    All randomness in the experiment drivers flows through this, so a run
    is reproducible from its seed alone and cells draw independent streams.
    """
    seq = np.random.SeedSequence(
        entropy=_checked("seed", seed, int, low=0),
        spawn_key=tuple(_checked("branch", b, int, low=0) for b in branch),
    )
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class ImpulseTarget:
    """Target kernel that is 1 at tap ``shift`` and 0 elsewhere."""

    shift: int
    horizon: int = DEFAULT_HORIZON

    def __post_init__(self):
        _checked("horizon", self.horizon, int, low=1)
        if not 0 <= _checked("shift", self.shift, int) < self.horizon:
            raise ShiftOutOfHorizon(
                f"shift {self.shift} falls outside horizon {self.horizon}"
            )

    def kernel(self) -> ConvolutionKernel:
        taps = np.zeros(self.horizon, dtype=complex)
        taps[self.shift] = 1.0
        return ConvolutionKernel(taps)


def impulse_target(shift: int, horizon: int = DEFAULT_HORIZON) -> ImpulseTarget:
    return ImpulseTarget(shift=shift, horizon=horizon)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the plain gradient-descent loop."""

    learning_rate: float = 0.05
    steps: int = 2000
    seed: int = 0
    init_scale: float = 1.0
    stability_projection: bool = True

    def __post_init__(self):
        _checked("learning_rate", self.learning_rate, float, low=0)
        _checked("init_scale", self.init_scale, float, above=0)
        _checked("steps", self.steps, int, low=0)
        _checked("seed", self.seed, int, low=0)
        _checked("stability_projection", self.stability_projection, bool)

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data) -> "TrainConfig":
        if not isinstance(data, dict):
            raise ShapeMismatch("train config must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ShapeMismatch(f"unknown train config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class ModelGradient:
    """Loss gradient in the same block layout as the model parameters."""

    state_diags: tuple[np.ndarray, ...]
    input_matrices: tuple[np.ndarray, ...]
    read_out: np.ndarray

    def max_abs(self) -> float:
        blocks = [*self.state_diags, *self.input_matrices, self.read_out]
        return max(float(np.max(np.abs(b))) for b in blocks)


def _target_kernel(target) -> ConvolutionKernel:
    if isinstance(target, ImpulseTarget):
        return target.kernel()
    if isinstance(target, ConvolutionKernel):
        return target
    raise ShapeMismatch(
        f"target must be a ConvolutionKernel or ImpulseTarget, got {type(target)!r}"
    )


def _trajectories(states, mixes, drive: np.ndarray) -> list[np.ndarray]:
    """Every layer's ``(T, m)`` states from the engine in :mod:`.core`."""
    out = [np.empty((len(drive), len(a)), dtype=complex) for a in states]
    for i, rows, h in _layer_blocks(states, mixes, drive):
        out[i][rows] = h
    return out


def kernel_loss(model_or_kernel, target) -> float:
    """Squared kernel mismatch against the target at the target's horizon."""
    ref = _target_kernel(target)
    if isinstance(model_or_kernel, DeepLinearSSM):
        # No stability gate: training visits the radius-one boundary.
        impulse = np.eye(ref.horizon, 1)
        probe = _response(*_stack(model_or_kernel), model_or_kernel.read_out, impulse)
    else:
        probe_kernel = _target_kernel(model_or_kernel)
        if probe_kernel.horizon != ref.horizon:
            raise HorizonMismatch(
                f"kernel horizons differ: {probe_kernel.horizon} vs {ref.horizon}"
            )
        probe = probe_kernel.taps
    residual = probe - ref.taps
    return float(np.sum(residual.real ** 2 + residual.imag ** 2))


def kernel_gradient(model: DeepLinearSSM, target) -> ModelGradient:
    """Gradient of :func:`kernel_loss` by backpropagation through time.

    The adjoint is the recurrence engine run backwards in time on the reversed
    stack: conj(residual) C drives the top layer, B_{i+1}^T adj_{i+1} layer i.
    Each gradient block is then one product over the whole trajectory.
    """
    return _loss_and_gradient(model, _target_kernel(target))[1]


def _loss_and_gradient(model: DeepLinearSSM, ref: ConvolutionKernel):
    """:func:`kernel_loss` and :func:`kernel_gradient` from one forward pass."""
    diags, mats = _stack(model)
    impulse = np.eye(ref.horizon, 1)
    states = _trajectories(diags, mats, impulse)
    residual = states[-1] @ model.read_out - ref.taps
    loss = float(np.sum(residual.real ** 2 + residual.imag ** 2))
    weights = np.conj(residual)
    down = [model.read_out[:, None], *(mat.T for mat in mats[:0:-1])]
    adjoints = [a[::-1] for a in reversed(_trajectories(diags[::-1], down, weights[::-1, None]))]
    return loss, ModelGradient(
        state_diags=tuple(
            2.0 * np.conj(np.sum(adj[1:] * h[:-1], axis=0))
            for adj, h in zip(adjoints, states)
        ),
        input_matrices=tuple(
            2.0 * np.conj(adj.T @ h) for adj, h in zip(adjoints, [impulse, *states])
        ),
        read_out=2.0 * np.conj(weights @ states[-1]),
    )


def _descend(
    model: DeepLinearSSM, grad: ModelGradient, rate: float, project: bool
) -> DeepLinearSSM:
    layers = []
    for i, layer in enumerate(model.layers):
        diag = layer.state_diag - rate * grad.state_diags[i]
        if project:
            mags = np.abs(diag)
            over = mags > _STABILITY_CLIP
            if np.any(over):
                shrink = np.where(over, _STABILITY_CLIP / np.maximum(mags, 1e-300), 1.0)
                diag = diag * shrink
        layers.append(LayerParams(diag, layer.input_matrix - rate * grad.input_matrices[i]))
    return DeepLinearSSM(tuple(layers), model.read_out - rate * grad.read_out)


def train(
    model: DeepLinearSSM, target, config: TrainConfig
) -> tuple[DeepLinearSSM, np.ndarray]:
    """Gradient-descent fit of the model kernel to the target kernel.

    Returns the fitted model and the loss trace (initial loss plus one
    entry per step).  Raises :class:`DivergenceDetected` once the loss
    exceeds a million times its initial value.
    """
    ref = _target_kernel(target)
    loss, grad = _loss_and_gradient(model, ref)
    trace = [loss]
    ceiling = 1e6 * trace[0] if trace[0] > 0 else np.inf
    for step in range(1, config.steps + 1):
        model = _descend(model, grad, config.learning_rate, config.stability_projection)
        # The loss of each new model comes with its gradient; the last needs none.
        if step < config.steps:
            loss, grad = _loss_and_gradient(model, ref)
        else:
            loss = kernel_loss(model, ref)
        trace.append(loss)
        if loss > ceiling:
            raise DivergenceDetected(
                f"loss {loss:.3e} exceeds 1e6 x initial {trace[0]:.3e}"
            )
    return model, np.asarray(trace)


def init_model(
    depth: int,
    width: int,
    rng: np.random.Generator,
    *,
    init_scale: float = 1.0,
    real: bool = False,
) -> DeepLinearSSM:
    """Random starting point: stable spectra, Gaussian read/mix blocks.

    Eigenvalue moduli are uniform on [0.5, 0.95] with uniform phases
    (uniform signs when ``real``); B and C entries are (complex) Gaussian
    scaled by ``init_scale / sqrt(width)``.
    """
    _checked("depth", depth, int, low=1)
    _checked("width", width, int, low=1)
    _checked("init_scale", init_scale, float, above=0)

    def block(shape) -> np.ndarray:
        scale = init_scale / np.sqrt(width)
        if real:
            return rng.standard_normal(shape) * scale
        parts = rng.standard_normal((2, *shape))
        return (parts[0] + 1j * parts[1]) * (scale / np.sqrt(2.0))

    def spectrum() -> np.ndarray:
        mags = rng.uniform(0.5, 0.95, width)
        if real:
            return mags * rng.choice([-1.0, 1.0], width)
        return mags * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, width))

    layers = [LayerParams(spectrum(), block((width, 1)))]
    layers.extend(
        LayerParams(spectrum(), block((width, width))) for _ in range(depth - 1)
    )
    return DeepLinearSSM(tuple(layers), block((width,)))


def sample_teacher(
    mode_count: int,
    scale: float,
    rng: np.random.Generator,
    *,
    real: bool = False,
) -> ShallowRealization:
    """Random well-separated stable modal teacher with entries up to ``scale``.

    Mode moduli are spread over [0.3, 0.95] (hence pairwise distinct) with
    random phases or signs; read vectors have entry moduli in
    [0.3, 1] * scale, so ``max |b_i c_i|`` sits near ``scale**2``.
    """
    _checked("mode_count", mode_count, int, low=1)
    _checked("scale", scale, float, above=0)
    moduli = np.linspace(0.3, 0.95, mode_count)

    def vector() -> np.ndarray:
        mags = rng.uniform(0.3, 1.0, mode_count) * scale
        if real:
            return mags * rng.choice([-1.0, 1.0], mode_count)
        return mags * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, mode_count))

    if real:
        sigma = moduli * rng.choice([-1.0, 1.0], mode_count)
    else:
        sigma = moduli * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, mode_count))
    return ShallowRealization(sigma, vector(), vector())


@dataclass(frozen=True)
class ExperimentRecord:
    """One sweep cell: shape, seed, and the measured outcome numbers."""

    depth: int
    width: int
    seed: int
    final_loss: float
    max_param_norm: float
    equiv_shallow_max_norm: float
    wall_time: float

    @property
    def effective_width(self) -> int:
        return self.depth * (self.width - 1) + 1

    def content(self) -> tuple:
        """Record fields that determinism guarantees cover (no wall time)."""
        return (
            self.depth,
            self.width,
            self.seed,
            self.final_loss,
            self.max_param_norm,
            self.equiv_shallow_max_norm,
        )


def teacher_student_experiment(
    seed: int,
    depths,
    width: int,
    norm_scale: float,
    *,
    real: bool = False,
    horizon: int = DEFAULT_HORIZON,
) -> list[ExperimentRecord]:
    """Factorize random teachers at several depths; record certified norms.

    For each depth l a fresh teacher with ``l * (width - 1) + 1`` modes and
    parameter scale ``norm_scale`` is sampled, factorized, and expanded
    back.  Every cell is checked against the depth bound
    ``2 * norm_scale ** (2 / (l + 1))``; a violation raises, since the
    construction guarantees it.
    """
    _checked("seed", seed, int, low=0)
    _checked("width", width, int, low=1)
    _checked("norm_scale", norm_scale, float, above=0)
    _checked("horizon", horizon, int, low=1)
    depths = [_checked("depth", depth, int, low=1) for depth in depths]
    records = []
    for cell, depth in enumerate(depths):
        rng = seeded_rng(seed, cell)
        teacher = sample_teacher(depth * (width - 1) + 1, norm_scale, rng, real=real)
        start = time.perf_counter()
        student, certificate = factorize(teacher, depth)
        table = expand_coefficients(student)
        wall = time.perf_counter() - start
        loss = kernel_loss(student, teacher.kernel(horizon))
        bound = 2.0 * norm_scale ** (2.0 / (depth + 1))
        if certificate.measured_max > bound * (1.0 + CERTIFICATE_RTOL):
            raise DeepSsmError(
                f"depth {depth} factorization broke its norm bound: "
                f"{certificate.measured_max} > {bound}"
            )
        records.append(
            ExperimentRecord(
                depth=depth,
                width=width,
                seed=int(seed),
                final_loss=loss,
                max_param_norm=certificate.measured_max,
                equiv_shallow_max_norm=table.max_coefficient(),
                wall_time=wall,
            )
        )
    return records


def depth_sweep_impulse(
    shift: int,
    horizon: int,
    effective_width: int,
    depths,
    config: TrainConfig,
    *,
    real: bool = False,
) -> list[ExperimentRecord]:
    """Fit the shifted impulse at several depths of one effective width.

    Depths that do not divide ``effective_width - 1`` have no admissible
    layer width and are skipped with a notice.  Each cell trains from a
    depth-keyed stream of ``config.seed``, so runs are reproducible and
    insensitive to which other depths are requested.
    """
    target = impulse_target(shift, horizon).kernel()
    _checked("effective_width", effective_width, int, low=1)
    depths = [_checked("depth", depth, int, low=1) for depth in depths]
    records = []
    for depth in depths:
        if (effective_width - 1) % depth != 0:
            logger.warning(
                "depth %d skipped: effective width %d is not depth * (width - 1) + 1",
                depth,
                effective_width,
            )
            continue
        width = (effective_width - 1) // depth + 1
        rng = seeded_rng(config.seed, depth)
        model = init_model(depth, width, rng, init_scale=config.init_scale, real=real)
        start = time.perf_counter()
        fitted, trace = train(model, target, config)
        wall = time.perf_counter() - start
        try:
            equiv = expand_coefficients(fitted).max_coefficient()
        except (ResonantEigenvalues, ZeroEigenvalue):
            equiv = float("nan")
        records.append(
            ExperimentRecord(
                depth=depth,
                width=width,
                seed=config.seed,
                final_loss=float(trace[-1]),
                max_param_norm=parameter_norm(fitted),
                equiv_shallow_max_norm=equiv,
                wall_time=wall,
            )
        )
    return records


def records_csv_text(records) -> str:
    """Render records with wall time relative to the depth-1 cell."""
    records = list(records)
    base = next((r.wall_time for r in records if r.depth == 1), None)
    if base is None and records:
        base = records[0].wall_time
    if not base or base <= 0:
        base = 1.0
    header = "depth,width,seed,final_loss,max_param_norm,equiv_shallow_max_norm,wall_time_rel"
    return _csv_text(header, (r.content() + (r.wall_time / base,) for r in records))


def save_records_csv(records, path) -> None:
    atomic_write_text(path, records_csv_text(records))
