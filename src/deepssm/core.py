"""Model types, simulation, kernel evaluation, and membership checks.

The central object is a deep linear state-space model with diagonal state
matrices: scalar input x(t) and output y(t) related by

    h_1(t) = A_1 h_1(t-1) + B_1 x(t)
    h_i(t) = A_i h_i(t-1) + B_i h_{i-1}(t),   i = 2..l
    y(t)   = C^T h_l(t)

with every state zero before t = 0 and no conjugation in the read-out.
Because the map x -> y is linear and time invariant, the model is fully
described by its convolution kernel rho with y = rho * x, and rho(t) is
the response to the unit impulse at t = 0.  Two kernel paths are provided:
:func:`kernel_by_simulation` runs the recurrence above on the impulse,
while :func:`kernel_closed_form` sums, over all index paths through the
layers, the path weight times a complete homogeneous sum of the visited
eigenvalues.  It never enumerates the m^l paths: it groups them by their
last index and builds the sums one layer at a time with the blocked
Toeplitz filter :func:`~deepssm.symfun.extend_homogeneous`, in
O(l * m^2 * T + l * m * T * min(sqrt(T), 32)).  The two share no time
stepping and must agree to rounding; tests lean on that.

One engine, :func:`_layer_blocks`, runs every recurrence in the package.
Layers couple only within a time step, so each layer is a first-order scan
over time, run per block of ``_BLOCK`` steps seeded with the last state of
the block before.  :func:`_scan` is the work-efficient prefix scan
(Blelloch 1990): while more than ``_DOUBLING_ROWS`` rows remain it pairs
them, ``h[1::2] += A h[:-1:2]``, scans the odd rows with A^2 and fills in
the even ones, ``h[2::2] += A h[1:-1:2]``; the last few rows double,
``h[k:] += A^k h[:-k]`` for k = 1, 2, 4, ...  That is about two row
updates per step, where doubling alone makes log2 of the block.
Where a power up to half a block could overflow, the block is shorter, so
every power used is finite, the products are plain ones, and no state
overflows before it does step by step.
Scratch memory is three ``(_BLOCK, width)`` buffers, allocated once per run
and reused by every layer and block, whatever the depth and horizon; so a
state block the engine yields is valid only until it yields the next.

Every array of every model type is built by :func:`~deepssm.symfun._array`,
one rule for the package: not a rectangular nest of numbers, the wrong
rank, empty or a non-square state matrix is :class:`ShapeMismatch`, a
non-finite entry :class:`DomainError`, and a length or row count off the
model's width :class:`WidthMismatch`.  :class:`DenseSSM` is valid exactly
when its one-layer :class:`DenseDeepSSM` is, but its refusals name its own
fields, and :class:`DeepLinearSSM` checks only the shapes of layers that
checked their own arrays.

Every file format lives in one codec at the end of this module.
A complex array of any rank is written as nested ``[re, im]`` pairs
(matrices row-major), the layout of :func:`_pairs`, and
:func:`_complex_array` reads it back, refusing anything but a rectangular
nest of int or float pairs, through one flat float buffer.  One JSON writer
(exactly ``json.dumps(indent=2)``; to a file replaced atomically or to
stdout) and one CSV formatter write every file.  The writer takes complex
arrays as they are and formats a vector or matrix from its floats, with one
shared string for every ``+0.0`` pair; it streams the text, one array at a
time.  Floats are written as their
shortest round-trip decimal and read back through a float-to-complex view,
so round trips are bit-for-bit, signed zeros included.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import sys
import tempfile
import warnings
from dataclasses import asdict, dataclass, field, is_dataclass

import numpy as np

from .errors import (
    DomainError,
    NumericalError,
    ShapeMismatch,
    StabilityWarning,
    UnstableModel,
    WidthMismatch,
    _checked,
)
from .symfun import _array, _mix, extend_homogeneous

__all__ = [
    "DEFAULT_HORIZON",
    "LayerParams",
    "DeepLinearSSM",
    "ShallowRealization",
    "ConvolutionKernel",
    "DenseSSM",
    "DenseDeepSSM",
    "MembershipReport",
    "simulate",
    "kernel_by_simulation",
    "kernel_closed_form",
    "check_membership",
    "parameter_norm",
    "model_to_json_dict",
    "model_from_json_dict",
    "save_model",
    "load_model",
    "save_dense",
    "load_dense",
    "kernel_csv_text",
    "save_kernel_csv",
    "atomic_write_text",
]

#: Default truncation horizon for kernels; long enough that stable spectra
#: have decayed well below working precision at typical moduli.
DEFAULT_HORIZON = 64


def _finite(arr: np.ndarray, what: str, base: int = 0) -> np.ndarray:
    """``arr``, unless an entry overflowed: then :class:`NumericalError` names
    the first, counting its indices from ``base``."""
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        index = tuple(int(i) for i in bad[0])
        label = tuple(i + base for i in index)
        label = label[0] if len(label) == 1 else label
        raise NumericalError(f"{what} {label} overflowed to {arr[index]}")
    return arr


def _check_stack(states, mats) -> int:
    """The width m of a layer stack with these A_i and B_i, which must be
    as many, non-empty, all of width m, with B_1 of shape (m, 1) and every
    other B_i (m, m)."""
    if not states or len(states) != len(mats):
        raise ShapeMismatch(
            f"a model needs one input matrix per layer and at least one layer, "
            f"got {len(mats)} for {len(states)}"
        )
    m = len(states[0])
    if mats[0].shape[1] != 1:
        raise ShapeMismatch(f"layer 1 input matrix must have one column, got {mats[0].shape}")
    for i, (a, b) in enumerate(zip(states, mats), start=1):
        want = (m, 1 if i == 1 else m)
        if len(a) != m or b.shape != want:
            raise WidthMismatch(
                f"layer {i} has width {len(a)} and input matrix shape {b.shape}, "
                f"expected width {m} and {want}"
            )
    return m


@dataclass(frozen=True)
class LayerParams:
    """One layer: diagonal state matrix plus dense input map.

    ``state_diag`` holds the diagonal of the state matrix; ``input_matrix``
    is ``(m, 1)`` for the first layer (it multiplies the scalar input) and
    ``(m, m)`` for deeper layers (it multiplies the previous layer's state).
    """

    state_diag: np.ndarray
    input_matrix: np.ndarray

    def __post_init__(self):
        diag = _array(self.state_diag, "state_diag", 1)
        mat = _array(self.input_matrix, "input_matrix", 2, len(diag))
        object.__setattr__(self, "state_diag", diag)
        object.__setattr__(self, "input_matrix", mat)

    @property
    def width(self) -> int:
        return self.state_diag.size


@dataclass(frozen=True)
class DeepLinearSSM:
    """Stack of diagonal-state layers with a shared width and one read-out."""

    layers: tuple[LayerParams, ...]
    read_out: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        # Each layer checked its own arrays; only their shapes are checked here.
        m = _check_stack(*_stack(self))
        object.__setattr__(self, "read_out", _array(self.read_out, "read_out", 1, m))

    @property
    def width(self) -> int:
        return self.layers[0].width

    @property
    def depth(self) -> int:
        return len(self.layers)

    def spectral_radius(self) -> float:
        return max(float(np.max(np.abs(layer.state_diag))) for layer in self.layers)

    def constrained_parameters(self):
        """Yield ``(name, array)`` for every norm-constrained parameter block."""
        yield "B1", self.layers[0].input_matrix
        for i, layer in enumerate(self.layers[1:], start=2):
            yield f"B{i}", layer.input_matrix
        yield "C", self.read_out


@dataclass(frozen=True)
class ShallowRealization:
    """Width-K single recurrence in modal form: kernel(t) = sum c_i b_i s_i^t."""

    eigenvalues: np.ndarray
    read_in: np.ndarray
    read_out: np.ndarray

    def __post_init__(self):
        eig = _array(self.eigenvalues, "eigenvalues", 1)
        object.__setattr__(self, "eigenvalues", eig)
        object.__setattr__(self, "read_in", _array(self.read_in, "read_in", 1, len(eig)))
        object.__setattr__(self, "read_out", _array(self.read_out, "read_out", 1, len(eig)))

    @property
    def mode_count(self) -> int:
        return self.eigenvalues.size

    def weights(self) -> np.ndarray:
        """Per-mode kernel weights ``read_in * read_out``."""
        return np.asarray(self.read_in * self.read_out)

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.eigenvalues)))

    def kernel(self, horizon: int = DEFAULT_HORIZON) -> "ConvolutionKernel":
        ts = np.arange(_checked("horizon", horizon, int, low=1))
        with np.errstate(over="ignore", invalid="ignore"):
            taps = (self.eigenvalues[:, None] ** ts[None, :] * self.weights()[:, None]).sum(axis=0)
        return _kernel(taps)

    def as_model(self) -> DeepLinearSSM:
        """Equivalent one-layer :class:`DeepLinearSSM`."""
        layer = LayerParams(self.eigenvalues, self.read_in[:, None])
        return DeepLinearSSM((layer,), self.read_out)

    @classmethod
    def from_model(cls, model: DeepLinearSSM) -> "ShallowRealization":
        if model.depth != 1:
            raise ShapeMismatch(
                f"expected a one-layer model, got depth {model.depth}"
            )
        layer = model.layers[0]
        return cls(layer.state_diag, layer.input_matrix[:, 0], model.read_out)


@dataclass(frozen=True)
class ConvolutionKernel:
    """Causal kernel taps rho(0..T-1) of a linear time-invariant map."""

    taps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "taps", _array(self.taps, "taps", 1))

    @property
    def horizon(self) -> int:
        return self.taps.size


@dataclass(frozen=True)
class DenseSSM:
    """One-layer recurrence with a general (dense) state matrix."""

    state_matrix: np.ndarray
    read_in: np.ndarray
    read_out: np.ndarray

    def __post_init__(self):
        # The rule of its one-layer dense stack, naming its own fields.
        state = _array(self.state_matrix, "state_matrix", 2, square=True)
        column = _array(self.read_in, "read_in", 2)  # a vector stands for a column
        if column.shape[1] != 1:
            raise ShapeMismatch(f"read_in must be a vector or a column, got shape {column.shape}")
        object.__setattr__(self, "state_matrix", state)
        object.__setattr__(self, "read_in", _array(column[:, 0], "read_in", 1, len(state)))
        object.__setattr__(self, "read_out", _array(self.read_out, "read_out", 1, len(state)))

    @property
    def width(self) -> int:
        return self.state_matrix.shape[0]

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.state_matrix))))

    def kernel(self, horizon: int = DEFAULT_HORIZON) -> ConvolutionKernel:
        """Taps ``read_out^T A^t read_in``."""
        return DenseDeepSSM((self.state_matrix,), (self.read_in,), self.read_out).kernel(horizon)


@dataclass(frozen=True)
class DenseDeepSSM:
    """Layer stack like :class:`DeepLinearSSM` but with dense state matrices."""

    state_matrices: tuple[np.ndarray, ...]
    input_matrices: tuple[np.ndarray, ...]
    read_out: np.ndarray

    def __post_init__(self):
        states = tuple(
            _array(a, f"layer {i} state matrix", 2, square=True)
            for i, a in enumerate(self.state_matrices, start=1)
        )
        inputs = tuple(
            _array(b, f"layer {i} input matrix", 2)
            for i, b in enumerate(self.input_matrices, start=1)
        )
        m = _check_stack(states, inputs)
        object.__setattr__(self, "state_matrices", states)
        object.__setattr__(self, "input_matrices", inputs)
        object.__setattr__(self, "read_out", _array(self.read_out, "read_out", 1, m))

    @property
    def width(self) -> int:
        return self.state_matrices[0].shape[0]

    @property
    def depth(self) -> int:
        return len(self.state_matrices)

    def kernel(self, horizon: int = DEFAULT_HORIZON) -> ConvolutionKernel:
        impulse = np.eye(_checked("horizon", horizon, int, low=1), 1)
        return _kernel(_response(self.state_matrices, self.input_matrices, self.read_out, impulse))


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of checking a model against the entrywise norm class."""

    is_member: bool
    width: int
    depth: int
    measured_norm: float
    violations: tuple[tuple[str, float], ...] = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        return {
            "is_member": self.is_member,
            "width": self.width,
            "depth": self.depth,
            "measured_norm": self.measured_norm,
            "violations": [
                {"constraint": name, "value": value} for name, value in self.violations
            ],
        }


def _kernel(taps: np.ndarray) -> ConvolutionKernel:
    """The kernel with these taps; taps that overflowed raise :class:`NumericalError`."""
    return ConvolutionKernel(_finite(taps, "kernel tap"))


def _stability_gate(radius: float, strict: bool) -> None:
    _checked("strict_stability", strict, bool)
    if radius < 1.0:
        return
    message = f"spectral radius {radius:.6g} is not below 1"
    if strict:
        raise UnstableModel(message)
    warnings.warn(message, StabilityWarning, stacklevel=3)


#: Time steps per block of the recurrence engine, :func:`_layer_blocks`.
_BLOCK = 1024
#: Rows the engine scans by doubling; :func:`_scan` pairs longer runs first.
_DOUBLING_ROWS = 64


def _scan(h: np.ndarray, a: np.ndarray, times, spare: np.ndarray) -> None:
    """Turn the rows of ``h`` into ``h[t] = a h[t-1] + h[t]``, in place.

    ``times(rows, a.T, out=)`` applies ``a`` to each row; every such product
    goes to the leading rows of ``spare``, which has at least ``len(h)``.  Up
    to ``_DOUBLING_ROWS`` rows, ``h[k:] += a^k h[:-k]`` for k = 1, 2, 4, ...;
    more rows are paired, the odd rows scanned with a^2, and the even rows
    filled in from them.  Either way every power used is a^j for a power of
    two j < len(h).
    """
    rows = len(h)
    if rows > _DOUBLING_ROWS:
        h[1::2] += times(h[:-1:2], a.T, out=spare[: rows // 2])
        _scan(h[1::2], times(a.T, a.T).T, times, spare)
        h[2::2] += times(h[1:-1:2], a.T, out=spare[: (rows - 1) // 2])
        return
    # After offset k, h[t] sums a^j h[t - j], j < 2k.
    power, k = a, 1
    while k < rows:
        h[k:] += times(h[:-k], power.T, out=spare[: rows - k])
        power, k = times(power.T, power.T).T, 2 * k


def _layer_blocks(states, mixes, drive: np.ndarray):
    """Run ``h_i(t) = A_i h_i(t-1) + B_i h_{i-1}(t)`` with h_0 = ``drive``.

    ``states`` holds each A_i (diagonal or dense) and ``mixes`` each B_i.
    Yields ``(i, rows, h)`` block by block: layer i's states on steps ``rows``.
    Each block is one :func:`_scan`, seeded with the last state of the block
    before.  The scan forms A_i's powers up to half the block's length, so
    the block is halved until they stay finite at the largest |A_i|
    (absolute row sum, if dense).  So the products need no mask: no exact
    zero of a state meets an overflowed power.

    Layers write their states into two ``(block, m)`` buffers in turn and the
    scan its products into a third, all three allocated once per call, so a
    yielded ``h`` is valid only until the next iteration: keep a copy.
    """
    mags = np.abs(states)  # (depth, m) diagonals or (depth, m, m) dense matrices
    growth = (mags if mags.ndim == 2 else mags.sum(axis=-1)).max()
    block = _BLOCK
    while block > 2 and growth >= sys.float_info.max ** (2 / block):
        block //= 2
    m = len(states[0])
    buffers = np.empty((3, min(block, len(drive)), m), dtype=complex)
    carries = np.zeros((len(states), m), dtype=complex)
    for start in range(0, len(drive), block):
        rows = slice(start, start + block)
        h = drive[rows]
        for i, (a, mix) in enumerate(zip(states, mixes)):
            # times(rows, a.T) applies a, diagonal (1-D) or dense (2-D), to each row.
            times = np.multiply if a.ndim == 1 else np.matmul
            # The state may overflow as it does step by step, and so may the
            # square of the last power, which no step uses.
            with np.errstate(over="ignore", invalid="ignore"):
                h = np.matmul(h, mix.T, out=buffers[i % 2, : len(h)])
                h[0] += times(carries[i], a.T)
                _scan(h, a, times, buffers[2])
            carries[i] = h[-1]
            yield i, rows, h


def _stack(model: DeepLinearSSM):
    """The A_i and B_i lists of a diagonal model, as the engine takes them."""
    return [x.state_diag for x in model.layers], [x.input_matrix for x in model.layers]


def _response(states, mixes, read_out: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """Read-out ``C^T h_l(t)`` of :func:`_layer_blocks` for every step."""
    out = np.empty(len(drive), dtype=complex)
    for i, rows, h in _layer_blocks(states, mixes, drive):
        if i == len(states) - 1:
            with np.errstate(over="ignore", invalid="ignore"):
                out[rows] = h @ read_out
    return out


def simulate(model: DeepLinearSSM, inputs, *, strict_stability: bool = False) -> np.ndarray:
    """Run the layered recurrence on a scalar input sequence.

    Returns the complex output sequence of the same length.  With
    ``strict_stability`` a spectral radius >= 1 raises
    :class:`UnstableModel`; otherwise it only warns.
    """
    x = _array(inputs, "inputs", 1)
    _stability_gate(model.spectral_radius(), strict_stability)
    return _response(*_stack(model), model.read_out, x[:, None])


def kernel_by_simulation(
    model: DeepLinearSSM,
    horizon: int = DEFAULT_HORIZON,
    *,
    strict_stability: bool = False,
) -> ConvolutionKernel:
    """Kernel taps as the simulated response to the unit impulse.

    Taps that overflow raise :class:`NumericalError`.
    """
    impulse = np.eye(_checked("horizon", horizon, int, low=1), 1)[:, 0]
    return _kernel(simulate(model, impulse, strict_stability=strict_stability))


def kernel_closed_form(
    model: DeepLinearSSM,
    horizon: int = DEFAULT_HORIZON,
    *,
    strict_stability: bool = False,
) -> ConvolutionKernel:
    """Kernel taps from the homogeneous-sum expansion, summed layer by layer.

    Each index path (j_1..j_l) through the layers contributes its weight
    C[j_l] * B_l[j_l, j_{l-1}] * ... * B_2[j_2, j_1] * B_1[j_1] times the
    complete homogeneous sums of the visited eigenvalues.  By distributivity
    the paths group by their last index: the sequences
    ``s_i[j] = extend(sum_k B_i[j, k] s_{i-1}[k], A_i[j])`` with s_0 the unit
    impulse hold every path prefix ending at (i, j), and the taps are
    ``sum_j C[j] s_l[j]``; ``extend`` runs on all m channels of a layer in
    one call.  Cost is O(l * m^2 * T + l * m * T * min(sqrt(T), 32)) for
    horizon T; the sums stay exact for repeated and zero eigenvalues.  An
    exact-zero B or C entry adds exactly zero, even against a sequence that
    overflowed.  Taps that overflow raise :class:`NumericalError`.
    """
    horizon = _checked("horizon", horizon, int, low=1)
    _stability_gate(model.spectral_radius(), strict_stability)
    seqs = np.eye(1, horizon, dtype=complex)
    for layer in model.layers:
        seqs = extend_homogeneous(_mix(layer.input_matrix, seqs), layer.state_diag)
    return _kernel(_mix(model.read_out[None, :], seqs)[0])


def parameter_norm(model: DeepLinearSSM) -> float:
    """Largest modulus over all norm-constrained parameters (B's and C)."""
    return max(float(np.max(np.abs(arr))) for _, arr in model.constrained_parameters())


def check_membership(model: DeepLinearSSM, bound: float) -> MembershipReport:
    """Check the model against the entrywise class with parameter bound ``c``.

    Membership requires spectral radius strictly below one and every entry
    of B_1, B_2..B_l and C at modulus <= ``bound``.  Each violated matrix
    is reported through its worst entry.
    """
    _checked("bound", bound, float, above=0)
    violations: list[tuple[str, float]] = []
    radius = model.spectral_radius()
    if not radius < 1.0:
        violations.append(("spectral_radius", radius))
    measured = 0.0
    for name, arr in model.constrained_parameters():
        mags = np.abs(arr)
        worst = float(np.max(mags))
        measured = max(measured, worst)
        if worst > bound:
            if arr.shape[1:] == (1,) or arr.ndim == 1:
                label = name
            else:
                i, j = np.unravel_index(int(np.argmax(mags)), arr.shape)
                label = f"{name}[{i},{j}]"
            violations.append((label, worst))
    return MembershipReport(
        is_member=not violations,
        width=model.width,
        depth=model.depth,
        measured_norm=measured,
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# serialization: the one codec behind every file the package writes or reads


def _pairs(arr: np.ndarray) -> list:
    """Complex array of any rank as nested lists of ``[re, im]`` pairs."""
    return np.stack((arr.real, arr.imag), -1).tolist()


def _is_pair(obj) -> bool:
    return (
        isinstance(obj, (list, tuple))
        and len(obj) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj)
    )


def _complex_array(obj, ndim: int) -> np.ndarray:
    """Inverse of :func:`_pairs` for a rank-``ndim`` array.

    ``obj`` must be ``ndim`` levels of lists (the outermost non-empty for a
    matrix), rectangular, around ``[re, im]`` pairs of ints or floats; bools
    and strings are refused.  The pairs fill one flat float buffer, which
    becomes complex through a view, keeping the sign of every zero.
    """
    nest, sizes = [obj], []
    for level in range(ndim):
        lists = all(isinstance(item, list) for item in nest)
        if not lists or (level == 0 and ndim > 1 and not obj):
            raise ShapeMismatch(f"expected a rank-{ndim} nest of [re, im] pairs, got {obj!r}")
        sizes.append({len(item) for item in nest})
        nest = [entry for item in nest for entry in item]
    bad = len(nest)
    # Exact JSON types pass at C speed; anything else is looked at pair by pair.
    if not (
        set(map(type, nest)) <= {list}
        and set(map(len, nest)) <= {2}
        and set(map(type, itertools.chain.from_iterable(nest))) <= {float, int}
    ):
        bad = next((i for i, pair in enumerate(nest) if not _is_pair(pair)), bad)
    try:
        # The pairs before the first malformed one, so errors come in entry order.
        flat = np.fromiter(itertools.chain.from_iterable(nest[:bad]), float, 2 * bad)
    except OverflowError as exc:
        raise DomainError(f"[re, im] pair does not fit a float: {exc}") from exc
    if bad < len(nest):
        raise ShapeMismatch(f"expected a [re, im] pair, got {nest[bad]!r}")
    if any(len(level) > 1 for level in sizes):
        raise ShapeMismatch("matrix rows have differing lengths")
    return flat.view(complex).reshape([max(level, default=0) for level in sizes])


def _array_text(arr: np.ndarray, pad: str) -> str:
    """Exactly ``json.dumps(_pairs(arr), indent=2)`` of a finite, non-empty
    complex vector or matrix, nested at the line start ``pad``.

    A pair of two ``+0.0`` (by bit pattern, so ``-0.0`` is still written) is
    one shared string; every other pair is ``%r`` of its floats (``json``
    writes a float by its ``repr``).
    """
    rows = pad + "  " * (arr.ndim - 1)  # line start of each vector's brackets
    inner, leaf = rows + "  ", rows + "    "
    floats = np.ascontiguousarray(arr, dtype=complex).view(float).reshape(-1, 2)
    texts = ["[" + leaf + "0.0," + leaf + "0.0" + inner + "]"] * len(floats)
    pair = "[" + leaf + "%r," + leaf + "%r" + inner + "]"
    nonzero = np.flatnonzero(floats.view(np.uint64).any(axis=1))
    for k, (re, im) in zip(nonzero.tolist(), floats[nonzero].tolist()):
        texts[k] = pair % (re, im)
    width = arr.shape[-1]
    vectors = [
        "[" + inner + ("," + inner).join(texts[k : k + width]) + rows + "]"
        for k in range(0, len(texts), width)
    ]
    return vectors[0] if arr.ndim == 1 else "[" + rows + ("," + rows).join(vectors) + pad + "]"


def _json_chunks(obj, pad: str = "\n"):
    """Yield pieces that join to exactly ``json.dumps(obj, indent=2)``, nested
    at the line start ``pad``, with a complex ``ndarray`` written as its
    :func:`_pairs`.

    Finite, non-empty vectors and matrices are one :func:`_array_text` piece
    each.  Other arrays (after :func:`_pairs`), scalars, empty containers and
    dicts with a non-string key are one ``json.dumps`` piece, which writes
    ``NaN`` and ``Infinity``.
    """
    inner = pad + "  "
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj) and obj.ndim in (1, 2) and obj.size and np.isfinite(obj).all():
            yield _array_text(obj, pad)
            return
        obj = _pairs(obj)
    if isinstance(obj, dict) and obj and all(isinstance(key, str) for key in obj):
        for k, (key, value) in enumerate(obj.items()):
            yield ("," if k else "{") + inner + json.dumps(key) + ": "
            yield from _json_chunks(value, inner)
        yield pad + "}"
    elif isinstance(obj, (list, tuple)) and obj:
        for k, value in enumerate(obj):
            yield ("," if k else "[") + inner
            yield from _json_chunks(value, inner)
        yield pad + "]"
    else:
        yield json.dumps(obj, indent=2).replace("\n", pad)


def _write_json(data, path) -> None:
    """Write ``data`` (a dict, or a dataclass by its fields) as indented JSON.

    The file at ``path`` is replaced atomically; with ``path`` None the JSON
    goes to stdout.  Either way it is written piece by piece, so no more than
    one array's text is held at a time.
    """
    if is_dataclass(data):
        data = asdict(data)
    with (contextlib.nullcontext(sys.stdout) if path is None else _replacing(path)) as handle:
        handle.writelines(_json_chunks(data))
        handle.write("\n")


def _csv_text(header: str, rows) -> str:
    """The ``header`` line, then each row's values joined by commas.

    Values are written with ``str``; for a float that is the shortest text
    that reads back to the same float, so round-trips are bit-exact.
    """
    return header + "\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)


def _model_dict(model: DeepLinearSSM, encode) -> dict:
    """The model JSON layout, with ``encode`` applied to each array."""
    return {
        "layers": [
            {"state_diag": encode(layer.state_diag), "input_matrix": encode(layer.input_matrix)}
            for layer in model.layers
        ],
        "read_out": encode(model.read_out),
    }


def model_to_json_dict(model: DeepLinearSSM) -> dict:
    return _model_dict(model, _pairs)


def model_from_json_dict(data) -> DeepLinearSSM:
    if not isinstance(data, dict) or "layers" not in data or "read_out" not in data:
        raise ShapeMismatch("model JSON must contain 'layers' and 'read_out'")
    raw_layers = data["layers"]
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ShapeMismatch("model JSON needs a non-empty 'layers' list")
    layers = []
    for entry in raw_layers:
        if not isinstance(entry, dict):
            raise ShapeMismatch("each layer must be an object")
        layers.append(
            LayerParams(
                _complex_array(entry.get("state_diag"), 1),
                _complex_array(entry.get("input_matrix"), 2),
            )
        )
    return DeepLinearSSM(tuple(layers), _complex_array(data["read_out"], 1))


@contextlib.contextmanager
def _replacing(path):
    """A text handle on a sibling temp file that replaces ``path`` once the
    block ends without error, so readers never see halves."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see halves."""
    with _replacing(path) as handle:
        handle.write(text)


def _read_json(path):
    """The JSON value in the file at ``path``.

    Nesting deeper than the parser's recursion limit raises
    :class:`ShapeMismatch`, like any other malformed input.
    """
    with open(path, "r") as handle:
        try:
            return json.load(handle)
        except RecursionError as exc:
            raise ShapeMismatch(f"{path}: JSON nested too deeply to parse") from exc


def save_model(model: DeepLinearSSM, path) -> None:
    _write_json(_model_dict(model, np.asarray), path)


def load_model(path) -> DeepLinearSSM:
    return model_from_json_dict(_read_json(path))


def save_dense(dense: DenseSSM, path) -> None:
    _write_json(
        {
            "state_matrix": dense.state_matrix,
            "read_in": dense.read_in,
            "read_out": dense.read_out,
        },
        path,
    )


def load_dense(path) -> DenseSSM:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ShapeMismatch("dense model JSON must be an object")
    try:
        return DenseSSM(
            _complex_array(data["state_matrix"], 2),
            _complex_array(data["read_in"], 1),
            _complex_array(data["read_out"], 1),
        )
    except KeyError as exc:
        raise ShapeMismatch(f"dense model JSON is missing {exc}") from exc


def kernel_csv_text(kernel: ConvolutionKernel) -> str:
    taps = kernel.taps
    return _csv_text("t,re,im", zip(range(taps.size), taps.real.tolist(), taps.imag.tolist()))


def save_kernel_csv(kernel: ConvolutionKernel, path) -> None:
    atomic_write_text(path, kernel_csv_text(kernel))
