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
over time: per block of ``_BLOCK`` steps, seeded with the last state of the
block before, it doubles ``h[k:] += A^k h[:-k]`` for k = 1, 2, 4, ...
Where a power up to half a block could overflow, the block is shorter, so
no state overflows before it does step by step.
Scratch memory is a few ``(_BLOCK, width)`` arrays, whatever the horizon.

Every file format lives in one codec at the end of this module.
:func:`_pairs` writes a complex array of any rank as nested ``[re, im]``
pairs (matrices row-major) and :func:`_complex_array` reads it back,
refusing anything but a rectangular nest of int or float pairs.  One JSON
writer (indent 2, to a file replaced atomically or to stdout) and one CSV
formatter write every file.  Floats are written as their shortest
round-trip decimal and read back through a float-to-complex view, so round
trips are bit-for-bit, signed zeros included.
"""

from __future__ import annotations

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
from .symfun import _mix, extend_homogeneous

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


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr``, unless an entry overflowed: then :class:`NumericalError` names the first."""
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        index = tuple(int(i) for i in bad[0])
        label = index[0] if len(index) == 1 else index
        raise NumericalError(f"{what} {label} overflowed to {arr[index]}")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise DomainError("model parameters must be finite")
    arr.setflags(write=False)
    return arr


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
        diag = _freeze(np.atleast_1d(self.state_diag))
        if diag.ndim != 1:
            raise ShapeMismatch(f"state_diag must be a vector, got shape {diag.shape}")
        mat = np.asarray(self.input_matrix)
        if mat.ndim == 1:
            mat = mat[:, None]
        mat = _freeze(mat)
        if mat.ndim != 2:
            raise ShapeMismatch(
                f"input_matrix must be two-dimensional, got shape {mat.shape}"
            )
        if mat.shape[0] != diag.size:
            raise WidthMismatch(
                f"input_matrix has {mat.shape[0]} rows for width {diag.size}"
            )
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
        layers = tuple(self.layers)
        if not layers:
            raise ShapeMismatch("a model needs at least one layer")
        m = layers[0].width
        if layers[0].input_matrix.shape[1] != 1:
            raise ShapeMismatch(
                "first layer input_matrix must have one column, got "
                f"{layers[0].input_matrix.shape}"
            )
        for i, layer in enumerate(layers[1:], start=2):
            if layer.width != m:
                raise WidthMismatch(
                    f"layer {i} has width {layer.width}, expected {m}"
                )
            if layer.input_matrix.shape != (m, m):
                raise WidthMismatch(
                    f"layer {i} input_matrix has shape {layer.input_matrix.shape}, "
                    f"expected ({m}, {m})"
                )
        out = _freeze(np.atleast_1d(self.read_out))
        if out.ndim != 1 or out.size != m:
            raise WidthMismatch(
                f"read_out has shape {out.shape}, expected ({m},)"
            )
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "read_out", out)

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
        eig = _freeze(np.atleast_1d(self.eigenvalues))
        bin_ = _freeze(np.atleast_1d(self.read_in))
        bout = _freeze(np.atleast_1d(self.read_out))
        if eig.ndim != 1:
            raise ShapeMismatch("eigenvalues must be a vector")
        if bin_.shape != eig.shape or bout.shape != eig.shape:
            raise WidthMismatch(
                "eigenvalues, read_in and read_out must share one length, got "
                f"{eig.shape}, {bin_.shape}, {bout.shape}"
            )
        object.__setattr__(self, "eigenvalues", eig)
        object.__setattr__(self, "read_in", bin_)
        object.__setattr__(self, "read_out", bout)

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
        taps = _freeze(np.atleast_1d(self.taps))
        if taps.ndim != 1 or taps.size == 0:
            raise ShapeMismatch(f"taps must be a non-empty vector, got {taps.shape}")
        object.__setattr__(self, "taps", taps)

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
        mat = _freeze(np.atleast_2d(self.state_matrix))
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ShapeMismatch(f"state_matrix must be square, got {mat.shape}")
        bin_ = np.asarray(self.read_in)
        if bin_.ndim == 2 and bin_.shape[1] == 1:
            bin_ = bin_[:, 0]
        bin_ = _freeze(np.atleast_1d(bin_))
        bout = _freeze(np.atleast_1d(self.read_out))
        n = mat.shape[0]
        if bin_.shape != (n,) or bout.shape != (n,):
            raise WidthMismatch(
                f"read_in/read_out must have shape ({n},), got "
                f"{bin_.shape} and {bout.shape}"
            )
        object.__setattr__(self, "state_matrix", mat)
        object.__setattr__(self, "read_in", bin_)
        object.__setattr__(self, "read_out", bout)

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
        states = tuple(_freeze(np.atleast_2d(a)) for a in self.state_matrices)
        inputs = []
        for mat in self.input_matrices:
            arr = np.asarray(mat)
            if arr.ndim == 1:
                arr = arr[:, None]
            inputs.append(_freeze(arr))
        inputs = tuple(inputs)
        if not states or len(states) != len(inputs):
            raise ShapeMismatch(
                "state_matrices and input_matrices must be equally long and non-empty"
            )
        m = states[0].shape[0]
        for i, a in enumerate(states, start=1):
            if a.shape != (m, m):
                raise WidthMismatch(f"layer {i} state matrix has shape {a.shape}")
        if inputs[0].shape != (m, 1):
            raise ShapeMismatch(
                f"first input matrix must be ({m}, 1), got {inputs[0].shape}"
            )
        for i, b in enumerate(inputs[1:], start=2):
            if b.shape != (m, m):
                raise WidthMismatch(f"layer {i} input matrix has shape {b.shape}")
        out = _freeze(np.atleast_1d(self.read_out))
        if out.shape != (m,):
            raise WidthMismatch(f"read_out has shape {out.shape}, expected ({m},)")
        object.__setattr__(self, "state_matrices", states)
        object.__setattr__(self, "input_matrices", inputs)
        object.__setattr__(self, "read_out", out)

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
    if radius < 1.0:
        return
    message = f"spectral radius {radius:.6g} is not below 1"
    if strict:
        raise UnstableModel(message)
    warnings.warn(message, StabilityWarning, stacklevel=3)


#: Time steps per block of the recurrence engine, :func:`_layer_blocks`.
_BLOCK = 1024


def _times(a, rows: np.ndarray) -> np.ndarray:
    """Apply ``a``, diagonal (1-D) or dense (2-D), to every row of ``rows``.

    An exact zero contributes exactly zero, as step by step, even where a
    power of an unstable ``a`` overflowed (O(rows * width**2) scratch).
    """
    if np.isfinite(a).all():
        return rows * a if a.ndim == 1 else rows @ a.T
    if a.ndim == 1:
        return np.where(rows != 0, rows * a, 0)
    rows = rows[:, None, :]
    return np.where((rows != 0) & (a != 0), rows * a, 0).sum(axis=-1)


def _layer_blocks(states, mixes, drive: np.ndarray):
    """Run ``h_i(t) = A_i h_i(t-1) + B_i h_{i-1}(t)`` with h_0 = ``drive``.

    ``states`` holds each A_i (diagonal or dense) and ``mixes`` each B_i.
    Yields ``(i, rows, h)`` block by block: layer i's states on steps ``rows``.
    A block forms A_i's powers up to half its length, so it is halved until
    they stay finite at the largest |A_i| (absolute row sum, if dense).
    """
    mags = np.abs(states)  # (depth, m) diagonals or (depth, m, m) dense matrices
    growth = (mags if mags.ndim == 2 else mags.sum(axis=-1)).max()
    block = _BLOCK
    while block > 2 and growth >= sys.float_info.max ** (2 / block):
        block //= 2
    carries = [np.zeros(len(a), dtype=complex) for a in states]
    for start in range(0, len(drive), block):
        rows = slice(start, start + block)
        h = drive[rows]
        for i, (a, mix) in enumerate(zip(states, mixes)):
            # Powers of an unstable a may overflow; _times masks them.
            with np.errstate(over="ignore", invalid="ignore"):
                h = h @ mix.T
                h[0] += _times(a, carries[i])
                # After offset k, h[t] sums a^j (B_i h_{i-1})[t - j], j < 2k.
                power, k = a, 1
                while k < len(h):
                    h[k:] += _times(power, h[:-k])
                    power, k = _times(power, power.T).T, 2 * k
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
    x = np.atleast_1d(np.asarray(inputs, dtype=complex))
    if x.ndim != 1:
        raise ShapeMismatch(f"inputs must be a scalar sequence, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DomainError("inputs contain non-finite entries")
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
    and strings are refused.  Floats become complex through a view, which
    keeps the sign of every zero.
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
        flat = np.array(nest[:bad], dtype=float).reshape(-1, 2)
    except OverflowError as exc:
        raise DomainError(f"[re, im] pair does not fit a float: {exc}") from exc
    if bad < len(nest):
        raise ShapeMismatch(f"expected a [re, im] pair, got {nest[bad]!r}")
    if any(len(level) > 1 for level in sizes):
        raise ShapeMismatch("matrix rows have differing lengths")
    return flat.view(complex).reshape([max(level, default=0) for level in sizes])


def _write_json(data, path) -> None:
    """Write ``data`` (a dict, or a dataclass by its fields) as indented JSON.

    The file at ``path`` is replaced atomically; with ``path`` None the JSON
    goes to stdout.
    """
    if is_dataclass(data):
        data = asdict(data)
    text = json.dumps(data, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(path, text)


def _csv_text(header: str, rows) -> str:
    """The ``header`` line, then each row's values joined by commas.

    Values are written with ``str``; for a float that is the shortest text
    that reads back to the same float, so round-trips are bit-exact.
    """
    return header + "\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)


def model_to_json_dict(model: DeepLinearSSM) -> dict:
    return {
        "layers": [
            {"state_diag": _pairs(layer.state_diag), "input_matrix": _pairs(layer.input_matrix)}
            for layer in model.layers
        ],
        "read_out": _pairs(model.read_out),
    }


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


def atomic_write_text(path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see halves."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
    _write_json(model_to_json_dict(model), path)


def load_model(path) -> DeepLinearSSM:
    return model_from_json_dict(_read_json(path))


def save_dense(dense: DenseSSM, path) -> None:
    _write_json(
        {
            "state_matrix": _pairs(dense.state_matrix),
            "read_in": _pairs(dense.read_in),
            "read_out": _pairs(dense.read_out),
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
