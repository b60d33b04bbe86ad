"""Conversions between shallow and deep realizations of one kernel.

Four directions are covered:

* :func:`collapse` stacks a deep model's layer states into one wide
  state vector, giving a single dense recurrence with the same kernel.
* :func:`factorize` rewrites a width-K modal realization as a deep
  stack of width roughly K / depth whose parameter entries are bounded
  by ``2 * max|b_i c_i| ** (1 / (depth + 1))``; the bound is returned as
  a checkable :class:`NormCertificate`.
* :func:`expand_coefficients` goes the other way, reading off the
  equivalent exponential-sum coefficients of a deep diagonal model.
* :func:`reduce_normal` and :func:`diagonalize_general` re-encode dense
  state matrices into diagonal form (unitarily for normal matrices, by
  eigenbasis otherwise).

:func:`minimal_depth` picks the smallest depth whose certified bound
fits under a requested parameter budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConvolutionKernel,
    DEFAULT_HORIZON,
    DeepLinearSSM,
    DenseDeepSSM,
    DenseSSM,
    LayerParams,
    ShallowRealization,
    _csv_text,
    _finite,
    _mix,
    _pairs,
    _stack,
    parameter_norm,
)
from .errors import (
    DegenerateEigenvalues,
    DomainError,
    IllConditionedDiagonalization,
    NotNormal,
    ResonantEigenvalues,
    ShapeMismatch,
    ZeroEigenvalue,
    _checked,
)
from .symfun import DISTINCTNESS_RTOL, coincident_pairs, telescope_coefficients

__all__ = [
    "CERTIFICATE_RTOL",
    "NormCertificate",
    "ExpansionEntry",
    "ExpansionTable",
    "DepthPlan",
    "collapse",
    "factorize",
    "minimal_depth",
    "expand_coefficients",
    "reduce_normal",
    "diagonalize_general",
]

#: Relative slack used when a certificate compares measured norms to z0.
CERTIFICATE_RTOL = 1e-9

#: Modulus scale of the inert modes appended when padding a teacher.
_PAD_MODULUS = 1e-6

#: Relative size of the deterministic jitter applied to coincident modes.
_JITTER = 1e-8


@dataclass(frozen=True)
class NormCertificate:
    """Constructive norm bound ``z0`` next to the realized maximum."""

    z0: float
    measured_max: float
    satisfied: bool

    @classmethod
    def evaluate(cls, z0: float, measured_max: float) -> "NormCertificate":
        return cls(
            z0=float(z0),
            measured_max=float(measured_max),
            satisfied=bool(measured_max <= z0 * (1.0 + CERTIFICATE_RTOL)),
        )


@dataclass(frozen=True)
class ExpansionEntry:
    """One indexed eigenvalue with its exponential-sum coefficient."""

    layer: int
    index: int
    eigenvalue: complex
    coefficient: complex


@dataclass(frozen=True)
class ExpansionTable:
    """Coefficients xi with ``kernel(t) = sum xi * eigenvalue**t``.

    ``layer`` and ``index`` are 1-based positions of the eigenvalue in
    the source model.  Eigenvalues that are exactly zero carry no
    exponential term and are not indexed.
    """

    entries: tuple[ExpansionEntry, ...]

    def kernel(self, horizon: int = DEFAULT_HORIZON) -> ConvolutionKernel:
        eigenvalues = [entry.eigenvalue for entry in self.entries]
        coefficients = [entry.coefficient for entry in self.entries]
        modal = ShallowRealization(eigenvalues, coefficients, np.ones(len(self.entries)))
        return modal.kernel(horizon)

    def max_coefficient(self) -> float:
        if not self.entries:
            return 0.0
        return max(abs(entry.coefficient) for entry in self.entries)

    def to_json_dict(self) -> dict:
        values = [(e.eigenvalue, e.coefficient) for e in self.entries]
        pairs = _pairs(np.array(values, dtype=complex).reshape(-1, 2))
        return {
            "entries": [
                {"layer": e.layer, "index": e.index, "eigenvalue": lam, "coefficient": xi}
                for e, (lam, xi) in zip(self.entries, pairs)
            ]
        }

    def csv_text(self) -> str:
        rows = (
            (e.layer, e.index, e.eigenvalue.real, e.eigenvalue.imag,
             e.coefficient.real, e.coefficient.imag)
            for e in self.entries
        )
        return _csv_text("layer,index,lambda_re,lambda_im,xi_re,xi_im", rows)


@dataclass(frozen=True)
class DepthPlan:
    """Planned stack shape together with its certified parameter bound."""

    depth: int
    width: int
    predicted_bound: float


def collapse(model: DeepLinearSSM) -> DenseSSM:
    """Fold a depth-l width-m stack into one width ``l * m`` recurrence.

    The collapsed state is the concatenation (h_1; ...; h_l).  Substituting
    each within-step update into the next layer gives a block lower
    triangular state matrix whose (i, j) block, i > j, is
    ``B_i B_{i-1} ... B_{j+1} A_j`` with the original ``A_i`` on the block
    diagonal, read-in blocks ``B_i ... B_1``, and a read-out supported on
    the last block.  A depth-1 model passes through unchanged.  Products
    of finite entries that overflow raise :class:`NumericalError`.
    """
    m, depth = model.width, model.depth
    diags, mats = _stack(model)
    n = depth * m
    state = np.zeros((n, n), dtype=complex)
    read_in = np.zeros(n, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(depth):
            state[i * m : (i + 1) * m, i * m : (i + 1) * m] = np.diag(diags[i])
        for j in range(depth):
            chain = None
            for i in range(j + 1, depth):
                chain = mats[i] if chain is None else mats[i] @ chain
                # chain is B_i ... B_{j+1}; A_j is diagonal so the block is a
                # column scaling of chain.
                state[i * m : (i + 1) * m, j * m : (j + 1) * m] = chain * diags[j][None, :]
        acc = mats[0][:, 0]
        read_in[:m] = acc
        for i in range(1, depth):
            acc = mats[i] @ acc
            read_in[i * m : (i + 1) * m] = acc
    read_out = np.zeros(n, dtype=complex)
    read_out[-m:] = model.read_out
    return DenseSSM(
        _finite(state, "collapsed state matrix entry"),
        _finite(read_in, "collapsed read-in entry"),
        read_out,
    )


def _principal_argument(values: np.ndarray) -> np.ndarray:
    args = np.angle(values)
    args[args == np.pi] = -np.pi
    return args


def _sorted_mode_order(eigenvalues: np.ndarray) -> np.ndarray:
    # Non-decreasing modulus; ties broken by principal argument in [-pi, pi).
    return np.lexsort((_principal_argument(eigenvalues), np.abs(eigenvalues)))


def _perturbed_modes(sigma: np.ndarray) -> np.ndarray:
    """Nudge coincident or zero modes apart with a deterministic jitter.

    The replacement kernel differs from the original by O(jitter) per
    affected mode; callers opt in explicitly.
    """
    n = sigma.size
    scale = max(1.0, float(np.max(np.abs(sigma))))
    flagged = {i for i, value in enumerate(sigma) if value == 0}
    flagged.update(j for _, j in coincident_pairs(sigma))
    out = sigma.copy()
    for idx in sorted(flagged):
        twist = np.exp(1j * np.pi * idx / n)
        if out[idx] == 0:
            out[idx] = scale * _JITTER * twist
        else:
            out[idx] = out[idx] * (1.0 + _JITTER * twist)
    return out


def _student_shape(mode_count: int, depth: int, width, pad: bool) -> int:
    """Resolve the student width, validating the K = depth*(m-1)+1 ladder."""
    if width is not None:
        _checked("width", width, int, low=1)
        if depth * (width - 1) + 1 < mode_count:
            raise ShapeMismatch(
                f"{mode_count} modes do not fit depth {depth} width {width}"
            )
        return width
    if depth == 1:
        return mode_count
    if (mode_count - 1) % depth == 0:
        return (mode_count - 1) // depth + 1
    if pad:
        return -(-(mode_count - 1) // depth) + 1
    raise ShapeMismatch(
        f"{mode_count} modes are not of the form depth*(width-1)+1 for depth "
        f"{depth}; pass pad=True or an explicit width"
    )


def factorize(
    teacher: ShallowRealization,
    depth: int,
    *,
    width: int | None = None,
    pad: bool = False,
    allow_perturb: bool = False,
) -> tuple[DeepLinearSSM, NormCertificate]:
    """Rewrite a modal realization as a norm-bounded deep diagonal stack.

    The teacher kernel ``sum_i b_i c_i sigma_i**t`` is reproduced exactly
    by a depth-``depth`` width-``m`` student whose parameter entries all
    have modulus at most ``z0 = 2 * max|b_i c_i| ** (1 / (depth + 1))``;
    the returned :class:`NormCertificate` records that comparison.  The
    mode count must equal ``depth * (m - 1) + 1``; ``pad`` (or an explicit
    ``width``) authorizes appending inert zero-weight modes to reach the
    next admissible count.

    Modes are sorted internally by modulus.  For ``depth >= 2`` they must
    be pairwise distinct and nonzero; ``allow_perturb`` instead applies a
    deterministic relative jitter of 1e-8 to offending modes, changing
    the kernel by the same order.  ``depth == 1`` is a balanced
    re-encoding ``b = c = sqrt(b_i c_i)`` and needs no distinctness.

    The student's mixing entries are scaled by ``z0**depth``; a depth at
    which that overflows a float (about 1000 once ``z0`` nears 2) raises
    :class:`DomainError` before any work is done.
    """
    _checked("depth", depth, int, low=1)
    z0 = 2.0 * float(np.max(np.abs(teacher.weights()))) ** (1.0 / (depth + 1))
    try:
        scale = z0**depth
    except OverflowError:
        raise DomainError(
            f"depth {depth} is too large: the student's scale z0**depth = "
            f"{z0:.6g}**{depth} overflows a float"
        ) from None
    m = _student_shape(teacher.mode_count, depth, width, pad)
    pad_count = depth * (m - 1) + 1 - teacher.mode_count

    sigma = teacher.eigenvalues.copy()
    z = teacher.weights().copy()
    if pad_count:
        idx = np.arange(pad_count)
        pad_modes = (
            _PAD_MODULUS
            * (1.0 + idx / pad_count)
            * np.exp(1j * np.pi * (idx + 0.5) / pad_count)
        )
        sigma = np.concatenate([sigma, pad_modes])
        z = np.concatenate([z, np.zeros(pad_count)])

    if np.all(z == 0):
        return _zero_student(depth, m), NormCertificate.evaluate(0.0, 0.0)

    order = _sorted_mode_order(sigma)
    sigma, z = sigma[order], z[order]

    if depth == 1:
        root = np.sqrt(z.astype(complex))
        student = ShallowRealization(sigma, root, root).as_model()
        return student, NormCertificate.evaluate(z0, parameter_norm(student))

    if allow_perturb and (np.any(sigma == 0) or coincident_pairs(sigma)):
        sigma = _perturbed_modes(sigma)
        order = _sorted_mode_order(sigma)
        sigma, z = sigma[order], z[order]
    if np.any(sigma == 0):
        raise DegenerateEigenvalues(
            "teacher modes must be nonzero for depth >= 2 "
            "(allow_perturb=True substitutes a tiny mode)"
        )
    clashes = coincident_pairs(sigma)
    if clashes:
        i, j = clashes[0]
        raise DegenerateEigenvalues(
            f"teacher modes {i} and {j} coincide within tolerance "
            f"({sigma[i]} vs {sigma[j]}); allow_perturb=True jitters them apart"
        )

    # Eigenvalue table: column j of layers 2..depth walks the sorted modes
    # in strides of m-1, column m is identically zero past layer 1.
    alpha = np.zeros((depth, m), dtype=complex)
    weight = np.zeros((depth, m), dtype=complex)
    alpha[0, :] = sigma[:m]
    weight[0, :] = z[:m]
    for i in range(1, depth):
        for j in range(m - 1):
            pos = i * (m - 1) + j + 1
            alpha[i, j] = sigma[pos]
            weight[i, j] = z[pos]

    table = np.zeros((depth, m), dtype=complex)
    for j in range(m - 1):
        table[:, j] = telescope_coefficients(alpha[:, j], weight[:, j])
    table[0, m - 1] = weight[0, m - 1]

    mix = [np.zeros((m, m), dtype=complex) for _ in range(depth - 1)]
    for layer in range(2, depth):
        mix[layer - 2][np.arange(m - 1), np.arange(m - 1)] = z0
    for layer in range(3, depth + 1):
        mix[layer - 2][m - 1, m - 1] = z0
    mix[0][m - 1, m - 1] = table[0, m - 1] / scale
    for j in range(m - 1):
        mix[depth - 2][j, j] = table[depth - 1, j] / scale
    for layer in range(2, depth + 1):
        for j in range(m - 1):
            mix[layer - 2][m - 1, j] = table[layer - 2, j] / scale

    column = np.full((m, 1), z0, dtype=complex)
    layers = [LayerParams(alpha[0], column)]
    layers.extend(LayerParams(alpha[i], mix[i - 1]) for i in range(1, depth))
    student = DeepLinearSSM(tuple(layers), np.full(m, z0, dtype=complex))
    return student, NormCertificate.evaluate(z0, parameter_norm(student))


def _zero_student(depth: int, width: int) -> DeepLinearSSM:
    zero_vec = np.zeros(width, dtype=complex)
    layers = [LayerParams(zero_vec, np.zeros((width, 1), dtype=complex))]
    layers.extend(
        LayerParams(zero_vec, np.zeros((width, width), dtype=complex))
        for _ in range(depth - 1)
    )
    return DeepLinearSSM(tuple(layers), zero_vec)


def minimal_depth(c1: float, c2: float, mode_count: int) -> DepthPlan:
    """Smallest depth whose certified bound fits under the budget ``c2``.

    For a width-``mode_count`` teacher with parameter scale ``c1``, depth
    ``l`` yields student entries at most ``2 * c1 ** (2 / (l + 1))``.
    Solving that against ``c2`` gives ``ceil(2 ln c1 / ln(c2 / 2) - 1)``,
    clamped to at least one; the paired width is ``ceil(K / l) + 1``.
    Both scales must be finite, ``c1 > 1`` and ``c2 > 2``.
    """
    _checked("c1", c1, float, above=1)
    _checked("c2", c2, float, above=2)
    _checked("mode_count", mode_count, int, low=1)
    raw = 2.0 * math.log(c1) / math.log(c2 / 2.0) - 1.0
    depth = max(1, math.ceil(raw))
    width = (mode_count + depth - 1) // depth + 1
    bound = 2.0 * c1 ** (2.0 / (depth + 1))
    return DepthPlan(depth=depth, width=width, predicted_bound=bound)


def expand_coefficients(model: DeepLinearSSM) -> ExpansionTable:
    """Exponential-sum coefficients equivalent to a deep diagonal model.

    The kernel's z-transform factors layer by layer as
    ``C^T R_l(z) B_l ... R_1(z) B_1`` with ``R_a(z) = diag(1 / (1 - A_a / z))``,
    so the nonzero eigenvalue lam = A_i[j] (layer i, index j) receives the
    residue

        xi = u_i(lam)[j] * v_i(lam)[j],
        v_i   = B_i R_{i-1}(lam) B_{i-1} ... R_1(lam) B_1,
        u_i^T = C^T R_l(lam) B_l ... R_{i+1}(lam) B_{i+1},

    and the kernel equals ``sum xi * lam**t``.  The m eigenvalues of a layer
    run through both chains at once, so the cost is O(l^2 * m^3), not one
    term per index path.  Nonzero eigenvalues must be globally pairwise
    distinct (:class:`ResonantEigenvalues` otherwise); zero eigenvalues are
    allowed but carry no term, so a nonzero-weight path made of zeros alone
    has no expansion and raises :class:`ZeroEigenvalue`.  That path is found
    by a boolean product over the exact zeros, in O(l * m^2).
    """
    lambdas, mats = _stack(model)
    nonzero = np.concatenate(lambdas)
    nonzero = nonzero[nonzero != 0]
    if nonzero.size and coincident_pairs(nonzero):
        raise ResonantEigenvalues(
            "eigenvalues coincide across entries within tolerance "
            f"{DISTINCTNESS_RTOL:g}; the modal expansion is singular"
        )

    # zero_path[j]: some nonzero-weight path reaches (layer, j) on zeros only.
    zero_path = (mats[0][:, 0] != 0) & (lambdas[0] == 0)
    for lam, mat in zip(lambdas[1:], mats[1:]):
        zero_path = ((mat != 0) @ zero_path) & (lam == 0)
    if np.any(zero_path & (model.read_out != 0)):
        raise ZeroEigenvalue(
            "a nonzero-weight path has all-zero eigenvalues; its "
            "impulse contribution is not an exponential sum"
        )

    entries = []
    for i, lam_i in enumerate(lambdas):
        (index,) = np.nonzero(lam_i)
        lam = lam_i[index]
        # Column p of v and u is the chain at the eigenvalue lam[p].
        v = np.broadcast_to(mats[0], (model.width, lam.size))
        for a in range(i):
            v = _mix(mats[a + 1], v / (1.0 - lambdas[a][:, None] / lam))
        u = np.broadcast_to(model.read_out[:, None], v.shape)
        for a in range(model.depth - 1, i, -1):
            u = _mix(mats[a].T, u / (1.0 - lambdas[a][:, None] / lam))
        xi = (u * v)[index, np.arange(lam.size)]
        entries.extend(
            ExpansionEntry(i + 1, int(j) + 1, complex(lam_i[j]), complex(x))
            for j, x in zip(index, xi)
        )
    return ExpansionTable(tuple(entries))


def reduce_normal(dense: DenseSSM, *, rtol: float = 1e-10) -> ShallowRealization:
    """Diagonalize a normal state matrix unitarily, preserving the kernel.

    Normality is certified by the commutator test
    ``||A A* - A* A||_F <= rtol * ||A||_F**2``.  With A = U S U* unitary,
    the kernel ``c^T A^t b`` becomes ``(U^T c)^T S^t (U* b)``; the new
    read vectors grow by at most sqrt(width) in the entrywise norm.
    """
    _checked("rtol", rtol, float, low=0)
    a = dense.state_matrix
    fro = float(np.linalg.norm(a, "fro"))
    commutator = a @ a.conj().T - a.conj().T @ a
    if float(np.linalg.norm(commutator, "fro")) > rtol * fro ** 2:
        raise NotNormal(
            "state matrix fails the commutator normality test at "
            f"relative tolerance {rtol:g}"
        )
    import scipy.linalg  # here, not at the top: it would be most of the package's import time

    upper, basis = scipy.linalg.schur(a, output="complex")
    return ShallowRealization(
        np.diag(upper).copy(),
        basis.conj().T @ dense.read_in,
        basis.T @ dense.read_out,
    )


def diagonalize_general(
    model: DenseDeepSSM, *, cond_ceiling: float = 1e8
) -> DeepLinearSSM:
    """Change each layer into its eigenbasis, yielding diagonal states.

    With ``A_i = P_i D_i P_i^{-1}`` the kernel is preserved by
    ``B_1 -> P_1^{-1} B_1``, ``B_i -> P_i^{-1} B_i P_{i-1}`` and
    ``C -> P_l^T C``.  Raises :class:`IllConditionedDiagonalization` when
    any eigenvector basis has condition number above ``cond_ceiling``
    (defective state matrices land here).
    """
    _checked("cond_ceiling", cond_ceiling, float, low=1)
    bases: list[np.ndarray] = []
    diags: list[np.ndarray] = []
    for i, a in enumerate(model.state_matrices, start=1):
        values, vectors = np.linalg.eig(a)
        cond = float(np.linalg.cond(vectors))
        if not np.isfinite(cond) or cond > cond_ceiling:
            raise IllConditionedDiagonalization(
                f"layer {i} eigenvector basis has condition number {cond:.3g} "
                f"(ceiling {cond_ceiling:g})"
            )
        bases.append(vectors)
        diags.append(values)
    try:
        layers = [LayerParams(diags[0], np.linalg.solve(bases[0], model.input_matrices[0]))]
        for i in range(1, model.depth):
            transformed = np.linalg.solve(bases[i], model.input_matrices[i] @ bases[i - 1])
            layers.append(LayerParams(diags[i], transformed))
    except np.linalg.LinAlgError as exc:
        raise IllConditionedDiagonalization(str(exc)) from exc
    read_out = bases[-1].T @ model.read_out
    return DeepLinearSSM(tuple(layers), read_out)
