"""Complete homogeneous sums and the telescoping identities built on them.

The kernel of a stacked diagonal recurrence is a weighted sum of complete
homogeneous symmetric polynomials of the layer eigenvalues.  This module
provides that polynomial in two forms plus the coefficient transform that
rewrites a prefix family of such polynomials as a plain exponential sum:

* :func:`homogeneous_sum` evaluates the degree-``k`` complete homogeneous
  sum through the add-one-variable recurrence, which stays exact for
  repeated and zero arguments.
* :func:`f_rational` evaluates the equivalent rational (Lagrange-style)
  form, defined only for pairwise distinct arguments.  It exists to
  cross-check the recurrence, not to replace it.
* :func:`telescope_coefficients` produces weights ``H`` with
  ``sum_k H[k] * F_t(beta[:k+1]) == sum_j Z[j] * beta[j]**t`` for all
  ``t >= 0``, where ``F_t`` is the degree-``t`` homogeneous sum.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DegenerateEigenvalues,
    DomainError,
    ShapeMismatch,
    UnsortedInput,
    ZeroEigenvalue,
    _checked,
)

__all__ = [
    "DISTINCTNESS_RTOL",
    "homogeneous_sum",
    "extend_homogeneous",
    "f_rational",
    "telescope_coefficients",
    "coincident_pairs",
]

#: Two eigenvalues closer than this relative separation are treated as
#: coincident everywhere a construction divides by their difference.
DISTINCTNESS_RTOL = 1e-10


def _as_complex_vector(values, name: str = "values") -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=complex))
    if arr.ndim != 1:
        raise ShapeMismatch(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeMismatch(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite entries")
    return arr


def coincident_pairs(values, rtol: float = DISTINCTNESS_RTOL) -> list[tuple[int, int]]:
    """Index pairs ``(i, j)``, ``i < j``, closer than the relative tolerance.

    The separation test is ``|v[i] - v[j]| <= rtol * max(|v[i]|, |v[j]|, 1)``,
    so values near zero are compared on an absolute scale.
    """
    _checked("rtol", rtol, float, low=0)
    arr = _as_complex_vector(values)
    diff = np.abs(arr[:, None] - arr[None, :])
    scale = np.maximum(np.maximum(np.abs(arr)[:, None], np.abs(arr)[None, :]), 1.0)
    hits = np.argwhere(diff <= rtol * scale)
    return [(int(i), int(j)) for i, j in hits if i < j]


def homogeneous_sum(alphas, k: int) -> complex:
    """Degree-``k`` complete homogeneous sum of ``alphas``.

    Equals the sum of all degree-``k`` monomials in the arguments with
    unit coefficients.  Computed by absorbing one variable at a time,

        h_k(a_1..a_j) = h_k(a_1..a_{j-1}) + a_j * h_{k-1}(a_1..a_j),

    which involves no divisions and therefore tolerates repeated and zero
    arguments exactly.
    """
    arr = _as_complex_vector(alphas, "alphas")
    _checked("k", k, int, low=0)
    table = np.zeros(k + 1, dtype=complex)
    table[0] = 1.0
    for value in arr:
        for degree in range(1, k + 1):
            table[degree] += value * table[degree - 1]
    return complex(table[k])


def _mix(mat: np.ndarray, seqs: np.ndarray) -> np.ndarray:
    """``mat @ seqs``, where an exact zero in either factor adds exactly zero.

    That holds even against an inf (an overflowed unstable channel or
    power), where a plain product gives 0 * inf = nan.  Both factors may
    carry leading batch axes, as for :func:`numpy.matmul`.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        out = mat @ seqs
        if np.isfinite(out).all():
            return out
        out = np.zeros_like(out)
        for k in range(mat.shape[-1]):
            left, right = mat[..., :, k, None], seqs[..., None, k, :]
            out += np.where((left != 0) & (right != 0), left * right, 0)
    return out


#: Longest chunk of :func:`extend_homogeneous`.  Beyond ``_CHUNK**2`` steps
#: the chunk ends are carried by the same filter, recursively, which keeps
#: the cost O(_CHUNK * T) instead of O(T**1.5).
_CHUNK = 32


def _toeplitz(powers: np.ndarray) -> np.ndarray:
    """Upper-triangular ``M[..., k, t] = powers[..., t - k]`` for t >= k, else 0.

    ``rows @ M`` then filters each row: ``sum_{k <= t} powers[t - k] rows[k]``.
    """
    size = powers.shape[-1]
    padded = np.zeros(powers.shape[:-1] + (2 * size - 1,), dtype=complex)
    padded[..., size - 1 :] = powers
    lag = np.arange(size - 1, 2 * size - 1) - np.arange(size)[:, None]
    return np.take(padded, lag, axis=-1)


def _chunked_filter(chunks: np.ndarray, powers: np.ndarray, exact: bool) -> np.ndarray:
    """The filter of :func:`extend_homogeneous` on rows cut into chunks.

    ``chunks`` is ``(..., n, c)`` and ``powers`` holds ``alpha**0 ..
    alpha**c``.  The chunk ends are carried forward by an n x n Toeplitz
    product in ``alpha**c``, whose powers run up to ``alpha**(c n)``, or for
    n > :data:`_CHUNK` by :func:`extend_homogeneous` in ``alpha**c``.  With
    ``exact`` every product masks exact zeros (:func:`_mix`) and the ends are
    carried one chunk at a time instead, so that no power beyond
    ``alpha**c`` is formed and nothing overflows before the step-by-step
    recurrence does.
    """
    product = _mix if exact else np.matmul
    # Row 0 of ``steps`` is alpha**(t+1), applied to the state carried into
    # a chunk; rows 1..c are the c x c in-chunk Toeplitz matrix.
    steps = _toeplitz(powers)[..., 1:]
    ends = product(chunks, steps[..., 1:, -1:])[..., 0]
    ratio = powers[..., -1]
    if exact:
        states, state = np.empty_like(ends), 0
        for j in range(ends.shape[-1]):
            state = np.where((state != 0) & (ratio != 0), state * ratio, 0) + ends[..., j]
            states[..., j] = state
    elif ends.shape[-1] > _CHUNK:
        states = extend_homogeneous(ends, ratio)
    else:
        stride = ratio[..., None] ** np.arange(ends.shape[-1])
        states = (ends[..., None, :] @ _toeplitz(stride))[..., 0, :]
    carried = np.zeros(chunks.shape[:-1] + (chunks.shape[-1] + 1,), dtype=complex)
    carried[..., 1:, 0] = states[..., :-1]
    carried[..., 1:] = chunks
    return product(carried, steps)


def extend_homogeneous(seqs: np.ndarray, alpha) -> np.ndarray:
    """Absorb one more variable into homogeneous-sum sequences.

    ``seqs[..., t]`` holds the degree-``t`` sums over some variable set;
    the result holds the sums over that set plus ``alpha``.  This is the
    same recurrence as :func:`homogeneous_sum`, run along the last axis
    as the first-order filter ``out[t] = sum_{k <= t} alpha**(t-k) seqs[k]``.
    ``alpha`` is a scalar or an array that broadcasts against the leading
    axes of ``seqs``, one variable per sequence.

    The filter is a blocked Toeplitz product of geometric powers, with no
    loop over time: the horizon is cut into n chunks of c = ceil(sqrt(T))
    steps (at most :data:`_CHUNK`), each filtered by one batched product
    with the c x c matrix of ``alpha**(t-k)``; the chunk ends are carried
    forward by a second geometric Toeplitz product in ``alpha**c`` (for
    longer horizons, by this filter again), and the carry into a chunk adds
    ``alpha**(t+1)`` times it.  Where that result is not finite, it is
    recomputed with exact-zero masking and a chunk-by-chunk carry: an exact
    zero then adds exactly zero, even where a power of ``|alpha| > 1``
    overflowed, so an undriven prefix stays zero, and the result overflows
    where the step-by-step recurrence does (up to rounding, while
    ``alpha**c`` itself is finite).
    """
    seqs = np.asarray(seqs, dtype=complex)
    alpha = np.asarray(alpha, dtype=complex)
    horizon = seqs.shape[-1]
    lead = np.broadcast_shapes(seqs.shape[:-1], alpha.shape)
    size = min(math.isqrt(horizon - 1) + 1 if horizon else 1, _CHUNK)
    count = max(-(-horizon // size), 1)
    padded = np.zeros(lead + (count * size,), dtype=complex)
    padded[..., :horizon] = seqs
    chunks = padded.reshape(lead + (count, size))
    with np.errstate(over="ignore", invalid="ignore"):
        powers = alpha[..., None] ** np.arange(size + 1)
        out = _chunked_filter(chunks, powers, exact=False)
        # A finite result had no inf * 0 and no overflowed power to mask.
        if not np.isfinite(out).all():
            out = _chunked_filter(chunks, powers, exact=True)
    return out.reshape(lead + (count * size,))[..., :horizon]


def f_rational(alphas, k: int) -> complex:
    """Rational form of the degree-``k`` complete homogeneous sum.

    For pairwise distinct arguments ``a_1..a_n`` this evaluates

        sum_i a_i**(k + n - 1) / prod_{j != i} (a_i - a_j),

    which agrees with :func:`homogeneous_sum` but degrades as arguments
    approach each other.  Raises :class:`DegenerateEigenvalues` when any
    pair falls inside :data:`DISTINCTNESS_RTOL`.
    """
    arr = _as_complex_vector(alphas, "alphas")
    _checked("k", k, int, low=0)
    clashes = coincident_pairs(arr)
    if clashes:
        i, j = clashes[0]
        raise DegenerateEigenvalues(
            f"arguments {i} and {j} coincide within tolerance: "
            f"{arr[i]} vs {arr[j]}"
        )
    n = arr.size
    total = 0.0 + 0.0j
    for i in range(n):
        others = np.delete(arr, i)
        total += arr[i] ** (k + n - 1) / np.prod(arr[i] - others)
    return complex(total)


def telescope_coefficients(betas, zs) -> np.ndarray:
    """Weights that flatten prefix homogeneous sums into an exponential sum.

    Given nonzero ``betas`` sorted by non-decreasing modulus and arbitrary
    ``zs`` of the same length ``n``, returns ``H`` of length ``n`` with

        sum_{k} H[k] * F_t(betas[:k+1]) = sum_{j} zs[j] * betas[j]**t

    for every ``t >= 0``, where ``F_t`` is the degree-``t`` complete
    homogeneous sum.  The weights satisfy ``|H[k]| <= 2**n * max |zs|``;
    the modulus ordering is what makes that bound hold.
    """
    b = _as_complex_vector(betas, "betas")
    z = _as_complex_vector(zs, "zs")
    if b.size != z.size:
        raise ShapeMismatch(f"betas and zs lengths differ: {b.size} vs {z.size}")
    if np.any(b == 0):
        raise ZeroEigenvalue("telescoping requires every beta to be nonzero")
    moduli = np.abs(b)
    if np.any(moduli[:-1] > moduli[1:]):
        raise UnsortedInput("betas must be sorted by non-decreasing modulus")
    clashes = coincident_pairs(b)
    if clashes:
        i, j = clashes[0]
        raise DegenerateEigenvalues(
            f"betas {i} and {j} coincide within tolerance: {b[i]} vs {b[j]}"
        )
    n = b.size
    out = np.zeros(n, dtype=complex)
    for k in range(1, n + 1):
        acc = 0.0 + 0.0j
        for j in range(k, n + 1):
            if z[j - 1] == 0:
                # A zero weight contributes nothing; evaluating its term
                # anyway risks 0/0 when beta**k underflows at large k.
                continue
            sep = np.prod(b[j - 1] - b[: k - 1]) if k > 1 else 1.0
            acc += z[j - 1] * b[k - 1] * sep / b[j - 1] ** k
        out[k - 1] = acc
    return out
