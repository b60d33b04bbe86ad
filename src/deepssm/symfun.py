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

Every array argument in the package, these functions' vectors and every
model type's arrays, is checked by one rule, :func:`_array`.
"""

from __future__ import annotations

import math
from numbers import Number

import numpy as np

from .errors import (
    DegenerateEigenvalues,
    DomainError,
    ShapeMismatch,
    UnsortedInput,
    WidthMismatch,
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


def _array(value, name: str, rank: int, rows: int | None = None, *, square=False) -> np.ndarray:
    """``value`` as a new read-only complex array of rank ``rank`` (1 or 2).

    A value of lower rank gains trailing axes of length 1: a scalar stands
    for a length-1 vector or a 1 x 1 matrix, and a vector for a column.  A
    value that is not a rectangular nest of numbers (bools, strings and
    None are not numbers) raises :class:`ShapeMismatch`; then a non-finite
    entry raises :class:`DomainError`; then the wrong rank, an empty array
    or, with ``square``, a non-square matrix raises :class:`ShapeMismatch`;
    and a length or row count other than ``rows`` raises
    :class:`WidthMismatch`.
    """
    try:
        arr = np.asarray(value)
        # Not bools, strings or dates, nor None, which numpy would make nan.
        # An ndarray's dtype tells; in any other value numpy would make a bool
        # among numbers 1, so every entry's type is looked at.
        if isinstance(value, np.ndarray) and arr.dtype.kind != "O":
            numeric = arr.dtype.kind in "iufc"
        else:
            kinds = set(map(type, np.asarray(value, dtype=object).flat))
            numeric = all(issubclass(k, Number) and k not in (bool, np.bool_) for k in kinds)
        if not numeric:
            raise TypeError
        arr = arr.astype(complex)
    except (TypeError, ValueError):
        raise ShapeMismatch(f"{name} must be a rectangular array of numbers") from None
    except OverflowError as exc:
        raise DomainError(f"{name} has an entry that does not fit a float: {exc}") from None
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite")
    if arr.ndim < rank:
        arr = arr.reshape(arr.shape + (1,) * (rank - arr.ndim))
    if arr.ndim != rank or not arr.size or (square and arr.shape[0] != arr.shape[1]):
        what = "square matrix" if square else ("vector", "matrix")[rank - 1]
        raise ShapeMismatch(f"{name} must be a non-empty {what}, got shape {arr.shape}")
    if rows is not None and len(arr) != rows:
        what = ("entries", "rows")[rank - 1]
        raise WidthMismatch(f"{name} has {len(arr)} {what} for width {rows}")
    arr.setflags(write=False)
    return arr


def coincident_pairs(values, rtol: float = DISTINCTNESS_RTOL) -> list[tuple[int, int]]:
    """Index pairs ``(i, j)``, ``i < j``, closer than the relative tolerance.

    The separation test is ``|v[i] - v[j]| <= rtol * max(|v[i]|, |v[j]|, 1)``,
    so values near zero are compared on an absolute scale.  Pairs come in
    row-major order, so the first is the one with the smallest ``i``, then ``j``.

    A clash needs real parts within ``rtol * max(max |v|, 1)``, so only pairs
    inside that window of the values sorted by real part are tested: O(K log K
    + C) time and O(K + C) memory for K values and C candidate pairs.
    """
    _checked("rtol", rtol, float, low=0)
    arr = _array(values, "values", 1)
    mags = np.abs(arr)
    # Widened past the rounding of the test's bound, of |v[i] - v[j]| and of
    # the search's sum, so every clash is a candidate; the test decides.
    eps = np.finfo(float).eps
    window = (rtol + eps) * max(float(mags.max()), 1.0) * (1 + 4 * eps)
    order = np.argsort(arr.real, kind="stable")
    reals = arr.real[order]
    counts = np.searchsorted(reals, reals + window, side="right") - np.arange(1, arr.size + 1)
    # Candidate k pairs sorted position first[k] with the one offset[k] later.
    first = np.repeat(np.arange(arr.size), counts)
    offset = np.arange(first.size) - np.repeat(np.cumsum(counts) - counts, counts) + 1
    i, j = order[first], order[first + offset]
    i, j = np.minimum(i, j), np.maximum(i, j)
    hit = np.abs(arr[i] - arr[j]) <= rtol * np.maximum(np.maximum(mags[i], mags[j]), 1.0)
    i, j = i[hit], j[hit]
    rank = np.lexsort((j, i))
    return list(zip(i[rank].tolist(), j[rank].tolist()))


def homogeneous_sum(alphas, k: int) -> complex:
    """Degree-``k`` complete homogeneous sum of ``alphas``.

    Equals the sum of all degree-``k`` monomials in the arguments with
    unit coefficients.  Computed by absorbing one variable at a time,

        h_k(a_1..a_j) = h_k(a_1..a_{j-1}) + a_j * h_{k-1}(a_1..a_j),

    which involves no divisions and therefore tolerates repeated and zero
    arguments exactly.
    """
    arr = _array(alphas, "alphas", 1)
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
    arr = _array(alphas, "alphas", 1)
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
    homogeneous sum.  The weights are

        H[k] = sum_{j >= k} (b_k / b_j) z_j prod_{i < k} (1 - b_i / b_j),

    one cumulative product down the columns of the quotients ``b_i / b_j``,
    ``i < j``.  The modulus ordering keeps each quotient at modulus <= 1,
    hence ``|H[k]| <= 2**n * max |zs|``.  No power of a beta is formed, so
    moduli near zero neither underflow nor overflow, and a zero weight adds
    exactly zero.
    """
    b = _array(betas, "betas", 1)
    z = _array(zs, "zs", 1)
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
    return _telescope(b, z)


def _telescope(b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """:func:`telescope_coefficients` of ``b`` and ``z`` that pass its checks."""
    # quotient[k, j] is b_k / b_j on and above the diagonal, 0 below it.
    i, j = np.triu_indices(b.size, 1)
    quotient = np.eye(b.size, dtype=complex)
    quotient[i, j] = b[i] / b[j]
    prefix = np.ones_like(quotient)
    prefix[1:] = np.cumprod(1.0 - quotient[:-1], axis=0)
    return (prefix * quotient * z).sum(axis=1)
