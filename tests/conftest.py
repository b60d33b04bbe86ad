"""Shared samplers and comparison helpers for the test suite."""

import numpy as np

import deepssm as d


def rel_err(a, b) -> float:
    """Sup-norm difference relative to the larger sup-norm of the pair."""
    a = np.atleast_1d(np.asarray(a))
    b = np.atleast_1d(np.asarray(b))
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def random_model(rng, depth, width, *, radius=(0.3, 0.95), scale=1.0):
    """Random stable model; eigenvalue moduli uniform in ``radius``."""

    def spectrum():
        mags = rng.uniform(radius[0], radius[1], width)
        return mags * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, width))

    def block(shape):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return z * (scale / np.sqrt(2.0 * width))

    layers = [d.LayerParams(spectrum(), block((width, 1)))]
    layers += [d.LayerParams(spectrum(), block((width, width))) for _ in range(depth - 1)]
    return d.DeepLinearSSM(tuple(layers), block((width,)))


def distinct_model(rng, depth, width, *, scale=1.0):
    """Random stable model with globally distinct nonzero eigenvalues."""
    total = depth * width
    mags = np.linspace(0.3, 0.95, total)
    eigs = (mags * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, total))).reshape(depth, width)

    def block(shape):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return z * (scale / np.sqrt(2.0 * width))

    layers = [d.LayerParams(eigs[0], block((width, 1)))]
    layers += [d.LayerParams(eigs[i], block((width, width))) for i in range(1, depth)]
    return d.DeepLinearSSM(tuple(layers), block((width,)))


def separated_complex(rng, count, lo=0.3, hi=0.95):
    """Pairwise well-separated nonzero complex values (distinct moduli)."""
    mags = np.linspace(lo, hi, count)
    return mags * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))


def random_normal_dense(rng, width, *, entry_scale=1.0):
    """DenseSSM whose state matrix is normal with a stable spectrum."""
    gauss = rng.standard_normal((width, width)) + 1j * rng.standard_normal((width, width))
    basis, _ = np.linalg.qr(gauss)
    spectrum = separated_complex(rng, width)
    state = basis @ np.diag(spectrum) @ basis.conj().T

    def vector():
        mags = rng.uniform(0.3, 1.0, width) * entry_scale
        return mags * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, width))

    return d.DenseSSM(state, vector(), vector())


def sequential_response(states, mixes, read_out, inputs):
    """Step-by-step reference for h_i(t) = A_i h_i(t-1) + B_i h_{i-1}(t).

    Each A_i in ``states`` is diagonal (a vector) or dense (a matrix); h_0 is
    the scalar input.  Returns the read-out ``C^T h_l(t)`` for every step.
    """
    hs = [np.zeros(len(a), dtype=complex) for a in states]
    out = np.empty(len(inputs), dtype=complex)
    for t, x in enumerate(inputs):
        below = np.array([x], dtype=complex)
        for i, (a, b) in enumerate(zip(states, mixes)):
            hs[i] = (a * hs[i] if np.ndim(a) == 1 else a @ hs[i]) + b @ below
            below = hs[i]
        out[t] = read_out @ below
    return out
