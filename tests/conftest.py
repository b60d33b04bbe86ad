"""Shared samplers, comparison helpers and reference oracles for the test suite."""

import csv
import io
import itertools
import json
import sys

import numpy as np

import deepssm as d
from deepssm.core import _BLOCK


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


def homogeneous_sequence(alphas, count):
    """Degrees ``0 .. count-1`` of the complete homogeneous sum, as a vector."""
    seq = np.zeros(count, dtype=complex)
    seq[0] = 1.0
    for value in np.atleast_1d(alphas):
        seq = d.extend_homogeneous(seq, value)
    return seq


def recurrence_filter(seqs, alpha):
    """Step-by-step ``out[t] = alpha * out[t-1] + seqs[t]`` along the last axis.

    The oracle for :func:`deepssm.extend_homogeneous`: one multiply-add per
    time step, ``alpha`` broadcast over the leading axes as there.
    """
    seqs = np.asarray(seqs, dtype=complex)
    alpha = np.asarray(alpha, dtype=complex)
    out = np.empty(np.broadcast_shapes(seqs.shape[:-1], alpha.shape) + seqs.shape[-1:], complex)
    state = np.zeros(out.shape[:-1], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(seqs.shape[-1]):
            state = alpha * state + seqs[..., t]
            out[..., t] = state
    return out


def convolve(kernel, inputs):
    """Causal convolution ``y(t) = sum_s taps[s] x(t-s)`` truncated to len(x)."""
    x = np.atleast_1d(np.asarray(inputs, dtype=complex))
    return np.convolve(kernel.taps, x)[: x.size]


def parse_kernel_csv(text):
    """Kernel from the text of a kernel CSV (header ``t,re,im``)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["t", "re", "im"]:
        raise d.ShapeMismatch(f"unexpected kernel CSV header: {header!r}")
    taps = []
    for row in reader:
        if not row:
            continue
        if len(row) != 3:
            raise d.ShapeMismatch(f"bad kernel CSV row: {row!r}")
        if int(row[0]) != len(taps):
            raise d.ShapeMismatch("kernel CSV rows must be consecutive from t = 0")
        taps.append(complex(float(row[1]), float(row[2])))
    if not taps:
        raise d.ShapeMismatch("kernel CSV holds no taps")
    return d.ConvolutionKernel(np.array(taps, dtype=complex))


def load_kernel_csv(path):
    with open(path, "r", newline="") as handle:
        return parse_kernel_csv(handle.read())


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


def doubling_layer_blocks(states, mixes, drive):
    """The recurrence engine before its pairing scan, kept as a bit-level oracle.

    Same blocks, carries and overflow rule as :func:`deepssm.core._layer_blocks`,
    but every block is scanned by doubling alone, ``h[k:] += A^k h[:-k]`` for
    k = 1, 2, 4, ...; on blocks of ``_DOUBLING_ROWS`` rows or fewer the engine
    must agree with it bit for bit.
    """
    mags = np.abs(states)
    growth = (mags if mags.ndim == 2 else mags.sum(axis=-1)).max()
    block = _BLOCK
    while block > 2 and growth >= sys.float_info.max ** (2 / block):
        block //= 2
    carries = [np.zeros(len(a), dtype=complex) for a in states]
    for start in range(0, len(drive), block):
        rows = slice(start, start + block)
        h = drive[rows]
        for i, (a, mix) in enumerate(zip(states, mixes)):
            times = np.multiply if a.ndim == 1 else np.matmul
            with np.errstate(over="ignore", invalid="ignore"):
                h = h @ mix.T
                h[0] += times(carries[i], a.T)
                power, k = a, 1
                while k < len(h):
                    h[k:] += times(h[:-k], power.T)
                    power, k = times(power.T, power.T).T, 2 * k
            carries[i] = h[-1]
            yield i, rows, h


def path_sum_expansion(model):
    """Reference expansion coefficients ``xi[i, j]``, one term per index path.

    Walks all m^l paths (j_1..j_l); a path of nonzero weight adds
    ``weight / prod_{a != i} (1 - lam_a / lam_i)`` at each of its nonzero
    eigenvalues.  Raises :class:`ResonantEigenvalues` and
    :class:`ZeroEigenvalue` where :func:`deepssm.expand_coefficients` must.
    """
    depth, m = model.depth, model.width
    lambdas = [layer.state_diag for layer in model.layers]
    mats = [layer.input_matrix for layer in model.layers]
    flat_nonzero = [
        lambdas[i][j] for i in range(depth) for j in range(m) if lambdas[i][j] != 0
    ]
    if flat_nonzero and d.coincident_pairs(np.array(flat_nonzero)):
        raise d.ResonantEigenvalues("eigenvalues coincide across entries")

    first = mats[0][:, 0]
    read_out = model.read_out
    xi = np.zeros((depth, m), dtype=complex)
    for path in itertools.product(range(m), repeat=depth):
        w = first[path[0]]
        if w == 0:
            continue
        for i in range(1, depth):
            w = w * mats[i][path[i], path[i - 1]]
            if w == 0:
                break
        else:
            w = w * read_out[path[-1]]
            if w == 0:
                continue
            lams = np.array([lambdas[i][path[i]] for i in range(depth)])
            if np.all(lams == 0):
                raise d.ZeroEigenvalue("a nonzero-weight path has all-zero eigenvalues")
            for i in range(depth):
                lam = lams[i]
                if lam == 0:
                    continue
                ratios = 1.0 - np.delete(lams, i) / lam
                xi[i, path[i]] += w / np.prod(ratios)
    return xi


def path_sum_kernel(model, horizon):
    """Reference closed-form taps: per index path, weight times homogeneous sums.

    Paths are grown one layer at a time and those whose weight is exactly
    zero are dropped as they arise, so a dead channel that overflows adds
    nothing.  Cost is Theta(m^l * l * horizon).
    """
    m = model.width
    delta = np.zeros(horizon, dtype=complex)
    delta[0] = 1.0

    first = model.layers[0]
    weights = first.input_matrix[:, 0].copy()
    keep = np.flatnonzero(weights != 0)
    if keep.size == 0:
        return np.zeros(horizon, dtype=complex)
    weights = weights[keep]
    seqs = np.stack([d.extend_homogeneous(delta, first.state_diag[j]) for j in keep])
    last = keep

    for layer in model.layers[1:]:
        mat = layer.input_matrix
        next_seqs, next_weights, next_last = [], [], []
        for j in range(m):
            stepped = weights * mat[j, last]
            alive = np.flatnonzero(stepped != 0)
            if alive.size == 0:
                continue
            next_seqs.append(d.extend_homogeneous(seqs[alive], layer.state_diag[j]))
            next_weights.append(stepped[alive])
            next_last.append(np.full(alive.size, j))
        if not next_seqs:
            return np.zeros(horizon, dtype=complex)
        seqs = np.vstack(next_seqs)
        weights = np.concatenate(next_weights)
        last = np.concatenate(next_last)

    return (weights * model.read_out[last]) @ seqs


# The writers each file format had before one codec wrote them all, kept as
# byte-level oracles: one ``[re, im]`` pair per Python call, ``csv.writer``
# and f-strings for the CSV files, and hand-copied dicts for the small JSON
# reports.


def _entrywise_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _indented_json(data):
    return json.dumps(data, indent=2) + "\n"


def entrywise_model_json(model):
    return _indented_json(
        {
            "layers": [
                {
                    "state_diag": [_entrywise_pair(z) for z in layer.state_diag],
                    "input_matrix": [
                        [_entrywise_pair(z) for z in row] for row in layer.input_matrix
                    ],
                }
                for layer in model.layers
            ],
            "read_out": [_entrywise_pair(z) for z in model.read_out],
        }
    )


def entrywise_dense_json(dense):
    return _indented_json(
        {
            "state_matrix": [[_entrywise_pair(z) for z in row] for row in dense.state_matrix],
            "read_in": [_entrywise_pair(z) for z in dense.read_in],
            "read_out": [_entrywise_pair(z) for z in dense.read_out],
        }
    )


def entrywise_expansion_json(table):
    return _indented_json(
        {
            "entries": [
                {
                    "layer": e.layer,
                    "index": e.index,
                    "eigenvalue": [e.eigenvalue.real, e.eigenvalue.imag],
                    "coefficient": [e.coefficient.real, e.coefficient.imag],
                }
                for e in table.entries
            ]
        }
    )


def csv_writer_kernel_csv(kernel):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "re", "im"])
    for t, tap in enumerate(kernel.taps):
        writer.writerow([t, repr(float(tap.real)), repr(float(tap.imag))])
    return buf.getvalue()


def fstring_expansion_csv(table):
    lines = ["layer,index,lambda_re,lambda_im,xi_re,xi_im"]
    for e in table.entries:
        lines.append(
            f"{e.layer},{e.index},{e.eigenvalue.real!r},{e.eigenvalue.imag!r},"
            f"{e.coefficient.real!r},{e.coefficient.imag!r}"
        )
    return "\n".join(lines) + "\n"


def fstring_records_csv(records):
    records = list(records)
    base = next((r.wall_time for r in records if r.depth == 1), None)
    if base is None and records:
        base = records[0].wall_time
    if not base or base <= 0:
        base = 1.0
    lines = ["depth,width,seed,final_loss,max_param_norm,equiv_shallow_max_norm,wall_time_rel"]
    for r in records:
        lines.append(
            f"{r.depth},{r.width},{r.seed},{r.final_loss!r},{r.max_param_norm!r},"
            f"{r.equiv_shallow_max_norm!r},{r.wall_time / base!r}"
        )
    return "\n".join(lines) + "\n"


def certificate_json(cert):
    return _indented_json(
        {"z0": cert.z0, "measured_max": cert.measured_max, "satisfied": cert.satisfied}
    )


def plan_json(plan):
    return _indented_json(
        {"depth": plan.depth, "width": plan.width, "predicted_bound": plan.predicted_bound}
    )
