"""Every array argument of a model type or array function meets one rule.

A value that is not a rectangular nest of numbers (ragged nests, strings,
bools, None) raises :class:`ShapeMismatch`; a non-finite entry, or an integer too
large for a float, raises :class:`DomainError`; then the wrong rank, an
empty array or a non-square state matrix raises :class:`ShapeMismatch`;
and a length or row count that disagrees with the model's width raises
:class:`WidthMismatch`.  The table lists each entry point with valid
arguments and, for each array argument, its rank and how it meets the
model's width; the bad values are derived from the valid ones.
"""

import numpy as np
import pytest

import deepssm as d

A1, A2 = np.diag([0.5, 0.25]), np.array([[0.3, 0.1], [0.0, -0.2]])
B1, B2 = np.array([[1.0], [2.0]]), np.array([[1.0, 0.5], [0.0, 1.0]])
LAYERS = (d.LayerParams([0.5, 0.25], B1), d.LayerParams([0.3, -0.2], B2))
MODEL = d.DeepLinearSSM(LAYERS, [1.0, 1.0])
VECTOR, ROWS, SQUARE = (1, None), (1, "rows"), (2, "square")

# label, call, valid keyword arguments, {argument: (rank, width)}; a width of
# "rows" is checked against the model's width, "square" in both dimensions.
ENTRY_POINTS = [
    (
        "LayerParams",
        d.LayerParams,
        {"state_diag": [0.5, 0.25], "input_matrix": B1},
        {"state_diag": ROWS, "input_matrix": (2, "rows")},
    ),
    (
        "DeepLinearSSM",
        lambda read_out: d.DeepLinearSSM(LAYERS, read_out),
        {"read_out": [1.0, 1.0]},
        {"read_out": ROWS},
    ),
    (
        "ShallowRealization",
        d.ShallowRealization,
        {"eigenvalues": [0.5, -0.3], "read_in": [1.0, 0.5], "read_out": [1.0, 1.0]},
        {"eigenvalues": ROWS, "read_in": ROWS, "read_out": ROWS},
    ),
    ("ConvolutionKernel", d.ConvolutionKernel, {"taps": [1.0, 0.5]}, {"taps": VECTOR}),
    (
        "DenseSSM",
        d.DenseSSM,
        {"state_matrix": A1, "read_in": [1.0, 1.0], "read_out": [1.0, 1.0]},
        {"state_matrix": SQUARE, "read_in": ROWS, "read_out": ROWS},
    ),
    (
        "DenseDeepSSM",
        lambda a1, a2, b1, b2, read_out: d.DenseDeepSSM((a1, a2), (b1, b2), read_out),
        {"a1": A1, "a2": A2, "b1": B1, "b2": B2, "read_out": [1.0, 1.0]},
        {"a1": SQUARE, "a2": SQUARE, "b1": (2, "rows"), "b2": (2, "rows"), "read_out": ROWS},
    ),
    (
        "simulate",
        lambda inputs: d.simulate(MODEL, inputs),
        {"inputs": [1.0, 0.0, 0.0]},
        {"inputs": VECTOR},
    ),
    ("coincident_pairs", d.coincident_pairs, {"values": [0.5, 0.25]}, {"values": VECTOR}),
    (
        "homogeneous_sum",
        lambda alphas: d.homogeneous_sum(alphas, 2),
        {"alphas": [0.5, 0.25]},
        {"alphas": VECTOR},
    ),
    (
        "f_rational",
        lambda alphas: d.f_rational(alphas, 2),
        {"alphas": [0.5, 0.25]},
        {"alphas": VECTOR},
    ),
    (
        "telescope_coefficients",
        d.telescope_coefficients,
        {"betas": [0.25, 0.5], "zs": [1.0, 1.0]},
        {"betas": VECTOR, "zs": VECTOR},
    ),
]


def with_first_entry(valid, entry):
    """``valid`` as nested lists, with its first entry replaced by ``entry``."""
    nest = np.asarray(valid).tolist()
    (nest[0] if np.ndim(valid) == 2 else nest)[0] = entry
    return nest


def bad_values(valid, rank, width):
    """``(case, value, error class)`` for each way ``valid`` can be broken."""
    valid = np.asarray(valid)
    cases = [
        ("nan", with_first_entry(valid, float("nan")), d.DomainError),
        ("inf", with_first_entry(valid, complex(0.0, -float("inf"))), d.DomainError),
        ("huge-int", with_first_entry(valid, 10**400), d.DomainError),
        ("none-entry", with_first_entry(valid, None), d.ShapeMismatch),
        ("string-entry", with_first_entry(valid, "0.5"), d.ShapeMismatch),
        ("bool-entry", with_first_entry(valid, True), d.ShapeMismatch),
        ("numpy-bool-entry", with_first_entry(valid, np.True_), d.ShapeMismatch),
        ("rank-up", np.stack([valid, valid], axis=-1), d.ShapeMismatch),
        ("ragged", [[1.0], [1.0, 2.0]], d.ShapeMismatch),
        ("string", "ab", d.ShapeMismatch),
        ("numeric-strings", valid.astype(str), d.ShapeMismatch),
        ("bools", np.ones(valid.shape, dtype=bool), d.ShapeMismatch),
        ("empty", np.zeros((0,) * rank), d.ShapeMismatch),
    ]
    if width == "square":
        cases.append(("non-square", valid[:, :1].repeat(3, axis=1), d.ShapeMismatch))
        cases.append(("wider", np.pad(valid, (0, 1)), d.WidthMismatch))
    elif width == "rows":
        cases.append(("more-rows", np.concatenate([valid, valid[:1]]), d.WidthMismatch))
    return cases


CASES = [
    pytest.param(call, {**good, name: value}, error, id=f"{label}-{name}-{case}")
    for label, call, good, arrays in ENTRY_POINTS
    for name, (rank, width) in arrays.items()
    for case, value, error in bad_values(good[name], rank, width)
]

# Refusals of the layer structure rather than of one array.
STRUCTURE = [
    pytest.param(lambda: d.DeepLinearSSM((), [1.0]), d.ShapeMismatch, id="no-layers"),
    pytest.param(
        lambda: d.DeepLinearSSM((d.LayerParams([], np.zeros((0, 1))),), []),
        d.ShapeMismatch,
        id="width-0-deep",
    ),
    pytest.param(lambda: d.ShallowRealization([], [], []), d.ShapeMismatch, id="width-0-shallow"),
    pytest.param(
        lambda: d.DeepLinearSSM((d.LayerParams([0.5, 0.25], B2),), [1.0, 1.0]),
        d.ShapeMismatch,
        id="first-layer-two-columns",
    ),
    pytest.param(
        lambda: d.DeepLinearSSM((LAYERS[0], d.LayerParams([0.3], [[1.0]])), [1.0, 1.0]),
        d.WidthMismatch,
        id="narrower-second-layer",
    ),
    pytest.param(
        lambda: d.DeepLinearSSM((LAYERS[0], d.LayerParams([0.3, 0.2], B1)), [1.0, 1.0]),
        d.WidthMismatch,
        id="second-layer-one-column",
    ),
    pytest.param(lambda: d.DenseDeepSSM((), (), [1.0]), d.ShapeMismatch, id="no-dense-layers"),
    pytest.param(
        lambda: d.DenseDeepSSM((A1, A2), (B1,), [1.0, 1.0]),
        d.ShapeMismatch,
        id="fewer-input-matrices",
    ),
    pytest.param(
        lambda: d.DenseDeepSSM((A1,), (B2,), [1.0, 1.0]),
        d.ShapeMismatch,
        id="dense-first-input-two-columns",
    ),
    pytest.param(
        lambda: d.DenseDeepSSM((A1, A2), (B1, B1), [1.0, 1.0]),
        d.WidthMismatch,
        id="dense-second-input-one-column",
    ),
    pytest.param(
        lambda: d.DenseSSM(A1, B2, [1.0, 1.0]), d.ShapeMismatch, id="dense-read-in-two-columns"
    ),
    pytest.param(
        lambda: d.telescope_coefficients([0.25, 0.5], [1.0]),
        d.ShapeMismatch,
        id="telescope-lengths-differ",
    ),
]


# DenseSSM applies its one-layer dense stack's rule, but each refusal names
# the DenseSSM field at fault, not a layer of that stack.
DENSE_SSM_MESSAGES = [
    pytest.param({**good, name: value}, error, name, id=f"{name}-{case}")
    for label, _, good, arrays in ENTRY_POINTS
    if label == "DenseSSM"
    for name, (rank, width) in arrays.items()
    for case, value, error in bad_values(good[name], rank, width)
] + [
    pytest.param(
        {"state_matrix": A1, "read_in": B2, "read_out": [1.0, 1.0]},
        d.ShapeMismatch,
        "read_in",
        id="read_in-two-columns",
    )
]


@pytest.mark.parametrize(
    "call, good", [e[1:3] for e in ENTRY_POINTS], ids=[e[0] for e in ENTRY_POINTS]
)
def test_valid_arrays_are_accepted(call, good):
    call(**good)


@pytest.mark.parametrize("call, kwargs, error", CASES)
def test_bad_array_is_refused_by_class(call, kwargs, error):
    with pytest.raises(error) as caught:
        call(**kwargs)
    assert type(caught.value) is error


@pytest.mark.parametrize("call, error", STRUCTURE)
def test_bad_layer_structure_is_refused_by_class(call, error):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error


@pytest.mark.parametrize("kwargs, error, name", DENSE_SSM_MESSAGES)
def test_dense_ssm_refusals_name_its_fields(kwargs, error, name):
    # A wider state matrix sets a width that read_in then misses.
    named = "read_in" if (name, error) == ("state_matrix", d.WidthMismatch) else name
    with pytest.raises(error, match=rf"^{named} ") as caught:
        d.DenseSSM(**kwargs)
    assert type(caught.value) is error


def test_lower_ranks_are_padded_with_unit_axes():
    layer = d.LayerParams(0.5, [2.0])  # a scalar diagonal, a vector input matrix
    assert layer.state_diag.shape == (1,) and layer.input_matrix.shape == (1, 1)
    dense = d.DenseSSM(0.5, [[1.0]], 3.0)  # a scalar state matrix, a column read_in
    assert dense.state_matrix.shape == (1, 1) and dense.read_in.shape == (1,)
    assert d.DenseSSM(A1, B1, [1.0, 1.0]).read_in.tolist() == [1.0, 2.0]
    assert d.simulate(d.DeepLinearSSM((layer,), 1.0), 1.0).shape == (1,)


def test_arrays_are_read_only_copies_and_layers_are_kept():
    source = np.array([0.5, 0.25])
    layer = d.LayerParams(source, B1)
    source[0] = 0.0
    assert layer.state_diag[0] == 0.5 and not layer.state_diag.flags.writeable
    model = d.DeepLinearSSM([layer], [1.0, 1.0])
    assert model.layers[0] is layer and not model.read_out.flags.writeable
    assert not d.DenseSSM(A1, B1, [1.0, 1.0]).read_in.flags.writeable


def test_empty_expansion_table_has_the_zero_kernel():
    teacher = d.ShallowRealization([0.5, 0.2, 0.1], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    student, _ = d.factorize(teacher, 2)
    table = d.expand_coefficients(student)
    assert table.entries == ()
    taps = table.kernel(5).taps
    assert taps.dtype == complex and taps.tolist() == [0.0] * 5
