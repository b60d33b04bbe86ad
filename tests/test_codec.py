"""The one codec behind every file format, against the writers it replaced.

Each file must come out byte for byte as the entry-by-entry writers in
``conftest`` wrote it, on random shapes and on the floats most likely to
lose a bit: signed zeros, the smallest subnormal, values near overflow and
integer-valued floats.  Malformed JSON must be refused with the same
exception classes as before.
"""

import json
import os
import stat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import deepssm as d
from deepssm import cli
from deepssm.core import _pairs, _write_json
from conftest import (
    certificate_json,
    csv_writer_kernel_csv,
    entrywise_dense_json,
    entrywise_expansion_json,
    entrywise_model_json,
    fstring_expansion_csv,
    fstring_records_csv,
    plan_json,
    random_model,
)

SPECIAL = [-0.0, 5e-324, -5e-324, 1e308, 3.0, -2.0, 0.0, complex(-0.0, -0.0), complex(0.0, -0.0)]


def planted(rng, arr, *, values=SPECIAL):
    """Copy of ``arr`` with about a third of its entries set to special values."""
    arr = np.array(arr, dtype=complex)
    flat = arr.reshape(-1)
    for k in np.flatnonzero(rng.random(flat.size) < 0.35):
        flat[k] = values[rng.integers(len(values))]
    return arr


def planted_model(rng, base, *, values=SPECIAL):
    """Copy of the model ``base`` with special values planted in every array."""
    layers = tuple(
        d.LayerParams(
            planted(rng, x.state_diag, values=values), planted(rng, x.input_matrix, values=values)
        )
        for x in base.layers
    )
    return d.DeepLinearSSM(layers, planted(rng, base.read_out, values=values))


def special_model(rng, depth, width, *, values=SPECIAL):
    return planted_model(rng, random_model(rng, depth, width), values=values)


def bits(arr):
    """Bit patterns of a complex array, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(arr).view(np.uint64)


SHAPES = [(depth, width) for depth in range(1, 5) for width in range(1, 6)]


@pytest.mark.parametrize("depth, width", SHAPES)
def test_model_json_bytes_and_bits_survive(tmp_path, depth, width):
    rng = np.random.default_rng(100 * depth + width)
    model = special_model(rng, depth, width)
    path = tmp_path / "model.json"
    d.save_model(model, path)
    assert path.read_text() == entrywise_model_json(model)
    again = d.load_model(path)
    for a, b in zip(again.layers, model.layers):
        np.testing.assert_array_equal(bits(a.state_diag), bits(b.state_diag))
        np.testing.assert_array_equal(bits(a.input_matrix), bits(b.input_matrix))
    np.testing.assert_array_equal(bits(again.read_out), bits(model.read_out))


def test_round_trip_keeps_the_sign_of_every_zero(tmp_path):
    zeros = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), complex(-0.0, 0.0)]
    layer = d.LayerParams(zeros, np.array(zeros)[:, None])
    model = d.DeepLinearSSM((layer,), zeros[::-1])
    d.save_model(model, tmp_path / "zeros.json")
    again = d.load_model(tmp_path / "zeros.json")
    for a, b in [
        (again.layers[0].state_diag, layer.state_diag),
        (again.layers[0].input_matrix, layer.input_matrix),
        (again.read_out, model.read_out),
    ]:
        np.testing.assert_array_equal(np.signbit(a.real), np.signbit(b.real))
        np.testing.assert_array_equal(np.signbit(a.imag), np.signbit(b.imag))


@pytest.mark.parametrize("depth, width", SHAPES)
def test_collapse_output_bytes(tmp_path, depth, width):
    # Collapse multiplies entries together, so 1e308 stays out of it.
    rng = np.random.default_rng(200 * depth + width)
    dense = d.collapse(special_model(rng, depth, width, values=SPECIAL[:3] + SPECIAL[4:]))
    path = tmp_path / "dense.json"
    d.save_dense(dense, path)
    assert path.read_text() == entrywise_dense_json(dense)
    again = d.load_dense(path)
    np.testing.assert_array_equal(bits(again.state_matrix), bits(dense.state_matrix))
    np.testing.assert_array_equal(bits(again.read_in), bits(dense.read_in))


def special_table(rng, count):
    values = planted(rng, rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2)))
    entries = tuple(
        d.ExpansionEntry(k % 4 + 1, k + 1, complex(lam), complex(xi))
        for k, (lam, xi) in enumerate(values)
    )
    return d.ExpansionTable(entries)


@pytest.mark.parametrize("count", [0, 1, 7, 40])
def test_expansion_csv_and_json_bytes(count):
    table = special_table(np.random.default_rng(count), count)
    assert table.csv_text() == fstring_expansion_csv(table)
    assert json.dumps(table.to_json_dict(), indent=2) + "\n" == entrywise_expansion_json(table)


def test_expand_command_bytes(tmp_path):
    model = random_model(d.seeded_rng(60), 3, 4)
    d.save_model(model, tmp_path / "model.json")
    table = d.expand_coefficients(model)
    for name, oracle in [("t.csv", fstring_expansion_csv), ("t.json", entrywise_expansion_json)]:
        out = tmp_path / name
        argv = ["expand", "--input", str(tmp_path / "model.json"), "--output", str(out)]
        assert cli.run(argv) == 0
        assert out.read_text() == oracle(table)


@pytest.mark.parametrize("depth, width", SHAPES)
def test_kernel_csv_bytes(depth, width):
    rng = np.random.default_rng(300 * depth + width)
    model = random_model(rng, depth, width)
    for kernel in [
        d.kernel_by_simulation(model, 40),
        d.kernel_closed_form(model, 40),
        d.ConvolutionKernel(planted(rng, rng.standard_normal(30) + 1j * rng.standard_normal(30))),
    ]:
        assert d.kernel_csv_text(kernel) == csv_writer_kernel_csv(kernel)


def test_records_csv_bytes_with_a_nan_column():
    rng = np.random.default_rng(5)
    records = [
        d.ExperimentRecord(
            depth=depth,
            width=3,
            seed=7,
            final_loss=float(rng.standard_normal()) ** 2,
            max_param_norm=[5e-324, 1e308, 2.0, -0.0][depth - 1],
            equiv_shallow_max_norm=float("nan"),
            wall_time=float(rng.uniform(0.1, 2.0)),
        )
        for depth in range(1, 5)
    ]
    for subset in [records, records[1:], []]:
        assert d.records_csv_text(subset) == fstring_records_csv(subset)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_certificate_json_bytes(tmp_path, depth):
    teacher = d.sample_teacher(3 * depth + 1, 2.0, d.seeded_rng(depth))
    d.save_model(teacher.as_model(), tmp_path / "teacher.json")
    argv = ["factorize", "--input", str(tmp_path / "teacher.json"),
            "--output", str(tmp_path / "student.json"), "--depth", str(depth)]
    assert cli.run(argv) == 0
    student, cert = d.factorize(teacher, depth)
    assert (tmp_path / "student.cert.json").read_text() == certificate_json(cert)
    assert (tmp_path / "student.json").read_text() == entrywise_model_json(student)


@pytest.mark.parametrize("c1, c2, modes", [(100, 4, 12), (4, 10, 5), (1.5, 2.5, 1), (1e6, 3.0, 40)])
def test_plan_json_bytes(tmp_path, capsys, c1, c2, modes):
    plan = d.minimal_depth(c1, c2, modes)
    argv = ["plan-depth", "--c1", str(c1), "--c2", str(c2), "--modes", str(modes)]
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == plan_json(plan)
    assert cli.run(argv + ["--output", str(tmp_path / "plan.json")]) == 0
    assert (tmp_path / "plan.json").read_text() == plan_json(plan)


def model_with(**arrays):
    """One-layer model JSON whose arrays, unless given, are valid ones."""
    arrays = {
        "state_diag": [[0.5, 0.0]],
        "input_matrix": [[[1.0, 0.0]]],
        "read_out": [[1.0, 0.0]],
        **arrays,
    }
    read_out = arrays.pop("read_out")
    return {"layers": [arrays], "read_out": read_out}


HUGE = int("1" * 310)


@pytest.mark.parametrize(
    "data, error",
    [
        (model_with(state_diag=[[True, 0.0]]), d.ShapeMismatch),
        (model_with(read_out=[[1.0, False]]), d.ShapeMismatch),
        (model_with(state_diag=[[0.5]]), d.ShapeMismatch),
        (model_with(read_out=[[1.0, 0.0, 0.0]]), d.ShapeMismatch),
        (model_with(input_matrix=[[[1.0, 0.0, 2.0]]]), d.ShapeMismatch),
        (model_with(state_diag=[["0.5", 0.0]]), d.ShapeMismatch),
        (model_with(input_matrix=[[[1.0, "0"]]]), d.ShapeMismatch),
        (model_with(state_diag=[[0.5, 0.0], [0.4, 0.0]],
                    input_matrix=[[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]],
                    read_out=[[1.0, 0.0], [1.0, 0.0]]), d.ShapeMismatch),
        (model_with(input_matrix=[]), d.ShapeMismatch),
        (model_with(state_diag=[[[0.5, 0.0], [0.0, 0.0]]]), d.ShapeMismatch),
        (model_with(input_matrix=[[[[1.0, 0.0]]]]), d.ShapeMismatch),
        (model_with(read_out=[[HUGE, 0]]), d.DomainError),
        (model_with(input_matrix=[[[1, -HUGE]]]), d.DomainError),
        (model_with(read_out=[[HUGE, 0], [True, 0]]), d.DomainError),
        (model_with(read_out=[[True, 0], [HUGE, 0]]), d.ShapeMismatch),
    ],
    ids=[
        "bool-entry", "bool-imaginary-part", "one-entry-pair", "three-entry-pair",
        "three-entry-pair-in-matrix", "string-entry", "string-in-matrix", "ragged-rows",
        "empty-matrix", "too-deep-vector", "too-deep-matrix", "310-digit-integer",
        "310-digit-integer-in-matrix", "310-digit-integer-then-bool", "bool-then-310-digit-integer",
    ],
)
def test_malformed_arrays_are_refused(data, error):
    with pytest.raises(error):
        d.model_from_json_dict(json.loads(json.dumps(data)))


def test_integer_pairs_read_as_floats():
    model = d.model_from_json_dict(model_with(state_diag=[[1, -0]], read_out=[[2, 3]]))
    assert model.layers[0].state_diag.tolist() == [1.0 + 0.0j]
    assert model.read_out.tolist() == [2.0 + 3.0j]


# The writer against ``json.dumps(indent=2)`` itself, on nests of lists,
# lists of float pairs (written level by level), dicts with odd and
# non-string keys, and every scalar.
EDGE_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 2.5e-05]
floats = st.sampled_from(EDGE_FLOATS) | st.floats()
scalars = st.none() | st.booleans() | st.integers() | floats | st.text(max_size=4)
pair_like = (
    st.lists(floats, min_size=2, max_size=2)
    | st.tuples(st.integers() | st.booleans(), floats).map(list)
    | st.lists(floats, min_size=1, max_size=3)
)
float_pairs = st.lists(st.lists(floats, min_size=2, max_size=2), max_size=5)
pair_lists = float_pairs | st.lists(pair_like, max_size=5)
odd_keys = ['"q"', "back\\slash", "new\nline", "\x00", "é", "\u2028", "😀"]
keys = st.sampled_from(odd_keys) | st.text(max_size=4) | st.integers() | st.none()
nests = st.recursive(
    scalars | pair_lists | st.lists(pair_lists, max_size=3),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(keys, children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=nests)
@example(data=[[1.0], [2.0, 3.0, 4.0]])  # ragged, with the float count of two pairs
@example(data={"pairs": [[0.1 + 0.2, -0.0]]})  # a 17-digit float
def test_json_writer_is_json_dumps(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "nest.json"
    _write_json(data, path)
    assert path.read_text(encoding="ascii") == json.dumps(data, indent=2) + "\n"


def test_wide_model_json_bytes(tmp_path):
    # The benchmark's width: rows of 101 pairs, formatted from the model's complex arrays.
    model = special_model(np.random.default_rng(101), 2, 101)
    d.save_model(model, tmp_path / "wide.json")
    assert (tmp_path / "wide.json").read_text() == entrywise_model_json(model)


# The array writer against ``json.dumps`` of the pair lists it replaced, on
# vectors and matrices up to the benchmark's width: runs of exact zeros (one
# shared string) between signed zeros (formatted, so told apart by their
# bits), subnormals, floats whose repr has an exponent, 17-digit floats and
# any other finite float.
ARRAY_ENTRIES = [
    complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0),
    5e-324, 1e16, 0.1 + 0.2, complex(1e16, -5e-324), -2.5e-05j,
]
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def complex_arrays(draw):
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(1, 101))
    arr = np.zeros((cols,) if rows == 0 else (rows, cols), dtype=complex)
    flat = arr.reshape(-1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from([0.0, 0.03, 0.3, 1.0]))
    planted_at = np.flatnonzero(rng.random(flat.size) < share)
    flat[planted_at] = rng.choice(ARRAY_ENTRIES, planted_at.size)
    for k in draw(st.lists(st.integers(0, flat.size - 1), max_size=4)):
        flat[k] = complex(draw(finite_floats), draw(finite_floats))
    return arr


@settings(max_examples=60, deadline=None, derandomize=True)
@given(arr=complex_arrays())
@example(arr=np.array([[complex(0.0, -0.0), 0.0, complex(-0.0, 0.0)], [0.0, -0.0, 0.0]]))
def test_array_writer_is_json_dumps_of_pairs(tmp_path_factory, arr):
    path = tmp_path_factory.getbasetemp() / "array.json"
    _write_json({"a": arr}, path)
    assert path.read_text(encoding="ascii") == json.dumps({"a": _pairs(arr)}, indent=2) + "\n"


def test_student_round_trip_is_bit_exact(tmp_path):
    # A width-101, depth-3 student: mostly exact +0.0 pairs, with signed
    # zeros and the smallest subnormal planted among them.
    student, _ = d.factorize(d.sample_teacher(301, 2.0, d.seeded_rng(17)), 3)
    values = [-0.0, complex(0.0, -0.0), complex(-0.0, -0.0), 5e-324, complex(-5e-324, 5e-324)]
    model = planted_model(np.random.default_rng(17), student, values=values)
    d.save_model(model, tmp_path / "student.json")
    again = d.load_model(tmp_path / "student.json")
    for a, b in zip(again.layers, model.layers):
        np.testing.assert_array_equal(bits(a.state_diag), bits(b.state_diag))
        np.testing.assert_array_equal(bits(a.input_matrix), bits(b.input_matrix))
    np.testing.assert_array_equal(bits(again.read_out), bits(model.read_out))


# The model reader against the JSON parser it skips.  ``load_model`` reads a
# file exactly as ``save_model`` writes it array by array; every other text
# must give what ``model_from_json_dict(json.loads(text))`` gives: the same
# bits, or the same exception class and message.
READER_VALUES = [-0.0, complex(0.0, -0.0), 5e-324, complex(-5e-324, 1e16), 1e16, 3.0]


def outcome(load):
    """The bits of every array of ``load()``'s model, or its exception."""
    try:
        model = load()
    except (d.DeepSsmError, ValueError) as exc:
        return type(exc), str(exc)
    arrays = [a for layer in model.layers for a in (layer.state_diag, layer.input_matrix)]
    return [bits(a).tolist() for a in [*arrays, model.read_out]]


def saved_text(tmp_path, model):
    d.save_model(model, tmp_path / "saved.json")
    return (tmp_path / "saved.json").read_text()


def relaid(text, change):
    """``text`` parsed, changed in place by ``change`` and written back as
    ``json.dumps(indent=2)`` does: the writer's layout around other content."""
    data = json.loads(text)
    change(data)
    return json.dumps(data, indent=2) + "\n"


def float_token(text, draw):
    """Span of one number of ``text``, drawn among its first 200."""
    head = text[:20000]
    starts = [k for k in range(1, len(head)) if head[k - 1] == " " and head[k] in "-0123456789"]
    start = draw(st.sampled_from(starts[:200]))
    end = start
    while text[end] not in ",\n":
        end += 1
    return start, end


def respelled(spellings):
    def mutate(text, draw):
        start, end = float_token(text, draw)
        return text[:start] + draw(st.sampled_from(spellings)) + text[end:]

    return mutate


# Numbers as JSON spells them otherwise, or not at all; Python's float()
# takes most of them.
INT_SPELLINGS = ["0", "3", "-0", "1"]
NON_FINITE_SPELLINGS = ["NaN", "Infinity", "-Infinity", "nan", "inf", "1e999"]
PYTHON_SPELLINGS = ["1_0.0", "+1.0", "0x1p3", "1.0\u00a0", "true", '"1.0"', "١.0"]


def space_added(text, draw):
    k = draw(st.integers(0, len(text)))
    return text[:k] + draw(st.sampled_from([" ", "\n"])) + text[k:]


def space_dropped(text, draw):
    k = draw(st.sampled_from([k for k, c in enumerate(text[:20000]) if c in " \n"]))
    return text[:k] + text[k + 1 :]


def reordered_layer(data):
    data["layers"][-1] = dict(reversed(list(data["layers"][-1].items())))


def ragged(data):
    # Moves a pair from one row to another: the pair count still fits.
    rows = data["layers"][-1]["input_matrix"]
    rows[-1].append(rows[0].pop())


MUTATIONS = {
    "none": lambda text, draw: text,
    "compact": lambda text, draw: json.dumps(json.loads(text)),
    "no-final-newline": lambda text, draw: text[:-1],
    "space-added": space_added,
    "space-dropped": space_dropped,
    "float-respelled": lambda text, draw: text.replace(
        "1e+16", draw(st.sampled_from(["1e16", "10000000000000000.0", "1E+16"])), 1
    ),
    "int-for-float": respelled(INT_SPELLINGS),
    "non-finite": respelled(NON_FINITE_SPELLINGS),
    "python-only": respelled(PYTHON_SPELLINGS),
    "truncated": lambda text, draw: text[: draw(st.integers(0, len(text) - 1))],
    "extra-key": lambda text, draw: relaid(text, lambda data: data["layers"][0].update(x=1)),
    "extra-top-key": lambda text, draw: relaid(text, lambda data: data.update(x=[])),
    "reordered-layer-keys": lambda text, draw: relaid(text, reordered_layer),
    "read-out-first": lambda text, draw: relaid(
        text, lambda data: data.update(layers=data.pop("layers"))
    ),
    "ragged-row": lambda text, draw: relaid(text, ragged),
    "layer-dropped": lambda text, draw: relaid(text, lambda data: data["layers"].pop(0)),
    "no-layers": lambda text, draw: relaid(text, lambda data: data["layers"].clear()),
}


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    depth=st.integers(1, 3),
    width=st.sampled_from([1, 2, 3, 101]),
    mutation=st.sampled_from(sorted(MUTATIONS)),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_model_reader_is_model_from_json_dict(tmp_path_factory, depth, width, mutation, seed, data):
    tmp_path = tmp_path_factory.getbasetemp()
    rng = np.random.default_rng(seed)
    if mutation == "ragged-row" and (depth == 1 or width == 1):
        depth, width = 2, 3
    model = special_model(rng, depth, width, values=READER_VALUES)
    text = MUTATIONS[mutation](saved_text(tmp_path, model), data.draw)
    path = tmp_path / "mutated.json"
    path.write_text(text)
    want = outcome(lambda: d.model_from_json_dict(json.loads(text)))
    assert outcome(lambda: d.load_model(path)) == want


@pytest.mark.parametrize("spelling", INT_SPELLINGS + NON_FINITE_SPELLINGS + PYTHON_SPELLINGS)
@pytest.mark.parametrize("array", ["state_diag", "input_matrix", "read_out"])
def test_model_reader_on_each_spelling(tmp_path, spelling, array):
    # The first real part of the first layer's array, or of the read-out.
    text = saved_text(tmp_path, random_model(np.random.default_rng(5), 2, 3))
    start = text.index("[", text.index(f'"{array}"'))
    start = text.index("[", start + 1) if array == "input_matrix" else start
    start = text.index(" ", text.index("[", start + 1) + 1)
    while text[start] == " ":
        start += 1
    end = text.index(",", start)
    text = text[:start] + spelling + text[end:]
    (tmp_path / "respelled.json").write_text(text)
    want = outcome(lambda: d.model_from_json_dict(json.loads(text)))
    assert outcome(lambda: d.load_model(tmp_path / "respelled.json")) == want


def test_saved_files_skip_the_parser_and_others_the_layout(tmp_path, monkeypatch):
    model = special_model(np.random.default_rng(7), 3, 101, values=READER_VALUES)
    text = saved_text(tmp_path, model)
    (tmp_path / "compact.json").write_text(json.dumps(json.loads(text)))
    want = outcome(lambda: model)

    def refuse(*args, **kwargs):
        raise AssertionError("not the path expected")

    with monkeypatch.context() as patch:
        patch.setattr(d.core.json, "loads", refuse)
        assert outcome(lambda: d.load_model(tmp_path / "saved.json")) == want
    # A compact file is refused on its first bytes, before any array is read.
    monkeypatch.setattr(d.core, "_layout_array", refuse)
    assert outcome(lambda: d.load_model(tmp_path / "compact.json")) == want


@pytest.fixture(scope="module")
def student():
    """The benchmark's student: 1201 modes factorized to depth 12, width 101."""
    return d.factorize(d.sample_teacher(1201, 2.0, d.seeded_rng(1)), 12)[0]


@pytest.mark.parametrize(
    "shape", [(1, 4), (3, 1), (4, 5), "student"], ids=["depth-1", "width-1", "4x5", "student"]
)
def test_every_saved_shape_skips_the_parser(tmp_path, monkeypatch, request, shape):
    # A silent fallback to json.loads would give the same model, only slower.
    if shape == "student":
        model = request.getfixturevalue("student")
    else:
        model = special_model(np.random.default_rng(shape), *shape, values=READER_VALUES)
    d.save_model(model, tmp_path / "saved.json")

    def refuse(*args, **kwargs):
        raise AssertionError("a saved file went to the JSON parser")

    with monkeypatch.context() as patch:
        patch.setattr(d.core.json, "loads", refuse)
        got = outcome(lambda: d.load_model(tmp_path / "saved.json"))
    assert got == outcome(lambda: model)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_written_files_follow_the_umask(tmp_path, umask, mode):
    # As open(path, "w") would make them, not the 0600 of a temp file.
    before = os.umask(umask)
    try:
        d.atomic_write_text(tmp_path / "kernel.csv", "t,re,im\n")
        d.save_model(random_model(np.random.default_rng(0), 2, 3), tmp_path / "model.json")
    finally:
        os.umask(before)
    for name in ("kernel.csv", "model.json"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode
