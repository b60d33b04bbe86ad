"""Every scalar argument of every public entry point is checked by one rule.

A value of the wrong kind (nan, an infinity, a bool where a number is
meant, a string, a fraction where an integer is meant) or below its bound
raises :class:`DomainError`, and the message starts with the argument's
name.  The table lists each entry point with valid arguments and, for each
checked scalar, its kind and lower bound.
"""

import numpy as np
import pytest

import deepssm as d
from deepssm import cli

TEACHER = d.ShallowRealization([0.5, -0.3, 0.2], [1.0, 0.5, 0.25], [1.0, 1.0, 1.0])
MODEL = TEACHER.as_model()
DENSE = d.DenseSSM(np.diag([0.5, 0.25]), np.ones(2), np.ones(2))
DENSE_DEEP = d.DenseDeepSSM((np.diag([0.5, 0.25]),), (np.ones(2),), np.ones(2))
TABLE = d.expand_coefficients(MODEL)
#: A Jordan block: not normal, not diagonalizable, and a kernel t * 0.5**(t-1).
JORDAN = np.array([[0.5, 1.0], [0.0, 0.5]])
JORDAN_READ_IN, JORDAN_READ_OUT = np.array([0.0, 1.0]), np.array([1.0, 0.0])

#: Bound kinds: ``low`` is inclusive, ``above`` exclusive, ``None`` unbounded.
INT_FROM_0, INT_FROM_1 = (int, "low", 0), (int, "low", 1)

# label, call, valid keyword arguments, {argument: (kind, bound kind, bound)}
ENTRY_POINTS = [
    ("ShallowRealization.kernel", TEACHER.kernel, {"horizon": 8}, {"horizon": INT_FROM_1}),
    ("ExpansionTable.kernel", TABLE.kernel, {"horizon": 8}, {"horizon": INT_FROM_1}),
    ("DenseSSM.kernel", DENSE.kernel, {"horizon": 8}, {"horizon": INT_FROM_1}),
    ("DenseDeepSSM.kernel", DENSE_DEEP.kernel, {"horizon": 8}, {"horizon": INT_FROM_1}),
    (
        "kernel_by_simulation",
        lambda **kw: d.kernel_by_simulation(MODEL, **kw),
        {"horizon": 8},
        {"horizon": INT_FROM_1},
    ),
    (
        "kernel_closed_form",
        lambda **kw: d.kernel_closed_form(MODEL, **kw),
        {"horizon": 8},
        {"horizon": INT_FROM_1},
    ),
    (
        "check_membership",
        lambda **kw: d.check_membership(MODEL, **kw),
        {"bound": 2.0},
        {"bound": (float, "above", 0.0)},
    ),
    (
        "factorize",
        lambda **kw: d.factorize(TEACHER, **kw),
        {"depth": 1, "width": 3},
        {"depth": INT_FROM_1, "width": INT_FROM_1},
    ),
    (
        "minimal_depth",
        d.minimal_depth,
        {"c1": 4.0, "c2": 10.0, "mode_count": 5},
        {
            "c1": (float, "above", 1.0),
            "c2": (float, "above", 2.0),
            "mode_count": INT_FROM_1,
        },
    ),
    (
        "reduce_normal",
        lambda **kw: d.reduce_normal(DENSE, **kw),
        {"rtol": 1e-10},
        {"rtol": (float, "low", 0.0)},
    ),
    (
        "diagonalize_general",
        lambda **kw: d.diagonalize_general(DENSE_DEEP, **kw),
        {"cond_ceiling": 1e8},
        {"cond_ceiling": (float, "low", 1.0)},
    ),
    (
        "homogeneous_sum",
        lambda **kw: d.homogeneous_sum([0.5, 0.25], **kw),
        {"k": 3},
        {"k": INT_FROM_0},
    ),
    (
        "f_rational",
        lambda **kw: d.f_rational([0.5, 0.25], **kw),
        {"k": 3},
        {"k": INT_FROM_0},
    ),
    (
        "coincident_pairs",
        lambda **kw: d.coincident_pairs([0.5, 0.25], **kw),
        {"rtol": 1e-10},
        {"rtol": (float, "low", 0.0)},
    ),
    (
        "seeded_rng",
        lambda seed, branch: d.seeded_rng(seed, branch),
        {"seed": 1, "branch": 2},
        {"seed": INT_FROM_0, "branch": INT_FROM_0},
    ),
    (
        "ImpulseTarget",
        d.ImpulseTarget,
        {"shift": 1, "horizon": 8},
        {"shift": (int, None, None), "horizon": INT_FROM_1},
    ),
    (
        "impulse_target",
        d.impulse_target,
        {"shift": 1, "horizon": 8},
        {"shift": (int, None, None), "horizon": INT_FROM_1},
    ),
    (
        "TrainConfig",
        d.TrainConfig,
        {},
        {
            "learning_rate": (float, "low", 0.0),
            "steps": INT_FROM_0,
            "seed": INT_FROM_0,
            "init_scale": (float, "above", 0.0),
            "stability_projection": (bool, None, None),
        },
    ),
    (
        "init_model",
        lambda **kw: d.init_model(rng=d.seeded_rng(1), **kw),
        {"depth": 2, "width": 3, "init_scale": 1.0},
        {"depth": INT_FROM_1, "width": INT_FROM_1, "init_scale": (float, "above", 0.0)},
    ),
    (
        "sample_teacher",
        lambda **kw: d.sample_teacher(rng=d.seeded_rng(1), **kw),
        {"mode_count": 3, "scale": 2.0},
        {"mode_count": INT_FROM_1, "scale": (float, "above", 0.0)},
    ),
    (
        "teacher_student_experiment",
        lambda depth, **kw: d.teacher_student_experiment(depths=[depth], **kw),
        {"seed": 1, "depth": 1, "width": 2, "norm_scale": 2.0, "horizon": 8},
        {
            "seed": INT_FROM_0,
            "depth": INT_FROM_1,
            "width": INT_FROM_1,
            "norm_scale": (float, "above", 0.0),
            "horizon": INT_FROM_1,
        },
    ),
    (
        "depth_sweep_impulse",
        lambda depth, **kw: d.depth_sweep_impulse(
            depths=[depth], config=d.TrainConfig(steps=1), **kw
        ),
        {"shift": 1, "horizon": 8, "effective_width": 3, "depth": 1},
        {
            "shift": (int, None, None),
            "horizon": INT_FROM_1,
            "effective_width": INT_FROM_1,
            "depth": INT_FROM_1,
        },
    ),
]


def bad_values(kind, bound_kind, bound):
    """The wrong-kind values for ``kind`` and the values just below its bound."""
    if kind is bool:
        return [1, 0.0, "true", None, float("nan")]
    values = [float("nan"), float("inf"), -float("inf"), True, "8"]
    if kind is int:
        values.append(1.5 if bound is None else bound + 0.5)
        if bound is not None:
            values.append(bound - 1)
    elif bound_kind == "low":
        values.append(float(np.nextafter(bound, -np.inf)))
    else:
        values.extend([bound, float(np.nextafter(bound, -np.inf))])
    return values


CASES = [
    pytest.param(call, {**good, name: value}, name, id=f"{label}-{name}={value!r}")
    for label, call, good, checked in ENTRY_POINTS
    for name, rule in checked.items()
    for value in bad_values(*rule)
]


@pytest.mark.parametrize(
    "call, good", [e[1:3] for e in ENTRY_POINTS], ids=[e[0] for e in ENTRY_POINTS]
)
def test_valid_arguments_are_accepted(call, good):
    call(**good)


@pytest.mark.parametrize("call, kwargs, name", CASES)
def test_bad_scalar_is_a_domain_error_naming_it(call, kwargs, name):
    with pytest.raises(d.DomainError, match=rf"^{name} must be "):
        call(**kwargs)


def test_shift_range_is_its_own_error():
    for call in (d.ImpulseTarget, d.impulse_target):
        for shift in (-1, 8):
            with pytest.raises(d.ShiftOutOfHorizon):
                call(shift, 8)


def test_nan_tolerances_no_longer_forge_a_verdict():
    non_normal = d.DenseSSM(JORDAN, JORDAN_READ_IN, JORDAN_READ_OUT)
    with pytest.raises(d.DomainError, match="^rtol must be "):
        d.reduce_normal(non_normal, rtol=float("nan"))
    with pytest.raises(d.NotNormal):
        d.reduce_normal(non_normal)

    defective = d.DenseDeepSSM((JORDAN,), (JORDAN_READ_IN,), JORDAN_READ_OUT)
    with pytest.raises(d.DomainError, match="^cond_ceiling must be "):
        d.diagonalize_general(defective, cond_ceiling=float("nan"))
    with pytest.raises(d.IllConditionedDiagonalization):
        d.diagonalize_general(defective)

    with pytest.raises(d.DomainError, match="^bound must be "):
        d.check_membership(MODEL, float("nan"))


def test_numpy_scalars_are_accepted():
    assert d.kernel_closed_form(MODEL, np.int64(8)).horizon == 8
    assert d.check_membership(MODEL, np.float64(2.0)).is_member
    assert d.minimal_depth(np.float32(4.0), 10, np.int32(5)).depth == 1


def test_infinite_budget_is_refused_by_plan_depth(capsys):
    assert cli.run(["plan-depth", "--c1", "4", "--c2", "inf", "--modes", "5"]) == 2
    assert capsys.readouterr().err == "error: c2 must be a finite number > 2, got inf\n"
