"""Unit tests for the shallow/deep conversion routines."""

import warnings

import numpy as np
import pytest

import deepssm as d
from conftest import (
    distinct_model,
    path_sum_expansion,
    path_sum_kernel,
    random_model,
    random_normal_dense,
    rel_err,
)
from test_core import worked_two_layer_example


def teacher_of_scale(rng, mode_count, scale):
    """Teacher whose largest weight modulus is exactly ``scale``."""
    teacher = d.sample_teacher(mode_count, 1.0, rng)
    top = float(np.max(np.abs(teacher.weights())))
    factor = np.sqrt(scale / top)
    return d.ShallowRealization(
        teacher.eigenvalues, teacher.read_in * factor, teacher.read_out * factor
    )


class TestCollapse:
    def test_depth_one_passes_through(self):
        model = random_model(d.seeded_rng(20), 1, 4)
        dense = d.collapse(model)
        np.testing.assert_array_equal(dense.state_matrix, np.diag(model.layers[0].state_diag))
        np.testing.assert_array_equal(dense.read_in, model.layers[0].input_matrix[:, 0])
        np.testing.assert_array_equal(dense.read_out, model.read_out)

    def test_kernel_is_preserved(self):
        rng = d.seeded_rng(21)
        for depth, width in [(2, 3), (3, 2), (4, 4)]:
            model = random_model(rng, depth, width)
            dense = d.collapse(model)
            assert dense.width == depth * width
            assert rel_err(
                dense.kernel(48).taps, d.kernel_by_simulation(model, 48).taps
            ) < 1e-10

    def test_overflowing_products_are_numerical_errors(self):
        # Every entry is finite, but B_2 B_1 = 4e308 is not.
        model = d.DeepLinearSSM(
            (
                d.LayerParams([0.5, 0.25], [[1e308], [1.0]]),
                d.LayerParams([0.5, 0.5], [[4.0, 0.0], [0.0, 1.0]]),
            ),
            [1.0, 1.0],
        )
        with pytest.raises(d.NumericalError, match="collapsed read-in entry 2 overflowed"):
            d.collapse(model)

    def test_block_structure_by_hand(self):
        # Depth 2, width 2: state stack (h1; h2) evolves with A1 and A2 on
        # the block diagonal and B2 A1 below, read-in (B1; B2 B1), read-out
        # supported on the second block.
        rng = d.seeded_rng(22)
        a1 = np.array([0.3 + 0.1j, -0.5])
        a2 = np.array([0.2 - 0.4j, 0.6j])
        b1 = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
        b2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        model = d.DeepLinearSSM(
            (d.LayerParams(a1, b1), d.LayerParams(a2, b2)), c
        )
        dense = d.collapse(model)
        want = np.zeros((4, 4), dtype=complex)
        want[:2, :2] = np.diag(a1)
        want[2:, 2:] = np.diag(a2)
        want[2:, :2] = b2 @ np.diag(a1)
        np.testing.assert_allclose(dense.state_matrix, want, rtol=0, atol=0)
        np.testing.assert_allclose(dense.read_in[:2], b1[:, 0])
        np.testing.assert_allclose(dense.read_in[2:], (b2 @ b1)[:, 0])
        np.testing.assert_array_equal(dense.read_out[:2], np.zeros(2))
        np.testing.assert_array_equal(dense.read_out[2:], c)

    def test_zero_state_collapse_kernel_has_single_tap(self):
        model = d.DeepLinearSSM(
            (
                d.LayerParams([0.0, 0.0], [[1.0], [2.0]]),
                d.LayerParams([0.0, 0.0], [[1.0, 0.5], [0.25, 1.0]]),
            ),
            [1.0, -1.0],
        )
        taps = d.collapse(model).kernel(6).taps
        np.testing.assert_array_equal(taps[1:], np.zeros(5))
        assert taps[0] != 0


class TestFactorize:
    def test_worked_example_layout(self):
        # The depth-2 width-4 construction reproduces the hand-built mixing
        # matrix entry for entry, not just its kernel.
        want, alphas, z = worked_two_layer_example()
        teacher = d.ShallowRealization(alphas, z, z)
        student, cert = d.factorize(teacher, 2)
        assert student.depth == 2 and student.width == 4
        for got_layer, want_layer in zip(student.layers, want.layers):
            np.testing.assert_allclose(
                got_layer.state_diag, want_layer.state_diag, rtol=1e-12, atol=0
            )
            np.testing.assert_allclose(
                got_layer.input_matrix, want_layer.input_matrix, rtol=1e-12, atol=0
            )
        np.testing.assert_allclose(student.read_out, want.read_out, rtol=1e-12, atol=0)
        assert cert.satisfied
        assert abs(cert.z0 - 2.0 * np.max(np.abs(z)) ** (2.0 / 3.0)) < 1e-12

    def test_kernel_preserved_across_depths(self):
        rng = d.seeded_rng(23)
        teacher = d.sample_teacher(13, 2.0, rng)
        want = teacher.kernel(64).taps
        for depth in (2, 3, 4, 6):
            student, cert = d.factorize(teacher, depth)
            assert student.depth == depth
            assert student.width == 12 // depth + 1
            got = d.kernel_closed_form(student, 64).taps
            assert rel_err(got, want) < 1e-9, f"depth {depth}"
            assert cert.satisfied
            assert cert.z0 == 2.0 * float(np.max(np.abs(teacher.weights()))) ** (
                1.0 / (depth + 1)
            )
            assert cert.measured_max <= cert.z0 * (1.0 + 1e-9)

    def test_every_entry_is_inside_the_bound(self):
        rng = d.seeded_rng(24)
        teacher = teacher_of_scale(rng, 10, 50.0)
        student, cert = d.factorize(teacher, 3)
        report = d.check_membership(student, cert.z0 * (1.0 + 1e-9))
        assert report.is_member
        assert abs(cert.z0 - 2.0 * 50.0 ** 0.25) < 1e-12

    def test_depth_one_is_balanced_square_root(self):
        eigs = np.array([0.5, 0.5, -0.3])
        teacher = d.ShallowRealization(eigs, [1.0, 2.0, 3.0], [2.0, 0.5, -1.0])
        student, cert = d.factorize(teacher, 1)
        assert student.depth == 1 and student.width == 3
        # Modes come out sorted by modulus, -0.3 ahead of the repeated 0.5.
        np.testing.assert_array_equal(student.layers[0].state_diag, [-0.3, 0.5, 0.5])
        read_in = student.layers[0].input_matrix[:, 0]
        np.testing.assert_allclose(read_in, student.read_out, rtol=0, atol=0)
        np.testing.assert_allclose(
            read_in**2, np.array([-3.0, 2.0, 1.0], dtype=complex), rtol=1e-15, atol=0
        )
        assert rel_err(
            d.kernel_by_simulation(student, 32).taps, teacher.kernel(32).taps
        ) < 1e-12
        assert cert.satisfied
        assert abs(cert.z0 - 2.0 * np.sqrt(3.0)) < 1e-14

    def test_padding_reaches_next_admissible_count(self):
        rng = d.seeded_rng(25)
        teacher = d.sample_teacher(6, 1.5, rng)
        with pytest.raises(d.ShapeMismatch):
            d.factorize(teacher, 4)
        student, cert = d.factorize(teacher, 4, pad=True)
        assert student.width == 3
        assert rel_err(
            d.kernel_closed_form(student, 64).taps, teacher.kernel(64).taps
        ) < 1e-9
        assert cert.satisfied
        # Padding modes are tiny and inert; the radius stays the teacher's.
        assert abs(student.spectral_radius() - np.max(np.abs(teacher.eigenvalues))) < 1e-12

    def test_explicit_width_authorizes_padding(self):
        rng = d.seeded_rng(26)
        teacher = d.sample_teacher(6, 1.5, rng)
        student, _ = d.factorize(teacher, 4, width=4)
        assert student.width == 4
        assert rel_err(
            d.kernel_closed_form(student, 64).taps, teacher.kernel(64).taps
        ) < 1e-9

    def test_too_small_width_rejected(self):
        teacher = d.sample_teacher(6, 1.0, d.seeded_rng(27))
        with pytest.raises(d.ShapeMismatch):
            d.factorize(teacher, 2, width=3)

    def test_single_mode_teacher(self):
        teacher = d.ShallowRealization([0.5], [2.0], [3.0])
        student, cert = d.factorize(teacher, 3)
        assert student.width == 1
        assert rel_err(
            d.kernel_closed_form(student, 32).taps, teacher.kernel(32).taps
        ) < 1e-12
        assert cert.satisfied

    def test_repeated_modes_rejected_then_perturbed(self):
        teacher = d.ShallowRealization(
            [0.4, 0.4, 0.7, 0.8, 0.9],
            [1.0, -0.5, 0.25, 1.0, 0.75],
            [0.5, 1.0, 1.0, -0.25, 0.5],
        )
        with pytest.raises(d.DegenerateEigenvalues):
            d.factorize(teacher, 2)
        student, cert = d.factorize(teacher, 2, allow_perturb=True)
        assert cert.satisfied
        diff = rel_err(
            d.kernel_closed_form(student, 64).taps, teacher.kernel(64).taps
        )
        assert 0 < diff < 1e-4

    def test_zero_mode_rejected_then_perturbed(self):
        teacher = d.ShallowRealization([0.0, 0.5, 0.7], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(d.DegenerateEigenvalues):
            d.factorize(teacher, 3, pad=True)
        student, _ = d.factorize(teacher, 3, pad=True, allow_perturb=True)
        diff = rel_err(
            d.kernel_closed_form(student, 48).taps, teacher.kernel(48).taps
        )
        assert 0 < diff < 1e-4

    def test_modes_near_zero_factorize_at_any_depth(self):
        # Moduli 1e-6..1e-4 at depth 80: beta**k underflows to zero, so the
        # telescoping weights must be formed without a power of a mode.
        rng = d.seeded_rng(3)
        modes = np.geomspace(1e-6, 1e-4, 161) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 161))
        teacher = d.ShallowRealization(modes, np.ones(161), np.ones(161))
        student, cert = d.factorize(teacher, 80)
        assert student.depth == 80 and student.width == 3
        assert cert.satisfied
        want = teacher.kernel(64).taps
        assert rel_err(d.kernel_by_simulation(student, 64).taps, want) < 1e-12
        assert rel_err(d.kernel_closed_form(student, 64).taps, want) < 1e-12

    def test_zero_weight_teacher_gives_zero_student(self):
        teacher = d.ShallowRealization([0.5, 0.6, 0.7], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        student, cert = d.factorize(teacher, 2)
        np.testing.assert_array_equal(
            d.kernel_closed_form(student, 16).taps, np.zeros(16)
        )
        assert cert == d.NormCertificate(0.0, 0.0, True)

    def test_invalid_depth(self):
        teacher = d.sample_teacher(3, 1.0, d.seeded_rng(28))
        with pytest.raises(d.DomainError):
            d.factorize(teacher, 0)

    def test_depth_whose_scale_overflows_is_refused(self):
        teacher = d.ShallowRealization([0.5], [1.0], [1.0])
        student, _ = d.factorize(teacher, 1000)
        assert student.depth == 1000
        with pytest.raises(d.DomainError, match="overflows a float"):
            d.factorize(teacher, 10_000_000)

    @pytest.mark.parametrize(
        "read_out, depth, message",
        [
            # Every entry is finite, but the weight b_2 c_2 = 1e400 is not.
            ([1.0, 1e200, 1.0], 1, r"teacher weight 2 overflowed to \(inf\+0j\)"),
            ([1.0, 1e200, 1.0], 2, r"teacher weight 2 overflowed to \(inf\+0j\)"),
            # The weights +-1.69e308 are finite, but their telescoped sum is not.
            ([1.3e154, -1.3e154, 1.3e154], 2, r"telescoping weight \(1, 1\) overflowed"),
        ],
        ids=["teacher-weight-depth-1", "teacher-weight-depth-2", "telescoping-weight"],
    )
    def test_overflowing_weight_is_numerical_error(self, read_out, depth, message):
        teacher = d.ShallowRealization([0.3, 0.5, 0.7], np.abs(read_out), read_out)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(d.NumericalError, match=message):
                d.factorize(teacher, depth)


class TestMinimalDepth:
    def test_frozen_examples(self):
        plan = d.minimal_depth(4.0, 10.0, 5)
        assert (plan.depth, plan.width) == (1, 6)
        assert abs(plan.predicted_bound - 8.0) < 1e-12
        plan = d.minimal_depth(100.0, 4.0, 12)
        assert (plan.depth, plan.width) == (13, 2)
        assert abs(plan.predicted_bound - 2.0 * 100.0 ** (2.0 / 14.0)) < 1e-12

    def test_matches_direct_formula(self):
        import math

        for c1 in (1.5, 4.0, 10.0, 100.0, 1e4):
            for c2 in (2.5, 3.0, 4.0, 10.0):
                for modes in (1, 6, 12):
                    plan = d.minimal_depth(c1, c2, modes)
                    depth = max(1, math.ceil(2.0 * math.log(c1) / math.log(c2 / 2.0) - 1.0))
                    assert plan.depth == depth
                    assert plan.width == -(-modes // depth) + 1
                    assert abs(
                        plan.predicted_bound - 2.0 * c1 ** (2.0 / (depth + 1))
                    ) < 1e-9 * plan.predicted_bound
                    assert plan.predicted_bound <= c2 + 1e-12

    def test_bound_decreases_with_depth_until_plan(self):
        plan = d.minimal_depth(50.0, 3.0, 8)
        assert plan.depth > 1
        shallower = 2.0 * 50.0 ** (2.0 / plan.depth)
        assert shallower > 3.0

    def test_domain_errors(self):
        with pytest.raises(d.DomainError):
            d.minimal_depth(1.0, 4.0, 3)
        with pytest.raises(d.DomainError):
            d.minimal_depth(4.0, 2.0, 3)
        with pytest.raises(d.DomainError):
            d.minimal_depth(4.0, 4.0, 0)

    def test_plan_is_feasible_end_to_end(self):
        rng = d.seeded_rng(29)
        for c1, c2 in [(4.0, 10.0), (100.0, 3.0), (1e4, 2.5)]:
            teacher = teacher_of_scale(rng, 6, c1)
            plan = d.minimal_depth(c1, c2, teacher.mode_count)
            student, cert = d.factorize(teacher, plan.depth, width=plan.width)
            assert cert.satisfied
            report = d.check_membership(student, c2)
            assert report.is_member, (c1, c2, report.violations)
            assert rel_err(
                d.kernel_closed_form(student, 48).taps, teacher.kernel(48).taps
            ) < 1e-8


class TestExpand:
    def test_depth_one_coefficients_are_weights(self):
        model = d.DeepLinearSSM((d.LayerParams([0.5], [[2.0]]),), [3.0])
        table = d.expand_coefficients(model)
        assert len(table.entries) == 1
        entry = table.entries[0]
        assert (entry.layer, entry.index) == (1, 1)
        assert entry.eigenvalue == 0.5
        assert abs(entry.coefficient - 6.0) < 1e-15

    def test_kernel_matches_simulation(self):
        rng = d.seeded_rng(30)
        for depth, width in [(2, 3), (3, 4), (3, 2)]:
            model = distinct_model(rng, depth, width)
            table = d.expand_coefficients(model)
            assert len(table.entries) == depth * width
            assert rel_err(
                table.kernel(64).taps, d.kernel_by_simulation(model, 64).taps
            ) < 1e-8

    def test_kernel_horizon_must_be_positive(self):
        table = d.expand_coefficients(distinct_model(d.seeded_rng(31), 2, 2))
        with pytest.raises(d.DomainError):
            table.kernel(0)

    def test_resonant_eigenvalues_rejected(self):
        model = d.DeepLinearSSM(
            (
                d.LayerParams([0.5, 0.6], [[1.0], [1.0]]),
                d.LayerParams([0.5, 0.7], np.ones((2, 2))),
            ),
            [1.0, 1.0],
        )
        with pytest.raises(d.ResonantEigenvalues):
            d.expand_coefficients(model)

    def test_recovers_modes_after_factorize(self):
        rng = d.seeded_rng(31)
        teacher = d.sample_teacher(7, 2.0, rng)
        student, _ = d.factorize(teacher, 3)
        table = d.expand_coefficients(student)
        assert len(table.entries) == 7
        got = sorted(
            ((e.eigenvalue, e.coefficient) for e in table.entries),
            key=lambda p: (p[0].real, p[0].imag),
        )
        want = sorted(
            zip(teacher.eigenvalues, teacher.weights()),
            key=lambda p: (p[0].real, p[0].imag),
        )
        for (ge, gc), (we, wc) in zip(got, want):
            assert abs(ge - we) <= 1e-9 * abs(we)
            assert abs(gc - wc) <= 1e-7 * max(abs(wc), 1.0)

    def test_zero_eigenvalues_are_skipped(self):
        model, alphas, z = worked_two_layer_example()
        table = d.expand_coefficients(model)
        assert len(table.entries) == 7
        for entry in table.entries:
            assert entry.eigenvalue != 0
        got = sorted((e.eigenvalue for e in table.entries), key=lambda v: abs(v))
        np.testing.assert_allclose(got, alphas, rtol=1e-12)
        assert table.max_coefficient() <= np.max(np.abs(z) ** 2) * (1 + 1e-9)

    def test_all_zero_path_with_weight_rejected(self):
        model = d.DeepLinearSSM((d.LayerParams([0.0], [[1.0]]),), [1.0])
        with pytest.raises(d.ZeroEigenvalue):
            d.expand_coefficients(model)

    def test_zero_weight_zero_path_is_fine(self):
        # The all-zero mode is unreachable (zero mixing row), so it is
        # silently dropped rather than rejected.
        model = d.DeepLinearSSM(
            (
                d.LayerParams([0.5, 0.0], [[1.0], [0.0]]),
                d.LayerParams([0.7, 0.0], np.diag([1.0, 0.0])),
            ),
            [1.0, 0.0],
        )
        table = d.expand_coefficients(model)
        assert {e.eigenvalue for e in table.entries} == {0.5, 0.7}
        assert rel_err(
            table.kernel(32).taps, d.kernel_by_simulation(model, 32).taps
        ) < 1e-10

    def test_csv_and_json_forms(self):
        model = distinct_model(d.seeded_rng(32), 2, 2)
        table = d.expand_coefficients(model)
        lines = table.csv_text().splitlines()
        assert lines[0] == "layer,index,lambda_re,lambda_im,xi_re,xi_im"
        assert len(lines) == 5
        data = table.to_json_dict()
        assert len(data["entries"]) == 4

    def test_overflowing_coefficient_is_numerical_error(self):
        # Every entry is finite, but xi = C[2] B_1[2] = 1e400 is not; the
        # message counts layer and index from 1, like the table.
        model = d.DeepLinearSSM((d.LayerParams([0.5, 0.25], [[1.0], [1e200]]),), [1.0, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                d.NumericalError,
                match=r"expansion coefficient of layer 1 index 2 overflowed to \(inf\+0j\)",
            ):
                d.expand_coefficients(model)


def expansion_array(model):
    """``expand_coefficients`` as an array ``xi[i, j]``, zero where no entry."""
    xi = np.zeros((model.depth, model.width), dtype=complex)
    for entry in d.expand_coefficients(model).entries:
        xi[entry.layer - 1, entry.index - 1] = entry.coefficient
    return xi


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the type of the modal-expansion error it raised."""
    try:
        return fn(*args)
    except (d.ZeroEigenvalue, d.ResonantEigenvalues) as exc:
        return type(exc)


class TestExpandAgainstPathSum:
    """The resolvent products against the per-path sums they replace."""

    def test_dense_models(self):
        rng = d.seeded_rng(33)
        for depth in range(1, 5):
            for width in range(1, 6):
                model = distinct_model(rng, depth, width)
                assert rel_err(expansion_array(model), path_sum_expansion(model)) < 1e-12

    def test_factorized_students(self):
        rng = d.seeded_rng(34)
        for depth in range(2, 6):
            for width in range(2, 5):
                teacher = d.sample_teacher(depth * (width - 1) + 1, 2.0, rng)
                student, _ = d.factorize(teacher, depth)
                assert rel_err(
                    expansion_array(student), path_sum_expansion(student)
                ) < 1e-12

    def test_zero_eigenvalues_zero_rows_and_resonances(self):
        # Same coefficients where the oracle has an expansion, the same
        # error where it raises.
        rng = d.seeded_rng(35)
        seen = set()
        for trial in range(300):
            depth, width = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            model = distinct_model(rng, depth, width)
            diags = [layer.state_diag.copy() for layer in model.layers]
            mats = [layer.input_matrix.copy() for layer in model.layers]
            read_out = model.read_out.copy()
            for diag, mat in zip(diags, mats):
                diag[rng.random(width) < 0.4] = 0.0
                mat[rng.random(width) < 0.3] = 0.0
            read_out[rng.random(width) < 0.2] = 0.0
            if rng.random() < 0.1:
                diags[-1][-1] = diags[0][0]
            model = d.DeepLinearSSM(
                tuple(d.LayerParams(a, b) for a, b in zip(diags, mats)), read_out
            )
            want = outcome(path_sum_expansion, model)
            got = outcome(expansion_array, model)
            if isinstance(want, type):
                assert got is want, f"trial {trial}"
                seen.add(want)
            else:
                assert not isinstance(got, type), f"trial {trial}: {got}"
                assert rel_err(got, want) < 1e-12, f"trial {trial}"
                seen.add("expanded")
        assert seen == {d.ZeroEigenvalue, d.ResonantEigenvalues, "expanded"}


class TestReduceNormal:
    def test_diagonal_matrix_passes_through(self):
        eigs = np.array([0.3, 0.5j, -0.7])
        dense = d.DenseSSM(np.diag(eigs), [1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        shallow = d.reduce_normal(dense)
        got = sorted(shallow.eigenvalues, key=lambda v: (v.real, v.imag))
        want = sorted(eigs, key=lambda v: (v.real, v.imag))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
        assert rel_err(shallow.kernel(32).taps, dense.kernel(32).taps) < 1e-10

    def test_rotation_block_modes(self):
        r, theta = 0.8, 0.6
        rot = r * np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        dense = d.DenseSSM(rot, [1.0, 0.0], [1.0, 1.0])
        shallow = d.reduce_normal(dense)
        got = sorted(shallow.eigenvalues, key=lambda v: v.imag)
        want = [r * np.exp(-1j * theta), r * np.exp(1j * theta)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
        assert rel_err(shallow.kernel(48).taps, dense.kernel(48).taps) < 1e-10

    def test_random_normal_kernel_and_inflation(self):
        rng = d.seeded_rng(33)
        for width in (3, 5, 7):
            dense = random_normal_dense(rng, width, entry_scale=2.0)
            shallow = d.reduce_normal(dense)
            assert shallow.mode_count == width
            assert rel_err(shallow.kernel(64).taps, dense.kernel(64).taps) < 1e-9
            grow = np.sqrt(width) * (1.0 + 1e-12)
            assert np.max(np.abs(shallow.read_in)) <= grow * np.max(np.abs(dense.read_in))
            assert np.max(np.abs(shallow.read_out)) <= grow * np.max(np.abs(dense.read_out))

    def test_non_normal_rejected(self):
        dense = d.DenseSSM([[0.5, 1.0], [0.0, 0.5]], [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(d.NotNormal):
            d.reduce_normal(dense)

    def test_rtol_widens_the_gate(self):
        a = np.diag([0.4, 0.6]).astype(complex)
        a[0, 1] = 1e-8
        dense = d.DenseSSM(a, [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(d.NotNormal):
            d.reduce_normal(dense)
        shallow = d.reduce_normal(dense, rtol=1e-4)
        assert rel_err(shallow.kernel(32).taps, dense.kernel(32).taps) < 1e-7


class TestDiagonalizeGeneral:
    def test_already_diagonal_layers(self):
        model = distinct_model(d.seeded_rng(34), 2, 3)
        dense = d.DenseDeepSSM(
            tuple(np.diag(layer.state_diag) for layer in model.layers),
            tuple(layer.input_matrix for layer in model.layers),
            model.read_out,
        )
        diag = d.diagonalize_general(dense)
        got = sorted(
            np.concatenate([layer.state_diag for layer in diag.layers]),
            key=lambda v: (v.real, v.imag),
        )
        want = sorted(
            np.concatenate([layer.state_diag for layer in model.layers]),
            key=lambda v: (v.real, v.imag),
        )
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
        assert rel_err(
            d.kernel_by_simulation(diag, 48).taps, dense.kernel(48).taps
        ) < 1e-10

    def test_dense_two_layer_kernel(self):
        rng = d.seeded_rng(35)
        mats = []
        for _ in range(2):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            a *= 0.8 / np.max(np.abs(np.linalg.eigvals(a)))
            mats.append(a)
        dense = d.DenseDeepSSM(
            tuple(mats),
            (
                rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1)),
                rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
            ),
            rng.standard_normal(3) + 1j * rng.standard_normal(3),
        )
        diag = d.diagonalize_general(dense)
        assert diag.depth == 2 and diag.width == 3
        assert rel_err(
            d.kernel_by_simulation(diag, 64).taps, dense.kernel(64).taps
        ) < 1e-7

    def test_defective_layer_rejected(self):
        dense = d.DenseDeepSSM(
            (np.array([[0.5, 1.0], [0.0, 0.5]]),),
            (np.ones((2, 1)),),
            np.ones(2),
        )
        with pytest.raises(d.IllConditionedDiagonalization):
            d.diagonalize_general(dense)
