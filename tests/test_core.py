"""Unit tests for model types, simulation, kernels, and serialization."""

import json

import numpy as np
import pytest

import deepssm as d
from conftest import (
    convolve,
    distinct_model,
    doubling_layer_blocks,
    parse_kernel_csv,
    path_sum_kernel,
    random_model,
    random_normal_dense,
    rel_err,
    sequential_layer_blocks,
    sequential_response,
    sequential_states,
)
from deepssm.core import _BLOCK, _layer_blocks, _stack


def worked_two_layer_example():
    """Hand-built depth-2 width-4 stack realizing sum z_i^2 alpha_i^t.

    The seven modes are split four into the first layer and three plus a
    structural zero into the second; the mixing matrix carries telescoping
    weights on its diagonal and last row.  Returns (model, alphas, z).
    """
    alphas = np.array(
        [
            0.30 * np.exp(0.3j),
            0.38 * np.exp(-1.1j),
            0.46 * np.exp(2.0j),
            0.54 * np.exp(0.9j),
            0.62 * np.exp(-2.4j),
            0.74 * np.exp(1.6j),
            0.88 * np.exp(-0.5j),
        ]
    )
    z = np.array([1.1, -0.7 + 0.2j, 0.9j, 1.3 - 0.4j, -1.2, 0.8 + 0.6j, -0.5 - 0.9j])
    z0 = 2.0 * np.max(np.abs(z**2)) ** (1.0 / 3.0)
    mix = np.zeros((4, 4), dtype=complex)
    for j in range(3):
        mix[j, j] = (alphas[j + 4] - alphas[j]) * z[j + 4] ** 2 / (alphas[j + 4] * z0**2)
        mix[3, j] = (z[j] ** 2 + z[j + 4] ** 2 * alphas[j] / alphas[j + 4]) / z0**2
    mix[3, 3] = z[3] ** 2 / z0**2
    first = d.LayerParams(alphas[:4], np.full((4, 1), z0, dtype=complex))
    second = d.LayerParams(np.append(alphas[4:], 0.0), mix)
    model = d.DeepLinearSSM((first, second), np.full(4, z0, dtype=complex))
    return model, alphas, z


class TestModelTypes:
    def test_layer_width_mismatch_rejected(self):
        with pytest.raises(d.WidthMismatch):
            d.DeepLinearSSM(
                (
                    d.LayerParams([0.5, 0.6], [[1.0], [1.0]]),
                    d.LayerParams([0.5], [[1.0]]),
                ),
                [1.0, 1.0],
            )

    def test_first_layer_must_take_scalar_input(self):
        with pytest.raises(d.ShapeMismatch):
            d.DeepLinearSSM(
                (d.LayerParams([0.5, 0.6], np.eye(2)),),
                [1.0, 1.0],
            )

    def test_read_out_length_checked(self):
        with pytest.raises(d.WidthMismatch):
            d.DeepLinearSSM((d.LayerParams([0.5, 0.6], [[1.0], [1.0]]),), [1.0])

    def test_deeper_layer_must_be_square(self):
        with pytest.raises(d.WidthMismatch):
            d.DeepLinearSSM(
                (
                    d.LayerParams([0.5, 0.6], [[1.0], [1.0]]),
                    d.LayerParams([0.5, 0.6], np.ones((2, 1))),
                ),
                [1.0, 1.0],
            )

    def test_non_finite_rejected(self):
        with pytest.raises(d.DomainError):
            d.LayerParams([np.nan], [[1.0]])

    def test_parameters_are_read_only(self):
        model = random_model(d.seeded_rng(0), 2, 3)
        with pytest.raises(ValueError):
            model.read_out[0] = 0.0

    def test_shallow_realization_round_trip(self):
        sh = d.sample_teacher(5, 2.0, d.seeded_rng(1))
        again = d.ShallowRealization.from_model(sh.as_model())
        np.testing.assert_array_equal(again.eigenvalues, sh.eigenvalues)
        np.testing.assert_array_equal(again.read_in, sh.read_in)
        np.testing.assert_array_equal(again.read_out, sh.read_out)

    def test_shallow_from_deep_model_rejected(self):
        with pytest.raises(d.ShapeMismatch):
            d.ShallowRealization.from_model(random_model(d.seeded_rng(2), 2, 2))


class TestSimulate:
    def test_scalar_geometric_response(self):
        model = d.DeepLinearSSM((d.LayerParams([0.5], [[1.0]]),), [1.0])
        delta = np.zeros(8)
        delta[0] = 1.0
        np.testing.assert_allclose(d.simulate(model, delta), 0.5 ** np.arange(8))

    def test_kernel_tap_zero_is_read_through_product(self):
        # rho(0) = C^T B_l ... B_2 B_1 for any depth.
        rng = d.seeded_rng(3)
        model = random_model(rng, 3, 4)
        taps = d.kernel_by_simulation(model, 4).taps
        mats = [layer.input_matrix for layer in model.layers]
        chain = mats[0]
        for mat in mats[1:]:
            chain = mat @ chain
        want = model.read_out @ chain[:, 0]
        assert rel_err(taps[0], want) < 1e-12

    def test_read_out_is_plain_transpose(self):
        # No conjugation: C = i, B = 1, A = 0 gives rho(0) = i, not -i.
        model = d.DeepLinearSSM((d.LayerParams([0.0], [[1.0]]),), [1.0j])
        assert d.kernel_by_simulation(model, 2).taps[0] == 1.0j

    def test_matches_convolution_with_kernel(self):
        rng = d.seeded_rng(4)
        model = random_model(rng, 3, 3)
        x = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        kernel = d.kernel_by_simulation(model, 40)
        assert rel_err(d.simulate(model, x), convolve(kernel, x)) < 1e-12

    def test_causality(self):
        rng = d.seeded_rng(5)
        model = random_model(rng, 2, 3)
        x = rng.standard_normal(30)
        y_full = d.simulate(model, x)
        x_tail = x.copy()
        x_tail[17:] += rng.standard_normal(13)
        y_tail = d.simulate(model, x_tail)
        np.testing.assert_array_equal(y_full[:17], y_tail[:17])

    def test_linearity(self):
        rng = d.seeded_rng(6)
        model = random_model(rng, 2, 3)
        x1 = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        x2 = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        mixed = d.simulate(model, 2.0 * x1 + 0.5j * x2)
        parts = 2.0 * d.simulate(model, x1) + 0.5j * d.simulate(model, x2)
        assert rel_err(mixed, parts) < 1e-12

    def test_unstable_model_warns_by_default(self):
        model = d.DeepLinearSSM((d.LayerParams([1.05], [[1.0]]),), [1.0])
        with pytest.warns(d.StabilityWarning):
            d.simulate(model, [1.0, 0.0, 0.0])

    def test_unstable_model_raises_in_strict_mode(self):
        model = d.DeepLinearSSM((d.LayerParams([1.05], [[1.0]]),), [1.0])
        with pytest.raises(d.UnstableModel):
            d.simulate(model, [1.0, 0.0], strict_stability=True)

    def test_bad_input_shape_rejected(self):
        model = d.DeepLinearSSM((d.LayerParams([0.5], [[1.0]]),), [1.0])
        with pytest.raises(d.ShapeMismatch):
            d.simulate(model, np.ones((3, 2)))


class TestKernels:
    def test_closed_form_agrees_with_simulation(self):
        rng = d.seeded_rng(7)
        for trial in range(30):
            depth = int(rng.integers(1, 5))
            width = int(rng.integers(1, 7))
            model = random_model(rng, depth, width)
            sim = d.kernel_by_simulation(model, 64).taps
            closed = d.kernel_closed_form(model, 64).taps
            assert rel_err(sim, closed) < 1e-9, f"trial {trial}"

    def test_worked_two_layer_example(self):
        model, alphas, z = worked_two_layer_example()
        taps = d.kernel_by_simulation(model, 48).taps
        ts = np.arange(48)
        want = np.sum((z**2)[:, None] * alphas[:, None] ** ts[None, :], axis=0)
        assert rel_err(taps, want) < 1e-10
        closed = d.kernel_closed_form(model, 48).taps
        assert rel_err(closed, want) < 1e-10

    def test_closed_form_matches_path_sum(self):
        rng = d.seeded_rng(11)
        for depth in range(1, 5):
            for width in range(1, 6):
                model = random_model(rng, depth, width)
                want = path_sum_kernel(model, 64)
                assert rel_err(d.kernel_closed_form(model, 64).taps, want) < 1e-12
                student, _ = d.factorize(d.sample_teacher(depth * width + 1, 2.0, rng), depth)
                want = path_sum_kernel(student, 64)
                assert rel_err(d.kernel_closed_form(student, 64).taps, want) < 1e-12

    def test_closed_form_with_zero_eigenvalues_and_rows(self):
        rng = d.seeded_rng(12)
        for trial in range(40):
            depth, width = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            layers = []
            for layer in random_model(rng, depth, width).layers:
                diag, mat = layer.state_diag.copy(), layer.input_matrix.copy()
                diag[rng.random(width) < 0.4] = 0.0
                mat[rng.random(width) < 0.3] = 0.0
                layers.append(d.LayerParams(diag, mat))
            read_out = rng.standard_normal(width)
            read_out[rng.random(width) < 0.2] = 0.0
            model = d.DeepLinearSSM(tuple(layers), read_out)
            got = d.kernel_closed_form(model, 32).taps
            assert rel_err(got, path_sum_kernel(model, 32)) < 1e-12, f"trial {trial}"

    def test_closed_form_dead_overflowing_channel_adds_nothing(self):
        # Channel 0 of layer 1 grows as 1.5**t and overflows near t = 1750,
        # but B_2 has a zero column there: every path through it is dead.
        model = d.DeepLinearSSM(
            (
                d.LayerParams([1.5, 0.5], [[1.0], [1.0]]),
                d.LayerParams([0.5, 0.6], [[0.0, 1.0], [0.0, 1.0]]),
            ),
            [1.0, 1.0],
        )
        with pytest.warns(d.StabilityWarning):
            taps = d.kernel_closed_form(model, 2000).taps
        assert np.all(np.isfinite(taps))
        assert rel_err(taps, path_sum_kernel(model, 2000)) < 1e-12

    @pytest.mark.parametrize("method", [d.kernel_by_simulation, d.kernel_closed_form])
    def test_overflowed_taps_are_numerical_errors(self, method):
        model = d.DeepLinearSSM((d.LayerParams([1.5], [[1.0]]),), [1.0])
        with pytest.warns(d.StabilityWarning):
            assert np.all(np.isfinite(method(model, 1751).taps))
        with pytest.warns(d.StabilityWarning), pytest.raises(
            d.NumericalError, match="kernel tap 1751 overflowed"
        ):
            method(model, 1752)

    def test_default_horizon(self):
        model = random_model(d.seeded_rng(8), 1, 2)
        assert d.kernel_by_simulation(model).horizon == d.DEFAULT_HORIZON == 64

    def test_zero_weight_paths_are_skipped(self):
        # A mixing matrix of zeros kills every path; the kernel is zero.
        first = d.LayerParams([0.5, 0.6], [[1.0], [1.0]])
        second = d.LayerParams([0.7, 0.8], np.zeros((2, 2)))
        model = d.DeepLinearSSM((first, second), [1.0, 1.0])
        np.testing.assert_array_equal(d.kernel_closed_form(model, 8).taps, np.zeros(8))

    def test_stability_decay(self):
        rng = d.seeded_rng(9)
        model = random_model(rng, 2, 3)
        radius = model.spectral_radius()
        taps = np.abs(d.kernel_by_simulation(model, 64).taps)
        for t in range(48, 64):
            assert taps[t] ** (1.0 / t) <= radius + 0.05

    def test_horizon_must_be_positive(self):
        model = random_model(d.seeded_rng(10), 1, 2)
        with pytest.raises(d.DomainError):
            d.kernel_by_simulation(model, 0)


class TestConvolve:
    def test_matches_double_loop_oracle(self):
        rng = d.seeded_rng(11)
        taps = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        kernel = d.ConvolutionKernel(taps)
        x = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        want = np.zeros(10, dtype=complex)
        for t in range(10):
            for s in range(min(t, 5) + 1):
                want[t] += taps[s] * x[t - s]
        assert rel_err(convolve(kernel, x), want) < 1e-12

    def test_identity_kernel_passes_input_through(self):
        kernel = d.ConvolutionKernel([1.0])
        x = np.arange(5.0)
        np.testing.assert_array_equal(convolve(kernel, x), x.astype(complex))


class TestMembership:
    def _bounded_model(self):
        rng = d.seeded_rng(12)
        model = random_model(rng, 3, 3)
        cap = d.parameter_norm(model)
        return model, cap

    def test_member_inside_bound(self):
        model, cap = self._bounded_model()
        report = d.check_membership(model, cap * 1.01)
        assert report.is_member
        assert report.violations == ()
        assert report.width == 3 and report.depth == 3
        assert abs(report.measured_norm - cap) < 1e-15

    def test_violating_mix_entry_is_named(self):
        model, cap = self._bounded_model()
        layers = list(model.layers)
        mat = layers[1].input_matrix.copy()
        worst = np.unravel_index(np.argmax(np.abs(mat)), mat.shape)
        mat[worst] *= 10.0
        layers[1] = d.LayerParams(layers[1].state_diag, mat)
        bumped = d.DeepLinearSSM(tuple(layers), model.read_out)
        report = d.check_membership(bumped, cap * 1.01)
        assert not report.is_member
        assert report.violations[0][0] == f"B2[{worst[0]},{worst[1]}]"

    def test_spectral_radius_violation(self):
        model = d.DeepLinearSSM((d.LayerParams([1.0], [[0.5]]),), [0.5])
        report = d.check_membership(model, 1.0)
        assert not report.is_member
        assert report.violations[0][0] == "spectral_radius"

    def test_vector_violations_named_without_indices(self):
        model = d.DeepLinearSSM((d.LayerParams([0.5], [[2.0]]),), [3.0])
        report = d.check_membership(model, 1.0)
        names = [name for name, _ in report.violations]
        assert names == ["B1", "C"]
        assert report.measured_norm == 3.0

    def test_bound_must_be_positive(self):
        model, _ = self._bounded_model()
        with pytest.raises(d.DomainError):
            d.check_membership(model, 0.0)

    @pytest.mark.parametrize("bound", [np.nan, np.inf, -np.inf])
    def test_bound_must_be_finite(self, bound):
        model, _ = self._bounded_model()
        with pytest.raises(d.DomainError):
            d.check_membership(model, bound)

    def test_report_serializes(self):
        model, cap = self._bounded_model()
        data = d.check_membership(model, cap * 2).to_json_dict()
        assert data["is_member"] is True
        json.dumps(data)


class TestSerialization:
    def test_model_json_round_trip_is_exact(self):
        model = distinct_model(d.seeded_rng(13), 3, 3)
        text = json.dumps(d.model_to_json_dict(model))
        again = d.model_from_json_dict(json.loads(text))
        assert again.depth == model.depth
        for a, b in zip(again.layers, model.layers):
            np.testing.assert_array_equal(a.state_diag, b.state_diag)
            np.testing.assert_array_equal(a.input_matrix, b.input_matrix)
        np.testing.assert_array_equal(again.read_out, model.read_out)

    def test_model_file_round_trip(self, tmp_path):
        model = random_model(d.seeded_rng(14), 2, 2)
        path = tmp_path / "model.json"
        d.save_model(model, path)
        again = d.load_model(path)
        np.testing.assert_array_equal(again.read_out, model.read_out)

    def test_dense_round_trip(self, tmp_path):
        rng = d.seeded_rng(15)
        dense = d.DenseSSM(
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
            rng.standard_normal(3),
            rng.standard_normal(3),
        )
        path = tmp_path / "dense.json"
        d.save_dense(dense, path)
        again = d.load_dense(path)
        np.testing.assert_array_equal(again.state_matrix, dense.state_matrix)

    @pytest.mark.parametrize("load", [d.load_model, d.load_dense])
    def test_json_nested_past_the_parser_limit_is_refused(self, tmp_path, load):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        with pytest.raises(d.ShapeMismatch, match="nested too deeply"):
            load(path)

    def test_kernel_csv_round_trip_is_exact(self):
        rng = d.seeded_rng(16)
        kernel = d.ConvolutionKernel(rng.standard_normal(12) + 1j * rng.standard_normal(12))
        again = parse_kernel_csv(d.kernel_csv_text(kernel))
        np.testing.assert_array_equal(again.taps, kernel.taps)

    def test_kernel_csv_header_and_layout(self):
        kernel = d.ConvolutionKernel([1.0 + 2.0j, 3.0])
        lines = d.kernel_csv_text(kernel).splitlines()
        assert lines[0] == "t,re,im"
        assert lines[1].startswith("0,")
        assert len(lines) == 3

    def test_malformed_model_json_rejected(self):
        with pytest.raises(d.ShapeMismatch):
            d.model_from_json_dict({"layers": []})
        with pytest.raises(d.ShapeMismatch):
            d.model_from_json_dict({"read_out": [[0.0, 0.0]]})
        with pytest.raises(d.ShapeMismatch):
            d.model_from_json_dict(
                {
                    "layers": [{"state_diag": [[0.0, 0.0]], "input_matrix": [[0.5]]}],
                    "read_out": [[1.0, 0.0]],
                }
            )

    def test_malformed_kernel_csv_rejected(self):
        with pytest.raises(d.ShapeMismatch):
            parse_kernel_csv("a,b\n1,2\n")
        with pytest.raises(d.ShapeMismatch):
            parse_kernel_csv("t,re,im\n1,0.0,0.0\n")


class TestDenseDeep:
    def test_matches_diagonal_simulation_when_diagonal(self):
        model = random_model(d.seeded_rng(17), 2, 3)
        dense = d.DenseDeepSSM(
            tuple(np.diag(layer.state_diag) for layer in model.layers),
            tuple(layer.input_matrix for layer in model.layers),
            model.read_out,
        )
        assert rel_err(
            dense.kernel(32).taps, d.kernel_by_simulation(model, 32).taps
        ) < 1e-12

    def test_shape_validation(self):
        with pytest.raises(d.ShapeMismatch):
            d.DenseDeepSSM((np.eye(2),), (np.eye(2),), np.ones(2))


def assert_matches_oracle(got, want):
    """Same finite/non-finite pattern, within 1e-12 relative where finite."""
    finite = np.isfinite(want)
    np.testing.assert_array_equal(np.isfinite(got), finite)
    if finite.any():
        assert rel_err(got[finite], want[finite]) <= 1e-12


def random_dense_deep(rng, depth, width):
    """Dense stack whose non-normal state matrices have spectral radius 0.9."""

    def gauss(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    states = [gauss((width, width)) for _ in range(depth)]
    states = [0.9 * a / np.max(np.abs(np.linalg.eigvals(a))) for a in states]
    inputs = [gauss((width, 1))] + [gauss((width, width)) / width for _ in range(depth - 1)]
    return d.DenseDeepSSM(tuple(states), tuple(inputs), gauss(width))


class TestEngineAgainstOracle:
    """Every engine entry point against the step-by-step recurrence."""

    @pytest.mark.parametrize(
        "horizon",
        [1, 64, 65, 127, 128, 129, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3, 3 * _BLOCK + 5],
    )
    def test_block_edges(self, horizon):
        # Also the pairing edges: a block of more than _DOUBLING_ROWS rows is paired.
        rng = d.seeded_rng(60, horizon)
        model = random_model(rng, 3, 3)
        stack = ([x.state_diag for x in model.layers], [x.input_matrix for x in model.layers])
        x = rng.standard_normal(horizon) + 1j * rng.standard_normal(horizon)
        impulse = np.eye(horizon, 1)[:, 0]
        taps = sequential_response(*stack, model.read_out, impulse)
        want = sequential_response(*stack, model.read_out, x)
        assert_matches_oracle(d.simulate(model, x), want)
        assert_matches_oracle(d.kernel_by_simulation(model, horizon).taps, taps)
        target = d.ConvolutionKernel(rng.standard_normal(horizon))
        loss = float(np.sum(np.abs(taps - target.taps) ** 2))
        assert abs(d.kernel_loss(model, target) - loss) <= 1e-12 * loss

        deep = random_dense_deep(rng, 3, 3)
        want = sequential_response(
            deep.state_matrices, deep.input_matrices, deep.read_out, impulse
        )
        assert_matches_oracle(deep.kernel(horizon).taps, want)
        dense = random_normal_dense(rng, 4)
        want = sequential_response(
            [dense.state_matrix], [dense.read_in[:, None]], dense.read_out, impulse
        )
        assert_matches_oracle(dense.kernel(horizon).taps, want)

    def test_reused_buffers_across_blocks(self, monkeypatch):
        # The engine writes every block into the same three buffers: states
        # and carries kept without a copy would be overwritten by later layers
        # and blocks.  Every layer's states over three blocks, and the gradient
        # built from them and from the adjoint's, against the step-by-step ones.
        rng = d.seeded_rng(64)
        horizon = 2 * _BLOCK + 3
        model = random_model(rng, 3, 3)
        deep = random_dense_deep(rng, 3, 3)
        drive = rng.standard_normal((horizon, 1)) + 1j * rng.standard_normal((horizon, 1))
        for stack in (_stack(model), (deep.state_matrices, deep.input_matrices)):
            want = sequential_states(*stack, drive[:, 0])
            for got, layer in zip(d.fit._trajectories(*stack, drive), want, strict=True):
                assert_matches_oracle(got, layer)
        target = d.ConvolutionKernel(rng.standard_normal(horizon) + 1j)
        grads = [d.kernel_gradient(model, target)]
        monkeypatch.setattr(d.fit, "_layer_blocks", sequential_layer_blocks)
        grads.append(d.kernel_gradient(model, target))
        got, want = ([*g.state_diags, *g.input_matrices, g.read_out] for g in grads)
        for block, oracle in zip(got, want, strict=True):
            assert rel_err(block, oracle) <= 1e-12

    @pytest.mark.parametrize("a", [2.0, np.nextafter(4.0, 0.0), 4.0, 1e3])
    def test_unstable_channel_without_drive(self, a):
        # Powers of a overflow inside a block; the undriven channel must
        # still read exactly zero, as it does step by step.  Just below 4 the
        # block stays full, and a**512, the last power used, sits just below
        # the float maximum.
        horizon = 2100
        states, mixes, read_out = [np.array([a, 0.5])], [np.array([[0.0], [1.0]])], np.ones(2)
        model = d.DeepLinearSSM((d.LayerParams(states[0], mixes[0]),), read_out)
        impulse = np.eye(horizon, 1)[:, 0]
        taps = sequential_response(states, mixes, read_out, impulse)
        x = d.seeded_rng(61).standard_normal(horizon)
        with pytest.warns(d.StabilityWarning):
            got = d.kernel_by_simulation(model, horizon).taps
        assert got[5] == 0.03125
        assert_matches_oracle(got, taps)
        with pytest.warns(d.StabilityWarning):
            assert_matches_oracle(
                d.simulate(model, x), sequential_response(states, mixes, read_out, x)
            )
        target = d.impulse_target(5, horizon)
        loss = float(np.sum(np.abs(taps - target.kernel().taps) ** 2))
        assert abs(d.kernel_loss(model, target) - loss) <= 1e-12 * loss
        dense = d.DenseSSM(np.diag(states[0]), mixes[0], read_out)
        assert_matches_oracle(dense.kernel(horizon).taps, taps)
        deep = d.DenseDeepSSM((np.diag(states[0]),), tuple(mixes), read_out)
        assert_matches_oracle(deep.kernel(horizon).taps, taps)

    @pytest.mark.parametrize("a", [2.0, 4.0])
    def test_unstable_impulse_after_zeros(self, a):
        # The impulse lands in the second block; at a = 4 the state
        # overflows 512 steps later, at the same step as step by step.
        x = np.zeros(2100)
        x[1200] = 1.0
        model = d.DeepLinearSSM((d.LayerParams([a], [[1.0]]),), [1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            want = sequential_response([np.array([a])], [np.array([[1.0]])], np.ones(1), x)
            with pytest.warns(d.StabilityWarning):
                got = d.simulate(model, x)
        assert_matches_oracle(got, want)

    def test_powers_beyond_four_overflow_with_the_state(self):
        # 5**512 overflows while 1e-300 * 5**t stays finite up to t = 870; a
        # block that formed 5**512 would overflow from step 512 on.
        horizon = 1200
        impulse = np.eye(horizon, 1)[:, 0]
        states, mixes, read_out = [np.array([5.0])], [np.array([[1e-300]])], np.ones(1)
        with np.errstate(over="ignore", invalid="ignore"):
            taps = sequential_response(states, mixes, read_out, impulse)
        assert np.isfinite(taps).sum() == 871
        model = d.DeepLinearSSM((d.LayerParams(states[0], mixes[0]),), read_out)
        with pytest.warns(d.StabilityWarning):
            assert_matches_oracle(d.simulate(model, impulse), taps)
        for method in (d.kernel_by_simulation, d.kernel_closed_form):
            with pytest.warns(d.StabilityWarning), pytest.raises(
                d.NumericalError, match="kernel tap 871 overflowed"
            ):
                method(model, horizon)
        # A dense state matrix sizes the block by its largest absolute row sum.
        dense = d.DenseSSM(np.diag(states[0]), mixes[0], read_out)
        with pytest.raises(d.NumericalError, match="kernel tap 871 overflowed"):
            dense.kernel(horizon)

    @pytest.mark.parametrize("horizon", range(1, 65))
    def test_short_horizons_keep_the_doubling_bits(self, horizon, monkeypatch):
        # Training runs at horizon 64 and must keep every bit it had before
        # the pairing scan: forward on diagonal and dense stacks, then the
        # adjoint through kernel_gradient.
        rng = d.seeded_rng(63, horizon)
        model = random_model(rng, 3, 4)
        deep = random_dense_deep(rng, 2, 3)
        drive = rng.standard_normal((horizon, 1)) + 1j * rng.standard_normal((horizon, 1))
        for stack in (_stack(model), (deep.state_matrices, deep.input_matrices)):
            got = [h.tobytes() for _, _, h in _layer_blocks(*stack, drive)]
            assert got == [h.tobytes() for _, _, h in doubling_layer_blocks(*stack, drive)]
        target = d.ConvolutionKernel(rng.standard_normal(horizon) + 1j)
        runs = []
        for engine in (_layer_blocks, doubling_layer_blocks):
            monkeypatch.setattr(d.core, "_layer_blocks", engine)
            monkeypatch.setattr(d.fit, "_layer_blocks", engine)
            grad = d.kernel_gradient(model, target)
            blocks = [*grad.state_diags, *grad.input_matrices, grad.read_out]
            runs.append([d.kernel_loss(model, target), *(b.tobytes() for b in blocks)])
        assert runs[0] == runs[1]


def test_package_names_are_the_modules_names():
    # A tracer that rebinds a function by identity must find it under both names.
    modules = [d.errors, d.symfun, d.core, d.convert, d.fit]
    assert d.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(d.__all__)) == len(d.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(d, name) is getattr(module, name)
