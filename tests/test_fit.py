"""Unit tests for training, gradients, and the experiment drivers."""

import logging
import warnings

import numpy as np
import pytest

import deepssm as d
from conftest import random_model, rel_err
from deepssm.core import _BLOCK


def finite_difference_gradient(model, target, step=1e-6):
    """Central differences over every real and imaginary parameter part."""

    def rebuild(diags, mats, out):
        layers = tuple(
            d.LayerParams(diag, mat) for diag, mat in zip(diags, mats)
        )
        return d.DeepLinearSSM(layers, out)

    def loss_of(diags, mats, out):
        return d.kernel_loss(rebuild(diags, mats, out), target)

    diags = [layer.state_diag.copy() for layer in model.layers]
    mats = [layer.input_matrix.copy() for layer in model.layers]
    out = model.read_out.copy()

    def probe(block, idx):
        grads = []
        for delta in (step, 1j * step):
            block[idx] += delta
            high = loss_of(diags, mats, out)
            block[idx] -= 2 * delta
            low = loss_of(diags, mats, out)
            block[idx] += delta
            grads.append((high - low) / (2 * step))
        return grads[0] + 1j * grads[1]

    grad_diags = []
    for diag in diags:
        grad_diags.append(np.array([probe(diag, j) for j in range(diag.size)]))
    grad_mats = []
    for mat in mats:
        grad = np.zeros(mat.shape, dtype=complex)
        for idx in np.ndindex(mat.shape):
            grad[idx] = probe(mat, idx)
        grad_mats.append(grad)
    grad_out = np.array([probe(out, j) for j in range(out.size)])
    return d.ModelGradient(tuple(grad_diags), tuple(grad_mats), grad_out)


def gradient_as_vector(grad):
    return np.concatenate(
        [b.ravel() for b in (*grad.state_diags, *grad.input_matrices, grad.read_out)]
    )


class TestImpulseTarget:
    def test_kernel_is_shifted_delta(self):
        taps = d.impulse_target(5, 16).kernel().taps
        want = np.zeros(16, dtype=complex)
        want[5] = 1.0
        np.testing.assert_array_equal(taps, want)

    def test_shift_must_lie_inside_horizon(self):
        with pytest.raises(d.ShiftOutOfHorizon):
            d.impulse_target(16, 16)
        with pytest.raises(d.ShiftOutOfHorizon):
            d.impulse_target(-1, 16)

    def test_horizon_must_be_positive(self):
        with pytest.raises(d.DomainError):
            d.ImpulseTarget(0, 0)

    def test_default_horizon(self):
        assert d.impulse_target(3).horizon == d.DEFAULT_HORIZON


class TestTrainConfig:
    def test_round_trip(self):
        config = d.TrainConfig(learning_rate=0.2, steps=10, seed=7)
        again = d.TrainConfig.from_json_dict(config.to_json_dict())
        assert again == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(d.ShapeMismatch):
            d.TrainConfig.from_json_dict({"step_size": 0.1})

    def test_validation(self):
        with pytest.raises(d.DomainError):
            d.TrainConfig(learning_rate=-0.1)
        with pytest.raises(d.DomainError):
            d.TrainConfig(steps=-1)
        with pytest.raises(d.DomainError):
            d.TrainConfig(init_scale=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", True),
            ("learning_rate", "0.1"),
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("learning_rate", 10**400),
            ("init_scale", None),
            ("init_scale", float("inf")),
            ("steps", "abc"),
            ("steps", 10.0),
            ("steps", True),
            ("seed", 1.5),
            ("seed", [0]),
            ("stability_projection", 1),
            ("stability_projection", "yes"),
        ],
    )
    def test_wrong_types_are_domain_errors(self, field, value):
        with pytest.raises(d.DomainError):
            d.TrainConfig.from_json_dict({field: value})

    def test_numpy_scalars_accepted(self):
        config = d.TrainConfig(learning_rate=np.float64(0.1), steps=np.int64(3))
        assert config.steps == 3


class TestKernelLoss:
    def test_hand_value(self):
        model = d.DeepLinearSSM((d.LayerParams([0.5], [[1.0]]),), [1.0])
        target = d.impulse_target(0, 2)
        # Kernel (1, 0.5) against (1, 0): loss is 0.25.
        assert abs(d.kernel_loss(model, target) - 0.25) < 1e-15

    def test_zero_at_planted_target(self):
        model = random_model(d.seeded_rng(40), 2, 3)
        target = d.kernel_by_simulation(model, 32)
        assert d.kernel_loss(model, target) == 0.0

    def test_kernel_vs_kernel_and_horizon_mismatch(self):
        a = d.ConvolutionKernel([1.0, 2.0])
        b = d.ConvolutionKernel([1.0, -1.0])
        assert abs(d.kernel_loss(a, b) - 9.0) < 1e-15
        with pytest.raises(d.HorizonMismatch):
            d.kernel_loss(a, d.ConvolutionKernel([1.0]))

    def test_rejects_other_types(self):
        with pytest.raises(d.ShapeMismatch):
            d.kernel_loss([1.0, 2.0], d.impulse_target(0, 2))


class TestKernelGradient:
    def test_scalar_read_out_closed_form(self):
        # Depth 1, width 1, all real: dL/dc = sum_t 2 (c b a^t - tau_t) b a^t.
        a, b, c = 0.6, 0.8, 1.2
        model = d.DeepLinearSSM((d.LayerParams([a], [[b]]),), [c])
        target = d.impulse_target(1, 8)
        grad = d.kernel_gradient(model, target)
        ts = np.arange(8)
        resid = c * b * a**ts - target.kernel().taps.real
        want = np.sum(2.0 * resid * b * a**ts)
        assert abs(grad.read_out[0] - want) < 1e-12

    def test_matches_finite_differences(self):
        rng = d.seeded_rng(41)
        model = random_model(rng, 3, 2)
        target = d.ConvolutionKernel(
            rng.standard_normal(12) + 1j * rng.standard_normal(12)
        )
        got = gradient_as_vector(d.kernel_gradient(model, target))
        want = gradient_as_vector(finite_difference_gradient(model, target))
        assert rel_err(got, want) < 1e-6

    def test_matches_finite_differences_across_blocks(self):
        # The adjoint is scanned backwards in blocks too; cross two edges.
        rng = d.seeded_rng(49)
        model = random_model(rng, 2, 2)
        horizon = 2 * _BLOCK + 3
        target = d.ConvolutionKernel(
            rng.standard_normal(horizon) + 1j * rng.standard_normal(horizon)
        )
        got = gradient_as_vector(d.kernel_gradient(model, target))
        want = gradient_as_vector(finite_difference_gradient(model, target))
        assert rel_err(got, want) < 1e-6

    def test_matches_finite_differences_across_a_pairing_level(self):
        # 129 rows pair down to 64 and fill back, forwards and in the adjoint.
        rng = d.seeded_rng(50)
        model = random_model(rng, 2, 2)
        target = d.ConvolutionKernel(rng.standard_normal(129) + 1j * rng.standard_normal(129))
        got = gradient_as_vector(d.kernel_gradient(model, target))
        want = gradient_as_vector(finite_difference_gradient(model, target))
        assert rel_err(got, want) < 1e-6

    def test_zero_at_planted_minimum(self):
        model = random_model(d.seeded_rng(42), 2, 2)
        target = d.kernel_by_simulation(model, 24)
        assert d.kernel_gradient(model, target).max_abs() == 0.0

    def test_real_model_real_target_gives_real_gradient(self):
        model = d.init_model(2, 3, d.seeded_rng(43), real=True)
        grad = d.kernel_gradient(model, d.impulse_target(4, 24))
        assert gradient_as_vector(grad).imag.max() == 0.0

    def test_non_finite_loss_is_divergence_not_a_nan_gradient(self):
        # Finite parameters whose taps 1e400 * 0.5**t overflow; kernel_loss says inf.
        model = d.DeepLinearSSM((d.LayerParams([0.5], [[1e200]]),), [1e200])
        target = d.impulse_target(1, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert d.kernel_loss(model, target) == np.inf
            with pytest.raises(d.DivergenceDetected, match="^loss overflowed to inf$"):
                d.kernel_gradient(model, target)

    def test_loss_whose_square_overflows_is_inf_without_a_warning(self):
        # Finite taps near 1e250, whose squares overflow.
        model = d.DeepLinearSSM(
            (d.LayerParams([0.5], [[1e-50]]), d.LayerParams([0.5], [[1e200]])), [1e100]
        )
        target = d.impulse_target(1, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(d.kernel_by_simulation(model, 16).taps).all()
            assert d.kernel_loss(model, target) == np.inf
            with pytest.raises(d.DivergenceDetected, match="^loss overflowed to inf$"):
                d.kernel_gradient(model, target)

    @pytest.mark.parametrize(
        "mats, read_out, block",
        [
            # Loss 1.33e300, but the read-out gradient sum_t r(t) h(t) is about 1e350.
            ([[[1e200]]], [1e-50], "C"),
            ([[[1e150]], [[1e-100]]], [1e100], "B2"),
        ],
    )
    def test_overflowed_gradient_is_divergence_naming_the_block(self, mats, read_out, block):
        model = d.DeepLinearSSM(tuple(d.LayerParams([0.5], mat) for mat in mats), read_out)
        target = d.impulse_target(1, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(d.kernel_loss(model, target))
            with pytest.raises(d.DivergenceDetected, match=f"^gradient of {block} overflowed$"):
                d.kernel_gradient(model, target)


class TestTrain:
    def test_zero_rate_keeps_model_and_trace_flat(self):
        model = random_model(d.seeded_rng(44), 2, 2)
        target = d.impulse_target(1, 16)
        fitted, trace = d.train(model, target, d.TrainConfig(learning_rate=0.0, steps=5))
        assert trace.shape == (6,)
        assert np.all(trace == trace[0])
        for before, after in zip(model.layers, fitted.layers):
            np.testing.assert_array_equal(before.state_diag, after.state_diag)
            np.testing.assert_array_equal(before.input_matrix, after.input_matrix)

    def test_trace_holds_each_step_models_loss(self):
        model = d.init_model(2, 3, d.seeded_rng(49))
        target = d.impulse_target(2, 24).kernel()
        _, trace = d.train(model, target, d.TrainConfig(learning_rate=0.05, steps=3))
        for steps in range(4):
            fitted, _ = d.train(model, target, d.TrainConfig(learning_rate=0.05, steps=steps))
            assert trace[steps] == d.kernel_loss(fitted, target)

    def test_loss_decreases_on_easy_problem(self):
        model = d.init_model(1, 3, d.seeded_rng(45))
        target = d.impulse_target(0, 16)
        _, trace = d.train(model, target, d.TrainConfig(learning_rate=0.05, steps=50))
        assert trace[-1] < trace[0]

    def test_divergence_detected_at_huge_rate(self):
        model = d.init_model(2, 3, d.seeded_rng(46))
        target = d.impulse_target(1, 16)
        config = d.TrainConfig(learning_rate=50.0, steps=200, stability_projection=False)
        with pytest.raises(d.DivergenceDetected):
            d.train(model, target, config)

    @pytest.mark.parametrize(
        "model, config, message",
        [
            # The first step of this rate overflows every parameter.
            (d.init_model(2, 3, d.seeded_rng(46)), d.TrainConfig(learning_rate=1e150, steps=5),
             "loss overflowed to nan at step 1"),
            # The parameters are finite, the taps 1e400 * 0.5**t are not.
            (d.DeepLinearSSM((d.LayerParams([0.5], [[1e200]]),), [1e200]), d.TrainConfig(steps=0),
             "loss overflowed to inf at step 0"),
        ],
        ids=["overflowing-step", "overflowing-initial-loss"],
    )
    def test_non_finite_loss_is_divergence(self, model, config, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(d.DivergenceDetected, match=message):
                d.train(model, d.impulse_target(1, 16), config)

    def test_projection_caps_eigenvalue_moduli(self):
        model = d.init_model(2, 3, d.seeded_rng(47))
        target = d.impulse_target(12, 24)
        fitted, _ = d.train(model, target, d.TrainConfig(learning_rate=0.3, steps=120))
        assert fitted.spectral_radius() <= 1.0 - 1e-6 + 1e-12

    def test_reaches_small_loss_on_pinned_cell(self):
        # Frozen hyperparameters: depth 2, width 3, shift-2 impulse over 32
        # taps trains to 4.8e-5 from seed 1; assert an order looser.
        model = d.init_model(2, 3, d.seeded_rng(1))
        target = d.impulse_target(2, 32)
        config = d.TrainConfig(learning_rate=0.1, steps=3000, seed=1)
        fitted, trace = d.train(model, target, config)
        assert trace[-1] < 1e-3
        assert trace[-1] < trace[0] / 100.0

    def test_real_model_stays_exactly_real(self):
        model = d.init_model(2, 2, d.seeded_rng(48), real=True)
        target = d.impulse_target(3, 16)
        fitted, _ = d.train(model, target, d.TrainConfig(learning_rate=0.05, steps=40))
        for layer in fitted.layers:
            assert np.all(layer.state_diag.imag == 0.0)
            assert np.all(layer.input_matrix.imag == 0.0)
        assert np.all(fitted.read_out.imag == 0.0)


class TestRandomness:
    def test_seeded_rng_is_reproducible_and_branching(self):
        a = d.seeded_rng(5).standard_normal(4)
        b = d.seeded_rng(5).standard_normal(4)
        c = d.seeded_rng(5, 1).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_init_model_is_deterministic(self):
        one = d.init_model(2, 3, d.seeded_rng(6))
        two = d.init_model(2, 3, d.seeded_rng(6))
        np.testing.assert_array_equal(one.read_out, two.read_out)
        for la, lb in zip(one.layers, two.layers):
            np.testing.assert_array_equal(la.state_diag, lb.state_diag)
            np.testing.assert_array_equal(la.input_matrix, lb.input_matrix)

    def test_init_model_spectrum_range(self):
        model = d.init_model(3, 4, d.seeded_rng(7))
        for layer in model.layers:
            mags = np.abs(layer.state_diag)
            assert np.all((mags >= 0.5) & (mags <= 0.95))

    def test_init_model_validation(self):
        with pytest.raises(d.DomainError):
            d.init_model(0, 3, d.seeded_rng(8))

    def test_sample_teacher_is_separated_and_scaled(self):
        teacher = d.sample_teacher(6, 2.0, d.seeded_rng(9))
        mods = np.abs(teacher.eigenvalues)
        assert np.all(np.diff(np.sort(mods)) > 1e-3)
        assert np.max(np.abs(teacher.weights())) <= 4.0 * (1 + 1e-12)
        real = d.sample_teacher(6, 2.0, d.seeded_rng(9), real=True)
        assert np.all(real.eigenvalues.imag == 0.0)

    def test_sample_teacher_validation(self):
        with pytest.raises(d.DomainError):
            d.sample_teacher(0, 1.0, d.seeded_rng(10))
        with pytest.raises(d.DomainError):
            d.sample_teacher(3, 0.0, d.seeded_rng(10))


class TestTeacherStudent:
    def test_records_satisfy_depth_bound(self):
        records = d.teacher_student_experiment(3, [1, 2, 3], 3, 10.0)
        assert [r.depth for r in records] == [1, 2, 3]
        for record in records:
            bound = 2.0 * 10.0 ** (2.0 / (record.depth + 1))
            assert record.max_param_norm <= bound * (1 + 1e-9)
            assert record.final_loss < 1e-12
            assert record.width == 3
            assert record.effective_width == record.depth * 2 + 1
            assert record.wall_time > 0
        # Deeper students get away with smaller parameter entries.
        norms = [r.max_param_norm for r in records]
        assert norms[2] < norms[0]

    def test_equiv_shallow_norm_tracks_teacher_weights(self):
        records = d.teacher_student_experiment(4, [2], 4, 5.0)
        assert 0 < records[0].equiv_shallow_max_norm <= 25.0 * (1 + 1e-6)

    def test_content_is_deterministic(self):
        one = d.teacher_student_experiment(11, [1, 2], 3, 4.0)
        two = d.teacher_student_experiment(11, [1, 2], 3, 4.0)
        assert [r.content() for r in one] == [r.content() for r in two]

    def test_real_mode(self):
        records = d.teacher_student_experiment(12, [2], 3, 4.0, real=True)
        assert records[0].final_loss < 1e-12

    def test_width_validation(self):
        with pytest.raises(d.DomainError):
            d.teacher_student_experiment(0, [1], 0, 4.0)


class TestDepthSweep:
    def test_widths_follow_effective_width(self, caplog):
        config = d.TrainConfig(learning_rate=0.001, steps=3, seed=2)
        with caplog.at_level(logging.WARNING, logger="deepssm.fit"):
            records = d.depth_sweep_impulse(2, 16, 7, [1, 2, 3, 4, 6], config)
        assert [(r.depth, r.width) for r in records] == [(1, 7), (2, 4), (3, 3), (6, 2)]
        assert all(r.effective_width == 7 for r in records)
        assert any("depth 4 skipped" in message for message in caplog.messages)

    def test_content_is_deterministic(self):
        config = d.TrainConfig(learning_rate=0.05, steps=4, seed=3)
        one = d.depth_sweep_impulse(1, 12, 5, [1, 2], config)
        two = d.depth_sweep_impulse(1, 12, 5, [1, 2], config)
        assert [r.content() for r in one] == [r.content() for r in two]

    def test_cells_do_not_depend_on_requested_set(self):
        config = d.TrainConfig(learning_rate=0.05, steps=4, seed=4)
        alone = d.depth_sweep_impulse(1, 12, 5, [2], config)
        paired = d.depth_sweep_impulse(1, 12, 5, [1, 2], config)
        assert alone[0].content() == paired[1].content()


class TestRecordsCsv:
    def _records(self):
        return [
            d.ExperimentRecord(1, 7, 0, 0.5, 1.25, 2.5, 0.2),
            d.ExperimentRecord(2, 4, 0, 0.25, 1.0, 2.0, 0.3),
        ]

    def test_header_and_depth_one_normalization(self):
        lines = d.records_csv_text(self._records()).splitlines()
        assert lines[0] == (
            "depth,width,seed,final_loss,max_param_norm,"
            "equiv_shallow_max_norm,wall_time_rel"
        )
        first = lines[1].split(",")
        assert first[:3] == ["1", "7", "0"]
        assert float(first[-1]) == 1.0
        assert abs(float(lines[2].split(",")[-1]) - 1.5) < 1e-12

    def test_falls_back_to_first_record_without_depth_one(self):
        lines = d.records_csv_text(self._records()[1:]).splitlines()
        assert float(lines[1].split(",")[-1]) == 1.0

    def test_save_records_csv(self, tmp_path):
        path = tmp_path / "records.csv"
        d.save_records_csv(self._records(), path)
        assert path.read_text().startswith("depth,width,seed,")
