"""End-to-end tests of the command-line verbs through ``run(argv)`` and the
``deepssm`` console script."""

import json
import os
import shutil
import subprocess
import sys
import textwrap
import warnings
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import deepssm as d
from deepssm import cli
from conftest import distinct_model, load_kernel_csv, random_model, rel_err


def write_model(model, path):
    d.save_model(model, path)
    return str(path)


# What an installer writes into a console-script wrapper, less the shebang.
CONSOLE_SCRIPT_WRAPPER = """\
import sys
from {module} import {import_name}
sys.argv[0] = "deepssm"
sys.exit({func}())
"""


def declared_console_script(name):
    """Entry point ``name`` of ``[project.scripts]`` in the repo's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    return EntryPoint(name=name, value=scripts[name], group="console_scripts")


def source_env():
    """The environment with this checkout's package first on ``PYTHONPATH``."""
    package_root = Path(d.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package_root), env.get("PYTHONPATH")]))
    return env


def strip_wall_time(csv_text):
    return [line.rsplit(",", 1)[0] for line in csv_text.splitlines()]


def config_text(base, **changes):
    return json.dumps({**base, **changes})


@pytest.fixture
def teacher_path(tmp_path):
    teacher = d.sample_teacher(7, 2.0, d.seeded_rng(50))
    return write_model(teacher.as_model(), tmp_path / "teacher.json")


class TestKernelCommand:
    def test_sim_and_closed_agree(self, tmp_path):
        model_path = write_model(
            random_model(d.seeded_rng(51), 3, 3), tmp_path / "model.json"
        )
        sim_path = tmp_path / "sim.csv"
        closed_path = tmp_path / "closed.csv"
        assert cli.run(["kernel", "--input", model_path, "--output", str(sim_path)]) == 0
        assert (
            cli.run(
                [
                    "kernel",
                    "--input",
                    model_path,
                    "--output",
                    str(closed_path),
                    "--method",
                    "closed",
                ]
            )
            == 0
        )
        sim = load_kernel_csv(sim_path)
        closed = load_kernel_csv(closed_path)
        assert sim.horizon == d.DEFAULT_HORIZON
        assert rel_err(sim.taps, closed.taps) < 1e-9

    def test_horizon_flag(self, tmp_path):
        model_path = write_model(
            random_model(d.seeded_rng(52), 1, 2), tmp_path / "model.json"
        )
        out = tmp_path / "k.csv"
        assert cli.run(
            ["kernel", "--input", model_path, "--output", str(out), "--horizon", "10"]
        ) == 0
        assert load_kernel_csv(out).horizon == 10

    def test_strict_stability_failure_is_numerical(self, tmp_path):
        unstable = d.DeepLinearSSM((d.LayerParams([1.2], [[1.0]]),), [1.0])
        model_path = write_model(unstable, tmp_path / "unstable.json")
        code = cli.run(
            [
                "kernel",
                "--input",
                model_path,
                "--output",
                str(tmp_path / "k.csv"),
                "--strict-stability",
            ]
        )
        assert code == 3

    @pytest.mark.parametrize("method", ["sim", "closed"])
    def test_overflowed_taps_are_numerical_errors(self, tmp_path, capsys, method):
        # The parameters are finite; 1.5**1751 is not.
        unstable = d.DeepLinearSSM((d.LayerParams([1.5], [[1.0]]),), [1.0])
        model_path = write_model(unstable, tmp_path / "unstable.json")
        argv = ["kernel", "--input", model_path, "--output", str(tmp_path / "k.csv"),
                "--horizon", "3000", "--method", method]
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert cli.run(argv) == 3
        assert [w.category for w in seen] == [d.StabilityWarning]
        assert capsys.readouterr().err == "error: kernel tap 1751 overflowed to (inf+nanj)\n"
        assert not (tmp_path / "k.csv").exists()

    def test_main_prints_warnings_on_one_line(self, tmp_path):
        unstable = d.DeepLinearSSM((d.LayerParams([1.5], [[1.0]]),), [1.0])
        write_model(unstable, tmp_path / "unstable.json")
        proc = subprocess.run(
            [sys.executable, "-m", "deepssm.cli", "kernel", "--input", "unstable.json",
             "--output", "k.csv", "--horizon", "3000"],
            capture_output=True, text=True, cwd=tmp_path, env=source_env(),
        )
        assert proc.returncode == 3
        assert proc.stderr == (
            "warning: spectral radius 1.5 is not below 1\n"
            "error: kernel tap 1751 overflowed to (inf+nanj)\n"
        )


class TestVerifyCommand:
    def test_pass_and_fail_exit_codes(self, tmp_path):
        model_path = write_model(
            random_model(d.seeded_rng(53), 2, 3), tmp_path / "model.json"
        )
        report_path = tmp_path / "report.json"
        assert cli.run(
            ["verify", "--input", model_path, "--bound", "100", "--output", str(report_path)]
        ) == 0
        report = json.loads(report_path.read_text())
        assert report["is_member"] is True and report["violations"] == []
        assert cli.run(
            ["verify", "--input", model_path, "--bound", "1e-6", "--output", str(report_path)]
        ) == 1
        report = json.loads(report_path.read_text())
        assert report["is_member"] is False and report["violations"]

    def test_report_to_stdout(self, tmp_path, capsys):
        model_path = write_model(
            random_model(d.seeded_rng(54), 1, 2), tmp_path / "model.json"
        )
        assert cli.run(["verify", "--input", model_path, "--bound", "50"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["width"] == 2 and report["depth"] == 1


class TestPlanDepthCommand:
    def test_stdout_plan(self, capsys):
        assert cli.run(["plan-depth", "--c1", "100", "--c2", "4", "--modes", "12"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["depth"] == 13 and plan["width"] == 2
        assert abs(plan["predicted_bound"] - 2.0 * 100.0 ** (2.0 / 14.0)) < 1e-9

    def test_bad_budget_is_input_error(self, capsys):
        assert cli.run(["plan-depth", "--c1", "4", "--c2", "2", "--modes", "3"]) == 2


class TestFactorizeCommand:
    def test_factorize_then_verify_certificate(self, tmp_path, teacher_path):
        student_path = tmp_path / "student.json"
        assert cli.run(
            [
                "factorize",
                "--input",
                teacher_path,
                "--output",
                str(student_path),
                "--depth",
                "3",
            ]
        ) == 0
        cert = json.loads((tmp_path / "student.cert.json").read_text())
        assert cert["satisfied"] is True
        assert cert["measured_max"] <= cert["z0"] * (1 + 1e-9)

        student = d.load_model(student_path)
        teacher = d.ShallowRealization.from_model(d.load_model(teacher_path))
        assert student.depth == 3 and student.width == 3
        assert rel_err(
            d.kernel_closed_form(student, 64).taps, teacher.kernel(64).taps
        ) < 1e-9

        bound = repr(cert["z0"] * (1 + 1e-9))
        assert cli.run(["verify", "--input", str(student_path), "--bound", bound,
                      "--output", str(tmp_path / "member.json")]) == 0

    def test_custom_certificate_path_and_width(self, tmp_path, teacher_path):
        student_path = tmp_path / "wide.json"
        cert_path = tmp_path / "wide-cert.json"
        assert cli.run(
            [
                "factorize",
                "--input",
                teacher_path,
                "--output",
                str(student_path),
                "--depth",
                "4",
                "--width",
                "3",
                "--certificate",
                str(cert_path),
            ]
        ) == 0
        assert cert_path.exists()
        assert d.load_model(student_path).width == 3

    def test_degenerate_teacher_is_numerical_error(self, tmp_path):
        teacher = d.ShallowRealization([0.5, 0.5, 0.7], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        path = write_model(teacher.as_model(), tmp_path / "degenerate.json")
        code = cli.run(
            ["factorize", "--input", path, "--output", str(tmp_path / "s.json"),
             "--depth", "2"]
        )
        assert code == 3

    def test_incompatible_depth_is_input_error(self, tmp_path, teacher_path):
        code = cli.run(
            ["factorize", "--input", teacher_path, "--output", str(tmp_path / "s.json"),
             "--depth", "4"]
        )
        assert code == 2

    def test_deep_input_is_input_error(self, tmp_path):
        path = write_model(random_model(d.seeded_rng(55), 2, 2), tmp_path / "deep.json")
        code = cli.run(
            ["factorize", "--input", path, "--output", str(tmp_path / "s.json"),
             "--depth", "2"]
        )
        assert code == 2


class TestExpandCommand:
    def test_csv_output(self, tmp_path):
        model = distinct_model(d.seeded_rng(56), 2, 2)
        model_path = write_model(model, tmp_path / "model.json")
        out = tmp_path / "table.csv"
        assert cli.run(["expand", "--input", model_path, "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "layer,index,lambda_re,lambda_im,xi_re,xi_im"
        assert len(lines) == 5

    def test_json_output_reconstructs_kernel(self, tmp_path):
        model = distinct_model(d.seeded_rng(57), 2, 3)
        model_path = write_model(model, tmp_path / "model.json")
        out = tmp_path / "table.json"
        assert cli.run(["expand", "--input", model_path, "--output", str(out)]) == 0
        entries = json.loads(out.read_text())["entries"]
        taps = np.zeros(48, dtype=complex)
        ts = np.arange(48)
        for entry in entries:
            lam = complex(*entry["eigenvalue"])
            xi = complex(*entry["coefficient"])
            taps += xi * lam**ts
        assert rel_err(taps, d.kernel_by_simulation(model, 48).taps) < 1e-8

    def test_deep_wide_model_expands(self, tmp_path):
        # 8**12 = 6.9e10 index paths: out of reach for a per-path sum.
        model = distinct_model(d.seeded_rng(58), 12, 8)
        model_path = write_model(model, tmp_path / "model.json")
        out = tmp_path / "table.csv"
        assert cli.run(["expand", "--input", model_path, "--output", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 96
        lam = np.array([complex(float(r[2]), float(r[3])) for r in rows])
        xi = np.array([complex(float(r[4]), float(r[5])) for r in rows])
        taps = np.sum(xi[:, None] * lam[:, None] ** np.arange(128)[None, :], axis=0)
        assert rel_err(taps, d.kernel_by_simulation(model, 128).taps) < 1e-8

    def test_resonant_model_is_numerical_error(self, tmp_path):
        model = d.DeepLinearSSM(
            (
                d.LayerParams([0.5, 0.6], [[1.0], [1.0]]),
                d.LayerParams([0.5, 0.7], np.ones((2, 2))),
            ),
            [1.0, 1.0],
        )
        path = write_model(model, tmp_path / "resonant.json")
        assert cli.run(
            ["expand", "--input", path, "--output", str(tmp_path / "t.csv")]
        ) == 3


class TestCollapseCommand:
    def test_dense_output_preserves_kernel(self, tmp_path):
        model = random_model(d.seeded_rng(58), 3, 2)
        model_path = write_model(model, tmp_path / "model.json")
        out = tmp_path / "dense.json"
        assert cli.run(["collapse", "--input", model_path, "--output", str(out)]) == 0
        dense = d.load_dense(out)
        assert dense.width == 6
        assert rel_err(
            dense.kernel(48).taps, d.kernel_by_simulation(model, 48).taps
        ) < 1e-9


class TestExperimentCommands:
    def _impulse_config(self, tmp_path, seed=3):
        config = {
            "shift": 1,
            "horizon": 12,
            "effective_width": 3,
            "depths": [1, 2],
            "train": {"learning_rate": 0.001, "steps": 2, "seed": seed},
        }
        path = tmp_path / "impulse.json"
        path.write_text(json.dumps(config))
        return str(path)

    def test_train_impulse_is_deterministic_up_to_wall_time(self, tmp_path):
        config_path = self._impulse_config(tmp_path)
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert cli.run(["train-impulse", "--config", config_path, "--output", str(one)]) == 0
        assert cli.run(["train-impulse", "--config", config_path, "--output", str(two)]) == 0
        text = one.read_text()
        assert strip_wall_time(text) == strip_wall_time(two.read_text())
        rows = text.splitlines()
        assert rows[0].startswith("depth,width,seed,")
        assert len(rows) == 3
        assert rows[1].split(",")[:2] == ["1", "3"]
        assert rows[2].split(",")[:2] == ["2", "2"]

    def test_seed_flag_overrides_config(self, tmp_path):
        config_path = self._impulse_config(tmp_path)
        base, other = tmp_path / "base.csv", tmp_path / "other.csv"
        assert cli.run(["train-impulse", "--config", config_path, "--output", str(base)]) == 0
        assert cli.run(
            ["train-impulse", "--config", config_path, "--output", str(other),
             "--seed", "99"]
        ) == 0
        base_rows = strip_wall_time(base.read_text())
        other_rows = strip_wall_time(other.read_text())
        assert base_rows != other_rows
        assert other_rows[1].split(",")[2] == "99"

    def test_missing_config_key_is_input_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"shift": 1}))
        assert cli.run(
            ["train-impulse", "--config", str(path), "--output", str(tmp_path / "r.csv")]
        ) == 2

    def test_teacher_student_records(self, tmp_path):
        config = {"seed": 5, "depths": [1, 2, 3], "width": 3, "norm_scale": 4.0}
        config_path = tmp_path / "ts.json"
        config_path.write_text(json.dumps(config))
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert cli.run(
            ["teacher-student", "--config", str(config_path), "--output", str(one)]
        ) == 0
        assert cli.run(
            ["teacher-student", "--config", str(config_path), "--output", str(two)]
        ) == 0
        assert strip_wall_time(one.read_text()) == strip_wall_time(two.read_text())
        rows = one.read_text().splitlines()
        assert len(rows) == 4
        norms = [float(row.split(",")[4]) for row in rows[1:]]
        for depth, norm in zip([1, 2, 3], norms):
            assert norm <= 2.0 * 4.0 ** (2.0 / (depth + 1)) * (1 + 1e-9)


class TestErrorPaths:
    def test_missing_input_file(self, tmp_path):
        assert cli.run(
            ["kernel", "--input", str(tmp_path / "nope.json"),
             "--output", str(tmp_path / "k.csv")]
        ) == 2

    def test_unwritable_output_names_the_requested_path(self, tmp_path, capsys):
        # The temp file beside the output gets a random name; the error must not.
        model = write_model(random_model(d.seeded_rng(3), 1, 2), tmp_path / "m.json")
        target = str(tmp_path / "missing" / "k.csv")
        errors = []
        for _ in range(2):
            assert cli.run(["kernel", "--input", model, "--output", target]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == f"error: [Errno 2] No such file or directory: {target!r}\n"
        assert not (tmp_path / "missing").exists()

    def test_malformed_model_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\"layers\": []}")
        assert cli.run(
            ["kernel", "--input", str(path), "--output", str(tmp_path / "k.csv")]
        ) == 2

    ONE_MODE_MODEL = (
        '{"layers": [{"state_diag": [[0.5, 0]], "input_matrix": [[[1, 0]]]}], '
        '"read_out": [[1, 0]]}'
    )
    KERNEL = ["kernel", "--input", "{file}", "--output", "{out}"]
    VERIFY = ["verify", "--input", "{file}", "--bound"]
    # More nesting than the JSON parser's recursion limit allows.
    TOO_DEEP = "[" * 100_000

    HUGE_INTEGER_MODEL = (
        '{"layers": [{"state_diag": [[1%s, 0]], "input_matrix": [[[1, 0]]]}], '
        '"read_out": [[1, 0]]}' % ("0" * 310)
    )

    IMPULSE = ["train-impulse", "--config", "{file}", "--output", "{out}"]
    SWEEP = ["teacher-student", "--config", "{file}", "--output", "{out}"]
    IMPULSE_CONFIG = {"shift": 1, "horizon": 12, "effective_width": 3, "depths": [1, 2],
                      "train": {"steps": 2}}
    SWEEP_CONFIG = {"seed": 5, "depths": [1, 2], "width": 3, "norm_scale": 4.0}

    @pytest.mark.parametrize(
        "text, argv",
        [
            ("[1, 2]", IMPULSE),
            (HUGE_INTEGER_MODEL, ["kernel", "--input", "{file}", "--output", "{out}"]),
            (None, ["plan-depth", "--c1", "inf", "--c2", "10", "--modes", "5"]),
            ('{"train": {"steps": "abc"}}', IMPULSE),
            (config_text(IMPULSE_CONFIG, real_params="false"), IMPULSE),
            (config_text(IMPULSE_CONFIG, depths=[True]), IMPULSE),
            (config_text(IMPULSE_CONFIG, depths=[0]), IMPULSE),
            (config_text(IMPULSE_CONFIG, depths="1"), IMPULSE),
            (config_text(IMPULSE_CONFIG, effective_width=3.0), IMPULSE),
            (config_text(SWEEP_CONFIG, width=3.5), SWEEP),
            (config_text(SWEEP_CONFIG, depths=[2.0]), SWEEP),
            (config_text(SWEEP_CONFIG, norm_scale="2"), SWEEP),
            (config_text(IMPULSE_CONFIG, shift=5.5, horizon=64), IMPULSE),
            (config_text(IMPULSE_CONFIG, horizon="16"), IMPULSE),
            (config_text(SWEEP_CONFIG, seed=1.5), SWEEP),
            (ONE_MODE_MODEL, VERIFY + ["nan"]),
            (ONE_MODE_MODEL, VERIFY + ["inf"]),
            (TOO_DEEP, KERNEL),
            (TOO_DEEP, IMPULSE),
            (TOO_DEEP, SWEEP),
            (ONE_MODE_MODEL, ["factorize", "--input", "{file}", "--output", "{out}",
                              "--depth", "10000000"]),
        ],
        ids=[
            "config-list", "integer-beyond-float", "infinite-c1", "string-steps",
            "string-real-params", "bool-depth", "zero-depth", "string-depths",
            "float-effective-width", "fractional-width", "float-depth", "string-norm-scale",
            "fractional-shift", "string-horizon", "fractional-seed", "nan-bound",
            "infinite-bound", "too-deep-model", "too-deep-impulse-config",
            "too-deep-sweep-config", "overflowing-depth",
        ],
    )
    def test_refused_input_exits_2_with_one_line(self, tmp_path, capsys, text, argv):
        path = tmp_path / "input.json"
        if text is not None:
            path.write_text(text)
        argv = [a.format(file=path, out=tmp_path / "out") for a in argv]
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    # Every entry is finite, but the weight of mode 1 is 1e400.
    OVERFLOWING_WEIGHT = (
        '{"layers": [{"state_diag": [[0.5, 0], [0.25, 0], [0.75, 0]], '
        '"input_matrix": [[[1e200, 0]], [[1, 0]], [[1, 0]]]}], '
        '"read_out": [[1e200, 0], [1, 0], [1, 0]]}'
    )
    FACTORIZE = ["factorize", "--input", "{file}", "--output", "{out}.json", "--depth"]
    EXPANSION_OVERFLOW = "expansion coefficient of layer 1 index 1 overflowed to (inf+0j)"
    WEIGHT_OVERFLOW = "teacher weight 1 overflowed to (inf+0j)"

    @pytest.mark.parametrize(
        "text, argv, message",
        [
            (OVERFLOWING_WEIGHT, ["expand", "--input", "{file}", "--output", "{out}.json"],
             EXPANSION_OVERFLOW),
            (OVERFLOWING_WEIGHT, ["expand", "--input", "{file}", "--output", "{out}.csv"],
             EXPANSION_OVERFLOW),
            (OVERFLOWING_WEIGHT, FACTORIZE + ["1"], WEIGHT_OVERFLOW),
            (OVERFLOWING_WEIGHT, FACTORIZE + ["2"], WEIGHT_OVERFLOW),
            (config_text(IMPULSE_CONFIG, depths=[2, 3],
                         train={"learning_rate": 1e150, "steps": 5}),
             IMPULSE, "loss overflowed to nan at step 1"),
        ],
        ids=["expand-json", "expand-csv", "factorize-depth-1", "factorize-depth-2",
             "train-impulse"],
    )
    def test_overflow_exits_3_with_one_line_and_no_file(
        self, tmp_path, capsys, text, argv, message
    ):
        path = tmp_path / "input.json"
        path.write_text(text)
        argv = [a.format(file=path, out=tmp_path / "out") for a in argv]
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert cli.run(argv) == 3
        assert [str(w.message) for w in seen] == []
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == ["input.json"]

    def test_usage_error(self, capsys):
        assert cli.run([]) == 2
        assert cli.run(["no-such-command"]) == 2
        capsys.readouterr()

    def test_one_parser_answers_as_a_fresh_one(self, tmp_path, capsys):
        model_path = write_model(random_model(d.seeded_rng(56), 2, 2), tmp_path / "model.json")
        kernel_csv = tmp_path / "k.csv"
        argvs = [
            ["no-such-command"],
            ["plan-depth", "--c1", "-4", "--c2", "10", "--modes", "5"],
            ["plan-depth", "--c1", "4", "--c2", "10", "--modes", "5"],
            ["kernel", "--input", model_path, "--output", str(kernel_csv)],
        ]

        def outcomes(fresh_parser):
            seen = []
            for argv in argvs:
                if fresh_parser:
                    cli._parser.cache_clear()
                code = cli.run(argv)
                out, err = capsys.readouterr()
                seen.append((code, out, err, kernel_csv.read_text() if argv[0] == "kernel" else ""))
            return seen

        fresh = outcomes(True)
        assert [code for code, *_ in fresh] == [2, 2, 0, 0]
        assert outcomes(False) == fresh
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli._parser()
        assert cli.build_parser().parse_args(argvs[2]).modes == 5


class TestInstalledEntryPoint:
    """The declared ``deepssm`` console script runs the CLI as its own process.

    The ``[project.scripts]`` target is run through the same wrapper an
    installer writes, so the check holds from a source checkout too; an
    installed ``deepssm`` on ``PATH`` is run as well where there is one.
    """

    PLAN_ARGV = ["plan-depth", "--c1", "4", "--c2", "10", "--modes", "5"]
    REFUSED_ARGV = ["plan-depth", "--c1", "-4", "--c2", "10", "--modes", "5"]

    def check_command(self, command, cwd=None, env=None):
        proc = subprocess.run(
            command + self.PLAN_ARGV, capture_output=True, text=True, cwd=cwd, env=env
        )
        assert proc.returncode == 0, proc.stderr
        plan = json.loads(proc.stdout)
        assert plan == {"depth": 1, "width": 6, "predicted_bound": 8.0}
        refused = subprocess.run(
            command + self.REFUSED_ARGV, capture_output=True, text=True, cwd=cwd, env=env
        )
        assert refused.returncode == 2, refused.stderr

    def test_console_script_runs(self, tmp_path):
        installed = shutil.which("deepssm")
        if installed:
            self.check_command([installed])

        entry = declared_console_script("deepssm")
        assert callable(entry.load())
        wrapper = CONSOLE_SCRIPT_WRAPPER.format(
            module=entry.module, import_name=entry.attr.split(".")[0], func=entry.attr
        )
        self.check_command([sys.executable, "-c", wrapper], tmp_path, source_env())


class TestImportPath:
    """The package imports numpy alone; scipy is loaded only by ``reduce_normal``."""

    @staticmethod
    def run_python(code, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(code)],
            capture_output=True, text=True, cwd=tmp_path, env=source_env(),
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_cli_import_loads_no_scipy(self, tmp_path):
        out = self.run_python(
            """
            import sys
            import deepssm.cli
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
            """,
            tmp_path,
        )
        assert out == "[]\n"

    def test_verbs_run_with_scipy_blocked(self, tmp_path):
        write_model(random_model(d.seeded_rng(60), 3, 2), tmp_path / "model.json")
        write_model(d.sample_teacher(7, 2.0, d.seeded_rng(61)).as_model(), tmp_path / "teacher.json")
        (tmp_path / "impulse.json").write_text(json.dumps(TestErrorPaths.IMPULSE_CONFIG))
        (tmp_path / "sweep.json").write_text(json.dumps(TestErrorPaths.SWEEP_CONFIG))
        out = self.run_python(
            """
            import sys

            class NoScipy:
                def find_spec(self, name, path=None, target=None):
                    if name.split(".")[0] == "scipy":
                        raise ImportError(f"{name} is blocked")

            sys.meta_path.insert(0, NoScipy())
            from deepssm import cli

            verbs = [
                ["kernel", "--input", "model.json", "--output", "sim.csv"],
                ["kernel", "--input", "model.json", "--output", "closed.csv",
                 "--method", "closed"],
                ["expand", "--input", "model.json", "--output", "table.csv"],
                ["factorize", "--input", "teacher.json", "--output", "student.json",
                 "--depth", "3"],
                ["train-impulse", "--config", "impulse.json", "--output", "impulse.csv"],
                ["teacher-student", "--config", "sweep.json", "--output", "sweep.csv"],
            ]
            print([cli.run(argv) for argv in verbs])
            try:
                import scipy.linalg
            except ImportError:
                pass
            else:
                raise SystemExit("scipy was not blocked")
            """,
            tmp_path,
        )
        assert out.splitlines()[-1] == "[0, 0, 0, 0, 0, 0]"
