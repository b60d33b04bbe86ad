"""Command-line front end.

One verb per library entry point; every command is deterministic given
``--seed``.  Exit codes: 0 success, 1 verification failure, 2 malformed
input, 3 numerical failure (degenerate or ill-conditioned data).
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
import warnings
from dataclasses import replace

from .convert import expand_coefficients, factorize, minimal_depth, collapse
from .core import (
    DEFAULT_HORIZON,
    ShallowRealization,
    _read_json,
    _write_json,
    atomic_write_text,
    check_membership,
    kernel_by_simulation,
    kernel_closed_form,
    load_model,
    save_dense,
    save_kernel_csv,
    save_model,
)
from .errors import DeepSsmError, InputError, ShapeMismatch, _checked
from .fit import (
    TrainConfig,
    depth_sweep_impulse,
    save_records_csv,
    teacher_student_experiment,
)

__all__ = ["build_parser", "run", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deepssm",
        description="Construct, simulate, convert, and certify deep linear "
        "state-space models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kernel = sub.add_parser("kernel", help="write a model's kernel taps as CSV")
    kernel.add_argument("--input", required=True, help="model JSON")
    kernel.add_argument("--output", required=True, help="kernel CSV")
    kernel.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    kernel.add_argument("--method", choices=("sim", "closed"), default="sim")
    kernel.add_argument("--strict-stability", action="store_true")

    fold = sub.add_parser("collapse", help="fold a deep model into one dense layer")
    fold.add_argument("--input", required=True, help="model JSON")
    fold.add_argument("--output", required=True, help="dense one-layer JSON")

    fac = sub.add_parser(
        "factorize", help="rewrite a one-layer model as a norm-bounded deep stack"
    )
    fac.add_argument("--input", required=True, help="one-layer model JSON")
    fac.add_argument("--output", required=True, help="student model JSON")
    fac.add_argument("--depth", type=int, required=True)
    fac.add_argument("--width", type=int, default=None)
    fac.add_argument(
        "--certificate", default=None, help="norm certificate JSON (default: <output>.cert.json)"
    )
    fac.add_argument("--pad", action="store_true", help="pad with inert modes if needed")
    fac.add_argument("--allow-perturb", action="store_true")

    exp = sub.add_parser("expand", help="write the exponential-sum coefficients")
    exp.add_argument("--input", required=True, help="model JSON")
    exp.add_argument("--output", required=True, help=".csv or .json table")

    ver = sub.add_parser("verify", help="check entrywise norm-class membership")
    ver.add_argument("--input", required=True, help="model JSON")
    ver.add_argument("--bound", type=float, required=True)
    ver.add_argument("--output", default=None, help="report JSON (default: stdout)")

    plan = sub.add_parser("plan-depth", help="smallest depth meeting a norm budget")
    plan.add_argument("--c1", type=float, required=True, help="teacher parameter scale")
    plan.add_argument("--c2", type=float, required=True, help="student norm budget")
    plan.add_argument("--modes", type=int, required=True, help="teacher mode count")
    plan.add_argument("--output", default=None, help="plan JSON (default: stdout)")

    imp = sub.add_parser("train-impulse", help="depth sweep fitting a shifted impulse")
    imp.add_argument("--config", required=True, help="experiment config JSON")
    imp.add_argument("--output", required=True, help="records CSV")
    imp.add_argument("--seed", type=int, default=None, help="override the config seed")
    imp.add_argument("--real-params", action="store_true")

    tst = sub.add_parser(
        "teacher-student", help="factorize random teachers across depths"
    )
    tst.add_argument("--config", required=True, help="experiment config JSON")
    tst.add_argument("--output", required=True, help="records CSV")
    tst.add_argument("--seed", type=int, default=None, help="override the config seed")
    tst.add_argument("--real-params", action="store_true")

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call: building it costs more than most verbs."""
    return build_parser()


def _load_config(path) -> dict:
    config = _read_json(path)
    if not isinstance(config, dict):
        raise ShapeMismatch("config must be a JSON object")
    return config


def _value(config: dict, key: str, kind: type, default=None):
    """``config[key]`` checked to be of ``kind``; required unless a default is given."""
    if key not in config:
        if default is None:
            raise ShapeMismatch(f"config is missing required key '{key}'")
        return default
    return _checked(key, config[key], kind)


def _cmd_kernel(args) -> int:
    model = load_model(args.input)
    method = kernel_by_simulation if args.method == "sim" else kernel_closed_form
    kernel = method(model, args.horizon, strict_stability=args.strict_stability)
    save_kernel_csv(kernel, args.output)
    return 0


def _cmd_collapse(args) -> int:
    save_dense(collapse(load_model(args.input)), args.output)
    return 0


def _cmd_factorize(args) -> int:
    teacher = ShallowRealization.from_model(load_model(args.input))
    student, certificate = factorize(
        teacher,
        args.depth,
        width=args.width,
        pad=args.pad,
        allow_perturb=args.allow_perturb,
    )
    save_model(student, args.output)
    cert_path = args.certificate
    if cert_path is None:
        stem, _ = os.path.splitext(args.output)
        cert_path = stem + ".cert.json"
    _write_json(certificate, cert_path)
    return 0


def _cmd_expand(args) -> int:
    table = expand_coefficients(load_model(args.input))
    if args.output.endswith(".json"):
        _write_json(table.to_json_dict(), args.output)
    else:
        atomic_write_text(args.output, table.csv_text())
    return 0


def _cmd_verify(args) -> int:
    report = check_membership(load_model(args.input), args.bound)
    _write_json(report.to_json_dict(), args.output)
    return 0 if report.is_member else 1


def _cmd_plan_depth(args) -> int:
    plan = minimal_depth(args.c1, args.c2, args.modes)
    _write_json(plan, args.output)
    return 0


def _cmd_train_impulse(args) -> int:
    config = _load_config(args.config)
    train_config = TrainConfig.from_json_dict(config.get("train", {}))
    if args.seed is not None:
        train_config = replace(train_config, seed=args.seed)
    records = depth_sweep_impulse(
        _value(config, "shift", int),
        _value(config, "horizon", int, DEFAULT_HORIZON),
        _value(config, "effective_width", int),
        _value(config, "depths", list),
        train_config,
        real=_value(config, "real_params", bool, False) or args.real_params,
    )
    save_records_csv(records, args.output)
    return 0


def _cmd_teacher_student(args) -> int:
    config = _load_config(args.config)
    seed = args.seed if args.seed is not None else _value(config, "seed", int)
    records = teacher_student_experiment(
        seed,
        _value(config, "depths", list),
        _value(config, "width", int),
        _value(config, "norm_scale", float),
        real=_value(config, "real_params", bool, False) or args.real_params,
        horizon=_value(config, "horizon", int, DEFAULT_HORIZON),
    )
    save_records_csv(records, args.output)
    return 0


_HANDLERS = {
    "kernel": _cmd_kernel,
    "collapse": _cmd_collapse,
    "factorize": _cmd_factorize,
    "expand": _cmd_expand,
    "verify": _cmd_verify,
    "plan-depth": _cmd_plan_depth,
    "train-impulse": _cmd_train_impulse,
    "teacher-student": _cmd_teacher_student,
}


def run(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DeepSsmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    with warnings.catch_warnings():
        # One line per warning, like the error lines, without the source path.
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        code = run()
    sys.exit(code)


if __name__ == "__main__":
    main()
