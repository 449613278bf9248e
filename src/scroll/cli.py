"""Command-line entry points.

Exit codes: 0 on success, 1 on validation errors (bad arguments, bad
config), 2 on runtime errors (missing or malformed data files, failed
computations).
"""

from __future__ import annotations

import argparse
import json
import sys

from .adapt import save_predictor, write_training_curve
from .embeddings import SyntheticSpec, save_embeddings, synthesize
from .errors import ConfigError, ScrollError
from .harness import (
    ExperimentConfig,
    buffer_study,
    execute,
    robustness_sweep,
    write_study_summary,
)
from .learners import save_state
from .replay import save_buffer, write_moment_csv


class _ArgumentError(ConfigError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_dict(_load_json(args.config))
    outcome = execute(cfg)
    report = outcome.report
    print(f"stage-one accuracy: {report.accuracy['stage_one']:.4f}")
    print(f"adapted accuracy:   {report.accuracy['adapted']:.4f}")
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.to_json())
        print(f"report written to {args.report}")
    if args.checkpoint:
        save_state(outcome.state, args.checkpoint)
        if outcome.buffer is not None:
            save_buffer(outcome.buffer, args.checkpoint + ".buffer")
        save_predictor(outcome.predictor, args.checkpoint + ".predictor")
        if outcome.predictor.curve:
            write_training_curve(outcome.predictor.curve, args.checkpoint + ".curve")
        print(f"checkpoint written to {args.checkpoint}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = ExperimentConfig.from_dict(_load_json(args.config))
    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    report = robustness_sweep(cfg, args.schedules, kinds)
    for spec, one, star in zip(
        report.schedules, report.stage_one_accuracies, report.adapted_accuracies
    ):
        print(f"{spec['kind']:<12} seed={spec['seed']:<22} "
              f"stage_one={one:.4f} adapted={star:.4f}")
    print(f"stage-one spread:    {report.stage_one_spread:.6f}")
    print(f"adapted spread:      {report.adapted_spread:.6f}")
    print(f"state max deviation: {report.state_max_deviation:.3e}")
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.to_json())
        print(f"report written to {args.report}")
    return 0


def _cmd_buffer_study(args) -> int:
    cfg = ExperimentConfig.from_dict(_load_json(args.config))
    rows, summary = buffer_study(cfg, args.shuffles)
    write_study_summary(summary, args.out)
    print(f"summary written to {args.out}")
    if args.raw:
        write_moment_csv(rows, args.raw)
        print(f"raw distances written to {args.raw}")
    for row in summary:
        print(
            f"b1={row['b1']:<4} b2={row['b2']:<4} {row['strategy']:<10} "
            f"mean={row['mean_distance']:.6f} var={row['var_distance']:.3e}"
        )
    return 0


def _cmd_synth(args) -> int:
    spec = SyntheticSpec.from_dict(_load_json(args.spec))
    train, test = synthesize(spec)
    train_path = f"{args.out}_train.bin"
    test_path = f"{args.out}_test.bin"
    save_embeddings(train, train_path, "binary")
    save_embeddings(test, test_path, "binary")
    print(f"train split ({train.n_samples} x {train.dim}) written to {train_path}")
    print(f"test split  ({test.n_samples} x {test.dim}) written to {test_path}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="scroll", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="experiment config JSON")
    p_run.add_argument("--report", help="write the run report JSON here")
    p_run.add_argument(
        "--checkpoint", help="write classifier/buffer/predictor checkpoints and the training curve"
    )
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="rerun one config under many schedules")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--schedules", type=int, required=True)
    p_sweep.add_argument(
        "--kinds", default="split,gaussian,random",
        help="comma list drawn from: split, gaussian, random, single",
    )
    p_sweep.add_argument("--report", help="write the sweep report JSON here")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_study = sub.add_parser("buffer-study", help="buffering strategy comparison")
    p_study.add_argument("--config", required=True)
    p_study.add_argument("--shuffles", type=int, required=True)
    p_study.add_argument("--out", required=True, help="summary CSV path")
    p_study.add_argument("--raw", help="per-class distance CSV path")
    p_study.set_defaults(func=_cmd_buffer_study)

    p_synth = sub.add_parser("synth", help="generate synthetic embedding files")
    p_synth.add_argument("--spec", required=True, help="synthetic spec JSON")
    p_synth.add_argument("--out", required=True, help="output path prefix")
    p_synth.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ScrollError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
