"""Command-line interface.

Subcommands: ``sweep`` runs an experiment from a JSON config, ``figure``
runs one of the built-in sweeps, ``verify-lemma`` stress-tests the
eigen-optimal jamming design, and ``mse`` evaluates a single scenario and
prints one CSV row. Exit codes: 0 on success, 2 for usage/config errors,
1 for compute or I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .experiments import (
    _AXIS_FIELDS,
    _SCALAR_OPTIONAL,
    _SCALAR_REQUIRED,
    CSV_HEADER,
    ConfigError,
    FIGURE_SEED,
    JAMMING_CHOICES,
    ExperimentSpec,
    Scenario,
    _build_pilots,
    _check_keys,
    _covariances,
    _evaluate_scenario,
    _training_config_from_dict,
    figure_spec,
    row_fields,
    run_sweep,
    spec_from_dict,
    write_results,
)
from .jammer import verify_lemma
from .linalg import _count, _single_blas_thread
from .training import ESTIMATOR_MODES, PILOT_DESIGNS, TrainingConfig

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fddjam",
        description=(
            "Channel-training MSE for a massive-MIMO downlink under a "
            "multi-antenna jammer"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run an experiment sweep from a JSON config")
    p_sweep.add_argument("--config", required=True, type=Path, help="JSON config file")
    p_sweep.add_argument("--out", required=True, type=Path, help="output directory")

    p_fig = sub.add_parser("figure", help="run a built-in sweep (1, 2 or 3)")
    p_fig.add_argument("figure", type=int, choices=(1, 2, 3))
    p_fig.add_argument("--out", required=True, type=Path, help="output directory")
    p_fig.add_argument("--trials", type=int, default=0,
                       help="Monte-Carlo trials per point (0 = closed form only)")
    p_fig.add_argument("--seed", type=int, default=FIGURE_SEED)

    p_ver = sub.add_parser(
        "verify-lemma",
        help="stress-test eigen-optimal jamming against random candidates",
    )
    p_ver.add_argument("--config", required=True, type=Path, help="JSON config file")

    p_mse = sub.add_parser("mse", help="evaluate one scenario, print one CSV row")
    p_mse.add_argument("--M", type=int, required=True, help="BS antennas")
    p_mse.add_argument("--N", type=int, default=None,
                       help="jammer antennas (default: same as --M)")
    p_mse.add_argument("--L", type=int, required=True, help="training length")
    p_mse.add_argument("--r", type=float, required=True,
                       help="BS channel correlation coefficient")
    p_mse.add_argument("--rg", type=float, default=None,
                       help="jammer channel correlation (default: same as --r)")
    p_mse.add_argument("--pb-db", type=float, required=True,
                       help="BS power in dB relative to the noise variance; join a "
                            "value such as -inf or -1e1 with '=': --pb-db=-1e1")
    p_mse.add_argument("--pj-db", type=float, default=None,
                       help="jammer power in dB (default: same as --pb-db); "
                            "zero power is --pj-db=-inf, joined with '='")
    p_mse.add_argument("--pilot", choices=PILOT_DESIGNS, default="optimal")
    p_mse.add_argument("--jamming", choices=JAMMING_CHOICES, default="silent")
    p_mse.add_argument("--estimator", choices=ESTIMATOR_MODES, default="jammer-aware")
    p_mse.add_argument("--trials", type=int, default=0,
                       help="Monte-Carlo trials (0 = closed form only)")
    p_mse.add_argument("--seed", type=int, default=0)
    return parser


def _load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write_sweep(spec: ExperimentSpec, out_dir: Path, stem: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = run_sweep(spec)
    csv_path = out_dir / f"{stem}.csv"
    write_results(rows, csv_path, spec=spec)
    print(f"wrote {len(rows)} rows to {csv_path}")


def _cmd_sweep(args) -> int:
    spec = spec_from_dict(_load_json(args.config))
    _write_sweep(spec, args.out, args.config.stem)
    return 0


def _cmd_figure(args) -> int:
    spec = figure_spec(
        args.figure,
        monte_carlo_trials=_count(args.trials, "--trials"),
        seed=_count(args.seed, "--seed"),
    )
    _write_sweep(spec, args.out, f"figure{args.figure}")
    return 0


_VERIFY_REQUIRED = _SCALAR_REQUIRED | set(_AXIS_FIELDS.values())
_VERIFY_OPTIONAL = _SCALAR_OPTIONAL | {"pilot_design", "num_random", "seed"}


def _cmd_verify_lemma(args) -> int:
    data = _load_json(args.config)
    _check_keys(data, _VERIFY_REQUIRED, _VERIFY_OPTIONAL)
    cfg = _training_config_from_dict(data)
    pilot_design = data.get("pilot_design", "optimal")
    if pilot_design not in PILOT_DESIGNS:
        raise ConfigError(
            f"pilot_design must be one of {PILOT_DESIGNS}, got {pilot_design!r}"
        )
    seed = _count(data.get("seed", 0), "seed")

    bs_cov, jam_cov = _covariances(cfg)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pilots = _build_pilots(pilot_design, bs_cov, cfg.pilot_length, rng)
    verdict = verify_lemma(bs_cov, jam_cov, pilots, cfg, data.get("num_random", 500), rng)

    def fmt(value):
        return "n/a" if value is None else format(value, ".12g")

    print(f"eigen-optimal objective: {fmt(verdict.optimal_objective)}")
    print(f"eigen-optimal MSE:       {fmt(verdict.optimal_mse)}")
    print(f"best random objective:   {fmt(verdict.best_random_objective)}")
    print(f"best random MSE:         {fmt(verdict.best_random_mse)}")
    print(f"random samples:          {verdict.num_samples}")
    print(f"MSE counterexample:      {'yes' if verdict.mse_counterexample_found else 'no'}")
    return 0


def _cmd_mse(args) -> int:
    cfg = TrainingConfig(
        num_bs_antennas=args.M,
        num_jammer_antennas=args.N if args.N is not None else args.M,
        pilot_length=args.L,
        bs_power_db=args.pb_db,
        jammer_power_db=args.pj_db if args.pj_db is not None else args.pb_db,
        noise_variance=1.0,
        bs_correlation=args.r,
        jammer_correlation=args.rg,
    )
    trials = _count(args.trials, "--trials")
    seed = _count(args.seed, "--seed")
    row = _evaluate_scenario(
        cfg,
        functools.partial(_covariances, cfg),
        Scenario(args.pilot, args.jamming, args.estimator),
        trials,
        functools.partial(np.random.default_rng, np.random.SeedSequence(seed)),
        cfg.pilot_length,
    )
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerow(row_fields(row))
    return 0


_COMMANDS = {
    "sweep": _cmd_sweep,
    "figure": _cmd_figure,
    "verify-lemma": _cmd_verify_lemma,
    "mse": _cmd_mse,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _single_blas_thread():
            return _COMMANDS[args.command](args)
    # LinAlgError subclasses ValueError, so compute errors are caught first;
    # ValueError still covers ConfigError and JSONDecodeError.
    except (ArithmeticError, np.linalg.LinAlgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
