"""Experiment orchestration: sweeps, result persistence, built-in setups.

A sweep evaluates a scenario matrix (pilot design x jamming strategy x
estimator mode) along one axis, either the training length or the BS array
size. Results go to a CSV file with a JSON metadata sidecar carrying the
full experiment definition and seed, so any result file can be regenerated
exactly from its sidecar.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ._version import __version__
from .channel import ChannelCovariance, exponential_covariance
from .jammer import optimal_jamming, single_shot_jamming
from .training import (
    ESTIMATOR_MODES,
    PILOT_DESIGNS,
    TrainingConfig,
    UnitaryBlock,
    empirical_mse,
    optimal_pilots,
    random_unitary_pilots,
    scenario_closed_form_mse,
    worst_case_pilots,
)

__all__ = [
    "CSV_HEADER",
    "ConfigError",
    "ExperimentSpec",
    "FIGURE_SEED",
    "JAMMING_CHOICES",
    "ResultRow",
    "SWEEP_AXES",
    "Scenario",
    "WORKERS_ENV_VAR",
    "config_for_point",
    "figure_spec",
    "load_metadata_spec",
    "metadata_path",
    "read_results",
    "resolve_workers",
    "run_sweep",
    "spec_from_dict",
    "spec_to_dict",
    "write_results",
]

SWEEP_AXES = ("pilot_length", "bs_antennas")
JAMMING_CHOICES = ("silent", "single-shot", "eigen-optimal")
CSV_HEADER = ("axis", "pilot_design", "jamming", "estimator_mode",
              "mse_closed", "mse_empirical", "std_err")

# Environment variable holding the parallelism degree for sweeps.
WORKERS_ENV_VAR = "FDDJAM_WORKERS"

# Seed baked into the built-in figure sweeps (recorded in their sidecars).
FIGURE_SEED = 1


class ConfigError(ValueError):
    """Invalid experiment configuration: bad keys, values or dimensions."""


@dataclass(frozen=True)
class Scenario:
    """One pilot-design / jamming-strategy / estimator-mode combination."""

    pilot_design: str
    jamming: str
    estimator_mode: str = "jammer-aware"

    def __post_init__(self) -> None:
        if self.pilot_design not in PILOT_DESIGNS:
            raise ConfigError(
                f"unknown pilot design {self.pilot_design!r}; "
                f"expected one of {PILOT_DESIGNS}"
            )
        if self.jamming not in JAMMING_CHOICES:
            raise ConfigError(
                f"unknown jamming strategy {self.jamming!r}; "
                f"expected one of {JAMMING_CHOICES}"
            )
        if self.estimator_mode not in ESTIMATOR_MODES:
            raise ConfigError(
                f"unknown estimator mode {self.estimator_mode!r}; "
                f"expected one of {ESTIMATOR_MODES}"
            )


@dataclass(frozen=True)
class ResultRow:
    """One evaluated point of a sweep.

    ``empirical_mse`` and ``empirical_std_err`` are present exactly when the
    sweep ran Monte-Carlo trials.
    """

    axis_value: int
    pilot_design: str
    jamming: str
    estimator_mode: str
    closed_form_mse: float
    empirical_mse: float | None = None
    empirical_std_err: float | None = None


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete sweep definition: base scalars, axis, scenarios, trials, seed.

    The swept field of ``base`` (``pilot_length`` or ``num_bs_antennas``) is
    replaced by each axis value in turn; every (axis value, scenario) pair is
    checked for feasibility up front.
    """

    base: TrainingConfig
    sweep_axis: str
    axis_values: tuple[int, ...]
    scenarios: tuple[Scenario, ...]
    monte_carlo_trials: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sweep_axis not in SWEEP_AXES:
            raise ConfigError(
                f"unknown sweep axis {self.sweep_axis!r}; expected one of {SWEEP_AXES}"
            )
        values = tuple(int(v) for v in self.axis_values)
        if not values:
            raise ConfigError("axis_values must not be empty")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError(f"axis_values must be strictly increasing, got {values}")
        scenarios = tuple(self.scenarios)
        if not scenarios:
            raise ConfigError("scenarios must not be empty")
        for entry in scenarios:
            if not isinstance(entry, Scenario):
                raise ConfigError(f"scenarios must contain Scenario values, got {entry!r}")
        if int(self.monte_carlo_trials) != self.monte_carlo_trials or self.monte_carlo_trials < 0:
            raise ConfigError(
                f"monte_carlo_trials must be a non-negative integer, "
                f"got {self.monte_carlo_trials!r}"
            )
        if int(self.seed) != self.seed or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "axis_values", values)
        object.__setattr__(self, "scenarios", scenarios)
        object.__setattr__(self, "monte_carlo_trials", int(self.monte_carlo_trials))
        object.__setattr__(self, "seed", int(self.seed))
        for value in values:
            try:
                cfg = config_for_point(self.base, self.sweep_axis, value)
            except ValueError as exc:
                raise ConfigError(f"axis value {value}: {exc}") from exc
            for scenario in scenarios:
                if scenario.jamming != "silent" and cfg.pilot_length > cfg.num_jammer_antennas:
                    raise ConfigError(
                        f"axis value {value}: jamming {scenario.jamming!r} needs at "
                        f"least {cfg.pilot_length} jammer antennas, "
                        f"have {cfg.num_jammer_antennas}"
                    )


def config_for_point(base: TrainingConfig, sweep_axis: str, axis_value: int) -> TrainingConfig:
    """Training configuration at one point of the sweep axis."""
    if sweep_axis == "pilot_length":
        return dataclasses.replace(base, pilot_length=int(axis_value))
    if sweep_axis == "bs_antennas":
        return dataclasses.replace(base, num_bs_antennas=int(axis_value))
    raise ConfigError(f"unknown sweep axis {sweep_axis!r}; expected one of {SWEEP_AXES}")


def resolve_workers(workers: int | None = None, *, max_useful: int | None = None) -> int:
    """Parallelism degree: explicit argument, else FDDJAM_WORKERS, else cores."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR)
        if env is not None and env.strip():
            try:
                workers = int(env)
            except ValueError as exc:
                raise ConfigError(
                    f"{WORKERS_ENV_VAR} must be an integer, got {env!r}"
                ) from exc
        else:
            workers = os.cpu_count() or 1
    workers = max(1, int(workers))
    if max_useful is not None:
        workers = min(workers, max(1, max_useful))
    return workers


def _point_rng(seed: int, point_index: int) -> np.random.Generator:
    # One derived stream per (axis value, scenario) point: results cannot
    # depend on scheduling order or on the parallelism degree.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(point_index,)))


def _build_pilots(
    design: str, bs_cov: ChannelCovariance, pilot_length: int, rng: np.random.Generator
) -> UnitaryBlock:
    if design == "optimal":
        return optimal_pilots(bs_cov, pilot_length)
    if design == "worst-case":
        return worst_case_pilots(bs_cov, pilot_length)
    return random_unitary_pilots(bs_cov.size, pilot_length, rng)


def _build_jamming(
    strategy: str, jam_cov: ChannelCovariance, cfg: TrainingConfig
) -> UnitaryBlock | None:
    if strategy == "silent":
        return None
    if strategy == "single-shot":
        return single_shot_jamming(cfg.num_jammer_antennas, cfg.pilot_length)
    return optimal_jamming(jam_cov, cfg.pilot_length)


def _evaluate_axis_value(spec: ExperimentSpec, axis_index: int) -> list[ResultRow]:
    value = spec.axis_values[axis_index]
    cfg = config_for_point(spec.base, spec.sweep_axis, value)
    bs_cov = exponential_covariance(cfg.num_bs_antennas, cfg.bs_correlation)
    jam_cov = exponential_covariance(cfg.num_jammer_antennas, cfg.jammer_correlation)
    rows = []
    for scenario_index, scenario in enumerate(spec.scenarios):
        point_index = axis_index * len(spec.scenarios) + scenario_index
        rng = _point_rng(spec.seed, point_index)
        pilots = _build_pilots(scenario.pilot_design, bs_cov, cfg.pilot_length, rng)
        jamming = _build_jamming(scenario.jamming, jam_cov, cfg)
        closed = scenario_closed_form_mse(
            pilots, jamming, bs_cov, jam_cov, cfg, scenario.estimator_mode
        )
        mse_mc = std_err = None
        if spec.monte_carlo_trials > 0:
            mc = empirical_mse(
                pilots, jamming, bs_cov, jam_cov, cfg,
                trials=spec.monte_carlo_trials,
                rng=rng,
                estimator_mode=scenario.estimator_mode,
            )
            mse_mc, std_err = mc.mean, mc.std_error
        rows.append(
            ResultRow(
                axis_value=value,
                pilot_design=scenario.pilot_design,
                jamming=scenario.jamming,
                estimator_mode=scenario.estimator_mode,
                closed_form_mse=closed,
                empirical_mse=mse_mc,
                empirical_std_err=std_err,
            )
        )
    return rows


def run_sweep(spec: ExperimentSpec, *, workers: int | None = None) -> list[ResultRow]:
    """Evaluate every (axis value, scenario) point of an experiment.

    Rows come back ordered by (axis value, scenario index), one row per
    point. Each point consumes a random stream derived from the spec seed
    and the point's index, and axis values may be evaluated across a process
    pool (``workers`` argument, else the FDDJAM_WORKERS environment
    variable, else the machine core count), so the output is identical
    regardless of the parallelism degree.
    """
    n = len(spec.axis_values)
    workers = resolve_workers(workers, max_useful=n)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_evaluate_axis_value, [spec] * n, range(n)))
    else:
        chunks = [_evaluate_axis_value(spec, i) for i in range(n)]
    return [row for chunk in chunks for row in chunk]


def _format_float(value: float | None) -> str:
    return "" if value is None else format(float(value), ".12g")


def row_fields(row: ResultRow) -> list[str]:
    """CSV field strings for one row (floats at 12 significant digits)."""
    return [
        str(int(row.axis_value)),
        row.pilot_design,
        row.jamming,
        row.estimator_mode,
        _format_float(row.closed_form_mse),
        _format_float(row.empirical_mse),
        _format_float(row.empirical_std_err),
    ]


def metadata_path(csv_path) -> Path:
    """Sidecar path next to a results file: ``results.csv`` -> ``results.meta.json``."""
    return Path(csv_path).with_suffix(".meta.json")


def write_results(rows, path, spec: ExperimentSpec | None = None) -> None:
    """Write rows as CSV; with ``spec`` given, also write the metadata sidecar.

    Floats are serialized with 12 significant digits. The sidecar records the
    full experiment definition, seed and artifact version, so the CSV can be
    regenerated exactly (see ``load_metadata_spec``).
    """
    path = Path(path)
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            for row in rows:
                writer.writerow(row_fields(row))
    except OSError as exc:
        raise OSError(f"failed to write results to {path}: {exc}") from exc
    if spec is not None:
        doc = {
            "artifact": "fddjam",
            "version": __version__,
            "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "assumptions": [
                "deterministic exponential covariances (no averaging over covariance draws)",
                "jammer_correlation defaults to bs_correlation when not set",
            ],
            "spec": spec_to_dict(spec),
        }
        meta = metadata_path(path)
        try:
            with open(meta, "w") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise OSError(f"failed to write metadata to {meta}: {exc}") from exc


def _parse_float(text: str) -> float | None:
    return None if text == "" else float(text)


def read_results(path) -> list[ResultRow]:
    """Read a results CSV written by ``write_results``."""
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != list(CSV_HEADER):
                raise ConfigError(f"unexpected CSV header in {path}: {header}")
            rows = []
            for record in reader:
                if len(record) != len(CSV_HEADER):
                    raise ConfigError(f"malformed CSV record in {path}: {record}")
                rows.append(
                    ResultRow(
                        axis_value=int(record[0]),
                        pilot_design=record[1],
                        jamming=record[2],
                        estimator_mode=record[3],
                        closed_form_mse=float(record[4]),
                        empirical_mse=_parse_float(record[5]),
                        empirical_std_err=_parse_float(record[6]),
                    )
                )
    except OSError as exc:
        raise OSError(f"failed to read results from {path}: {exc}") from exc
    return rows


# Flat config schema: every key mirrors an ExperimentSpec / TrainingConfig
# field. Unknown keys are a hard error to guard against silent typos in
# physics parameters.
_REQUIRED_KEYS = frozenset(
    {"sweep_axis", "axis_values", "scenarios", "num_jammer_antennas",
     "bs_power_db", "bs_correlation"}
)
_OPTIONAL_KEYS = frozenset(
    {"num_bs_antennas", "pilot_length", "jammer_power_db", "noise_variance",
     "jammer_correlation", "monte_carlo_trials", "seed"}
)
_SCENARIO_KEYS = frozenset({"pilot_design", "jamming", "estimator_mode"})


def spec_to_dict(spec: ExperimentSpec) -> dict:
    """Flat dictionary form of a spec, the same schema ``spec_from_dict`` reads."""
    base = spec.base
    return {
        "num_bs_antennas": base.num_bs_antennas,
        "num_jammer_antennas": base.num_jammer_antennas,
        "pilot_length": base.pilot_length,
        "bs_power_db": base.bs_power_db,
        "jammer_power_db": base.jammer_power_db,
        "noise_variance": base.noise_variance,
        "bs_correlation": base.bs_correlation,
        "jammer_correlation": base.jammer_correlation,
        "sweep_axis": spec.sweep_axis,
        "axis_values": list(spec.axis_values),
        "scenarios": [
            {
                "pilot_design": s.pilot_design,
                "jamming": s.jamming,
                "estimator_mode": s.estimator_mode,
            }
            for s in spec.scenarios
        ],
        "monte_carlo_trials": spec.monte_carlo_trials,
        "seed": spec.seed,
    }


def _check_keys(data, required: frozenset, optional: frozenset) -> None:
    """Reject a config that is not an object, has unknown keys or misses some."""
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - required - optional
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")


def _training_config_from_dict(data: dict, num_bs_antennas, pilot_length) -> TrainingConfig:
    """TrainingConfig from the flat config scalars, with the two sized fields given.

    ``jammer_power_db`` defaults to ``bs_power_db``, ``noise_variance`` to 1
    and ``jammer_correlation`` to ``bs_correlation``.
    """
    try:
        return TrainingConfig(
            num_bs_antennas=num_bs_antennas,
            num_jammer_antennas=data["num_jammer_antennas"],
            pilot_length=pilot_length,
            bs_power_db=float(data["bs_power_db"]),
            jammer_power_db=float(data.get("jammer_power_db", data["bs_power_db"])),
            noise_variance=float(data.get("noise_variance", 1.0)),
            bs_correlation=float(data["bs_correlation"]),
            jammer_correlation=(
                None if data.get("jammer_correlation") is None
                else float(data["jammer_correlation"])
            ),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid training parameters: {exc}") from exc


def spec_from_dict(data: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from the flat config schema.

    Unknown keys raise ``ConfigError``. ``jammer_power_db`` defaults to
    ``bs_power_db`` and ``jammer_correlation`` to ``bs_correlation``. The
    swept base field (``pilot_length`` or ``num_bs_antennas``) may be
    omitted; it is then seeded with the first axis value.
    """
    _check_keys(data, _REQUIRED_KEYS, _OPTIONAL_KEYS)

    sweep_axis = data["sweep_axis"]
    axis_values = data["axis_values"]
    if not isinstance(axis_values, (list, tuple)) or not axis_values:
        raise ConfigError("axis_values must be a non-empty list of integers")

    scenarios = []
    raw_scenarios = data["scenarios"]
    if not isinstance(raw_scenarios, (list, tuple)) or not raw_scenarios:
        raise ConfigError("scenarios must be a non-empty list of objects")
    for entry in raw_scenarios:
        if not isinstance(entry, dict):
            raise ConfigError(f"each scenario must be an object, got {entry!r}")
        bad = set(entry) - _SCENARIO_KEYS
        if bad:
            raise ConfigError(f"unknown scenario keys: {sorted(bad)}")
        if "pilot_design" not in entry or "jamming" not in entry:
            raise ConfigError(
                f"scenario needs 'pilot_design' and 'jamming' keys, got {sorted(entry)}"
            )
        scenarios.append(
            Scenario(
                pilot_design=entry["pilot_design"],
                jamming=entry["jamming"],
                estimator_mode=entry.get("estimator_mode", "jammer-aware"),
            )
        )

    first_axis = axis_values[0]
    if sweep_axis == "pilot_length":
        pilot_length = data.get("pilot_length", first_axis)
        if "num_bs_antennas" not in data:
            raise ConfigError("missing config keys: ['num_bs_antennas']")
        num_bs = data["num_bs_antennas"]
    elif sweep_axis == "bs_antennas":
        num_bs = data.get("num_bs_antennas", first_axis)
        if "pilot_length" not in data:
            raise ConfigError("missing config keys: ['pilot_length']")
        pilot_length = data["pilot_length"]
    else:
        raise ConfigError(f"unknown sweep axis {sweep_axis!r}; expected one of {SWEEP_AXES}")

    base = _training_config_from_dict(data, num_bs, pilot_length)

    return ExperimentSpec(
        base=base,
        sweep_axis=sweep_axis,
        axis_values=tuple(axis_values),
        scenarios=tuple(scenarios),
        monte_carlo_trials=data.get("monte_carlo_trials", 0),
        seed=data.get("seed", 0),
    )


def load_metadata_spec(path) -> ExperimentSpec:
    """Rebuild the experiment definition from a metadata sidecar."""
    path = Path(path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise OSError(f"failed to read metadata from {path}: {exc}") from exc
    if not isinstance(doc, dict) or "spec" not in doc:
        raise ConfigError(f"{path} is not a results metadata document")
    return spec_from_dict(doc["spec"])


# The five standard scenarios compared by the built-in sweeps.
_FIGURE_SCENARIOS = (
    Scenario("optimal", "silent"),
    Scenario("optimal", "single-shot"),
    Scenario("optimal", "eigen-optimal"),
    Scenario("worst-case", "silent"),
    Scenario("worst-case", "eigen-optimal"),
)


def figure_spec(
    figure: int, *, monte_carlo_trials: int = 0, seed: int = FIGURE_SEED
) -> ExperimentSpec:
    """Built-in sweep definitions for the three standard experiments.

    Figures 1 and 2 sweep the training length over {5, 10, ..., 100} for a
    100-antenna array (correlation 0.4 and 0.7 respectively) with a
    100-antenna jammer so the eigen-optimal design is feasible at every grid
    point. Figure 3 sweeps the array size over {25, 30, ..., 200} at
    training length 20 with a 25-antenna jammer and correlation 0.7. All use
    5 dB transmit power for both BS and jammer, relative to unit noise.
    """
    if figure in (1, 2):
        base = TrainingConfig(
            num_bs_antennas=100,
            num_jammer_antennas=100,
            pilot_length=5,
            bs_power_db=5.0,
            jammer_power_db=5.0,
            noise_variance=1.0,
            bs_correlation=0.4 if figure == 1 else 0.7,
        )
        return ExperimentSpec(
            base=base,
            sweep_axis="pilot_length",
            axis_values=tuple(range(5, 101, 5)),
            scenarios=_FIGURE_SCENARIOS,
            monte_carlo_trials=monte_carlo_trials,
            seed=seed,
        )
    if figure == 3:
        base = TrainingConfig(
            num_bs_antennas=25,
            num_jammer_antennas=25,
            pilot_length=20,
            bs_power_db=5.0,
            jammer_power_db=5.0,
            noise_variance=1.0,
            bs_correlation=0.7,
        )
        return ExperimentSpec(
            base=base,
            sweep_axis="bs_antennas",
            axis_values=tuple(range(25, 201, 5)),
            scenarios=_FIGURE_SCENARIOS,
            monte_carlo_trials=monte_carlo_trials,
            seed=seed,
        )
    raise ConfigError(f"unknown figure {figure!r}; expected 1, 2 or 3")
