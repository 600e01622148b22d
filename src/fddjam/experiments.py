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
import functools
import json
import os
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ._version import __version__
from .channel import ChannelCovariance, exponential_covariance
from .jammer import _eigen_jamming_term, optimal_jamming, single_shot_jamming
from .linalg import _count, _one_blas_thread, _single_blas_thread
from .training import (
    ESTIMATOR_MODES,
    PILOT_DESIGNS,
    TrainingConfig,
    UnitaryBlock,
    _closed_form,
    _eigen_pilot_terms,
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

# Each sweep axis and the TrainingConfig field its values replace.
_AXIS_FIELDS = {"pilot_length": "pilot_length", "bs_antennas": "num_bs_antennas"}
SWEEP_AXES = tuple(_AXIS_FIELDS)
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
        values = tuple(_count(v, "axis_values", error=ConfigError) for v in self.axis_values)
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
        object.__setattr__(self, "axis_values", values)
        object.__setattr__(self, "scenarios", scenarios)
        for field in ("monte_carlo_trials", "seed"):
            value = _count(getattr(self, field), field, error=ConfigError)
            object.__setattr__(self, field, value)
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
    if sweep_axis not in _AXIS_FIELDS:
        raise ConfigError(f"unknown sweep axis {sweep_axis!r}; expected one of {SWEEP_AXES}")
    return dataclasses.replace(base, **{_AXIS_FIELDS[sweep_axis]: int(axis_value)})


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


def _covariances(cfg: TrainingConfig) -> tuple[ChannelCovariance, ChannelCovariance]:
    """The BS and jammer channel covariances of one training configuration."""
    return (
        exponential_covariance(cfg.num_bs_antennas, cfg.bs_correlation),
        exponential_covariance(cfg.num_jammer_antennas, cfg.jammer_correlation),
    )


def _needs_blocks(scenario: Scenario, trials: int) -> bool:
    """Whether a point builds covariances and eigenvector blocks, which is
    what makes it cost more than a spectrum lookup: random pilots or
    Monte-Carlo trials."""
    return scenario.pilot_design == "random-unitary" or trials > 0


def _evaluate_scenario(
    cfg: TrainingConfig,
    covs: Callable[[], tuple[ChannelCovariance, ChannelCovariance]],
    scenario: Scenario,
    trials: int,
    rng: Callable[[], np.random.Generator],
    axis_value: int,
) -> ResultRow:
    """Closed-form MSE of one scenario, plus its Monte-Carlo estimate when
    ``trials > 0``.

    Optimal and worst-case pilots take the closed form from the covariance
    spectra alone. ``covs()`` returns the BS and jammer covariances and
    ``rng()`` the point's generator, from which random pilots and then the
    trials draw; both are called only when the scenario needs eigenvector
    blocks, that is for random pilots or Monte-Carlo trials.
    """
    random_pilots = scenario.pilot_design == "random-unitary"
    if _needs_blocks(scenario, trials):
        bs_cov, jam_cov = covs()
        generator = rng()
        pilots = _build_pilots(scenario.pilot_design, bs_cov, cfg.pilot_length, generator)
        jamming = _build_jamming(scenario.jamming, jam_cov, cfg)
    if random_pilots:
        closed = scenario_closed_form_mse(
            pilots, jamming, bs_cov, jam_cov, cfg, scenario.estimator_mode
        )
    else:
        closed = _closed_form(
            _eigen_pilot_terms(scenario.pilot_design, cfg),
            _eigen_jamming_term(scenario.jamming, cfg),
            scenario.estimator_mode == "jammer-aware",
        )
    mse_mc = std_err = None
    if trials > 0:
        mc = empirical_mse(
            pilots, jamming, bs_cov, jam_cov, cfg,
            trials=trials, rng=generator, estimator_mode=scenario.estimator_mode,
        )
        mse_mc, std_err = mc.mean, mc.std_error
    return ResultRow(
        axis_value=axis_value,
        pilot_design=scenario.pilot_design,
        jamming=scenario.jamming,
        estimator_mode=scenario.estimator_mode,
        closed_form_mse=closed,
        empirical_mse=mse_mc,
        empirical_std_err=std_err,
    )


def _evaluate_axis_value(spec: ExperimentSpec, axis_index: int) -> list[ResultRow]:
    value = spec.axis_values[axis_index]
    cfg = config_for_point(spec.base, spec.sweep_axis, value)
    # built at most once, by the first scenario that needs them
    covs = functools.cache(functools.partial(_covariances, cfg))
    first_point = axis_index * len(spec.scenarios)
    return [
        _evaluate_scenario(
            cfg, covs, scenario, spec.monte_carlo_trials,
            functools.partial(_point_rng, spec.seed, first_point + scenario_index), value,
        )
        for scenario_index, scenario in enumerate(spec.scenarios)
    ]


def run_sweep(spec: ExperimentSpec, *, workers: int | None = None) -> list[ResultRow]:
    """Evaluate every (axis value, scenario) point of an experiment.

    Rows come back ordered by (axis value, scenario index), one row per
    point. Each point consumes a random stream derived from the spec seed
    and the point's index, so the output is identical regardless of the
    parallelism degree.

    Only a sweep whose points build eigenvector blocks, that is one with
    Monte-Carlo trials or random pilots, uses worker processes: its axis
    values may be evaluated across a process pool of ``workers`` (argument,
    else the FDDJAM_WORKERS environment variable, else the machine core
    count). Any other sweep reads only cached covariance spectra and runs
    serially in the calling process; for the built-in figures that takes
    less time than starting the pool.

    The OpenBLAS bundled with numpy runs on one thread for the whole sweep,
    in the serial path and in every worker, which pins itself as it starts,
    and gets the caller's thread count back afterwards. Parallelism comes
    only from worker processes, so ``OPENBLAS_NUM_THREADS`` has no effect
    inside a sweep. A non-OpenBLAS build is left alone.
    """
    n = len(spec.axis_values)
    workers = resolve_workers(workers, max_useful=n)
    with _single_blas_thread():
        if workers > 1 and any(
            _needs_blocks(scenario, spec.monte_carlo_trials) for scenario in spec.scenarios
        ):
            with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
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
# physics parameters. The TrainingConfig scalars other than the two sized
# fields (the ``_AXIS_FIELDS`` values) are shared with ``verify-lemma``.
_SCALAR_REQUIRED = frozenset({"num_jammer_antennas", "bs_power_db", "bs_correlation"})
_SCALAR_OPTIONAL = frozenset({"jammer_power_db", "noise_variance", "jammer_correlation"})
_REQUIRED_KEYS = _SCALAR_REQUIRED | {"sweep_axis", "axis_values", "scenarios"}
_OPTIONAL_KEYS = (
    _SCALAR_OPTIONAL | set(_AXIS_FIELDS.values()) | {"monte_carlo_trials", "seed"}
)
_SCENARIO_KEYS = frozenset({"pilot_design", "jamming", "estimator_mode"})


def spec_to_dict(spec: ExperimentSpec) -> dict:
    """Flat dictionary form of a spec, the same schema ``spec_from_dict`` reads."""
    return {
        **dataclasses.asdict(spec.base),
        "sweep_axis": spec.sweep_axis,
        "axis_values": list(spec.axis_values),
        "scenarios": [dataclasses.asdict(s) for s in spec.scenarios],
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


def _training_config_from_dict(data: dict) -> TrainingConfig:
    """TrainingConfig from the flat config scalars.

    ``jammer_power_db`` defaults to ``bs_power_db``, ``noise_variance`` to 1
    and ``jammer_correlation`` to ``bs_correlation``.
    """
    try:
        return TrainingConfig(
            num_bs_antennas=data["num_bs_antennas"],
            num_jammer_antennas=data["num_jammer_antennas"],
            pilot_length=data["pilot_length"],
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

    if sweep_axis not in _AXIS_FIELDS:
        raise ConfigError(f"unknown sweep axis {sweep_axis!r}; expected one of {SWEEP_AXES}")
    swept = _AXIS_FIELDS[sweep_axis]
    missing = [f for f in _AXIS_FIELDS.values() if f != swept and f not in data]
    if missing:
        raise ConfigError(f"missing config keys: {missing}")

    first = _count(axis_values[0], "axis_values", error=ConfigError)
    base = _training_config_from_dict({swept: first, **data})

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

# figure: (sweep axis, axis values, M, N, base L, correlation)
_FIGURES = {
    1: ("pilot_length", range(5, 101, 5), 100, 100, 5, 0.4),
    2: ("pilot_length", range(5, 101, 5), 100, 100, 5, 0.7),
    3: ("bs_antennas", range(25, 201, 5), 25, 25, 20, 0.7),
}


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
    if figure not in _FIGURES:
        raise ConfigError(f"unknown figure {figure!r}; expected 1, 2 or 3")
    axis, values, num_bs, num_jam, length, correlation = _FIGURES[figure]
    base = TrainingConfig(
        num_bs_antennas=num_bs,
        num_jammer_antennas=num_jam,
        pilot_length=length,
        bs_power_db=5.0,
        jammer_power_db=5.0,
        noise_variance=1.0,
        bs_correlation=correlation,
    )
    return ExperimentSpec(
        base=base,
        sweep_axis=axis,
        axis_values=tuple(values),
        scenarios=_FIGURE_SCENARIOS,
        monte_carlo_trials=monte_carlo_trials,
        seed=seed,
    )
