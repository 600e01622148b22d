"""Experiment orchestration: sweeps, result persistence, built-in setups.

A sweep evaluates a scenario matrix (pilot design x jamming strategy x
estimator mode) along one axis, either the training length or the BS array
size. Results go to a CSV file with a JSON metadata sidecar carrying the
full experiment definition and seed, so any result file can be regenerated
exactly from its sidecar.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ._version import __version__
from .channel import ChannelCovariance, exponential_covariance
from .jammer import optimal_jamming, single_shot_jamming
from .linalg import _count, _one_blas_thread, _real, _single_blas_thread
from .training import (
    ESTIMATOR_MODES,
    PILOT_DESIGNS,
    TrainingConfig,
    UnitaryBlock,
    _closed_form,
    _eigen_system,
    _filter,
    _monte_carlo,
    _scenario_terms,
    _trial_gains,
    optimal_pilots,
    random_unitary_pilots,
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
# The label fields of a scenario and the values each may take.
_LABELS = {"pilot_design": PILOT_DESIGNS, "jamming": JAMMING_CHOICES,
           "estimator_mode": ESTIMATOR_MODES}
CSV_HEADER = ("axis", "pilot_design", "jamming", "estimator_mode",
              "mse_closed", "mse_empirical", "std_err")

# Environment variable holding the parallelism degree for sweeps.
WORKERS_ENV_VAR = "FDDJAM_WORKERS"

# Seed baked into the built-in figure sweeps (recorded in their sidecars).
FIGURE_SEED = 1


class ConfigError(ValueError):
    """Invalid experiment configuration: bad keys, values or dimensions."""


def _label(field: str, value) -> str:
    """``value`` if it is one of ``field``'s labels, else ``ConfigError``."""
    if value not in _LABELS[field]:
        raise ConfigError(f"{field} must be one of {_LABELS[field]}, got {value!r}")
    return value


@dataclass(frozen=True)
class Scenario:
    """One pilot-design / jamming-strategy / estimator-mode combination."""

    pilot_design: str
    jamming: str
    estimator_mode: str = "jammer-aware"

    def __post_init__(self) -> None:
        for field in _LABELS:
            _label(field, getattr(self, field))


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
        _axis_field(self.sweep_axis)
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


def _axis_field(sweep_axis) -> str:
    """The TrainingConfig field that ``sweep_axis``'s values replace; any
    other value, of any type, raises ``ConfigError``."""
    if sweep_axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep_axis {sweep_axis!r}; expected one of {SWEEP_AXES}")
    return _AXIS_FIELDS[sweep_axis]


def config_for_point(base: TrainingConfig, sweep_axis: str, axis_value: int) -> TrainingConfig:
    """Training configuration at one point of the sweep axis."""
    return dataclasses.replace(base, **{_axis_field(sweep_axis): int(axis_value)})


def resolve_workers(workers: int | None = None) -> int:
    """Parallelism degree: explicit argument, else FDDJAM_WORKERS, else cores.

    Each must be a positive integer, FDDJAM_WORKERS in ``str(int)`` form;
    anything else raises ``ConfigError`` naming ``workers`` or FDDJAM_WORKERS.
    """
    if workers is not None:
        workers = _count(workers, "workers", 1, error=ConfigError)
    elif (env := os.environ.get(WORKERS_ENV_VAR, "")).strip():
        try:  # int() also takes "2_0", "+2", "02" or "٢"
            workers = int(env)
        except ValueError:
            workers = None
        if workers is None or str(workers) != env.strip():
            raise ConfigError(f"{WORKERS_ENV_VAR} must be an integer in plain ASCII digits "
                              f"(no '+', leading zeros or '_'), got {env!r}")
        workers = _count(workers, WORKERS_ENV_VAR, 1, error=ConfigError)
    else:
        workers = os.cpu_count() or 1
    return workers


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


def _draws(scenarios, trials: int) -> bool:
    """Whether an axis value with these scenarios draws random numbers, which
    is also what makes it cost more than spectrum lookups: random pilots or
    Monte-Carlo trials."""
    return trials > 0 or any(s.pilot_design == "random-unitary" for s in scenarios)


def _evaluate_scenario(
    cfg: TrainingConfig,
    scenario: Scenario,
    trials: int,
    covariances: tuple[ChannelCovariance, ChannelCovariance] | None,
    generator: np.random.Generator | None,
) -> tuple[float, tuple | None]:
    """``(closed-form MSE, trial gains or None)`` of one scenario.

    Optimal and worst-case pilots take the closed form from the covariance
    spectra alone. Random pilots draw from ``generator``. With random
    pilots or ``trials > 0`` the scenario builds its blocks and its checked
    ``L x L`` training system once, for the closed form of random pilots
    and for its filter's Monte-Carlo gains (``training._trial_gains``).
    ``covariances`` and ``generator`` are None at an axis value that draws
    nothing (see ``_draws``).
    """
    random_pilots = scenario.pilot_design == "random-unitary"
    if random_pilots or trials > 0:
        bs_cov, jam_cov = covariances
        pilots = _build_pilots(scenario.pilot_design, bs_cov, cfg.pilot_length, generator)
        jamming = _build_jamming(scenario.jamming, jam_cov, cfg)
        system = _scenario_terms(pilots, jamming, bs_cov, jam_cov, cfg, scenario.estimator_mode)
    if random_pilots:
        closed = _closed_form(*system)
    else:
        closed = _closed_form(
            *_eigen_system(scenario.pilot_design, scenario.jamming, cfg),
            scenario.estimator_mode == "jammer-aware",
        )
    gains = None
    if trials > 0:
        gains = _trial_gains(pilots, jamming, bs_cov, jam_cov, cfg, _filter(*system))
    return closed, gains


def _evaluate_point(
    cfg: TrainingConfig,
    scenarios,
    trials: int,
    seed: np.random.SeedSequence | None,
    axis_value: int,
) -> list[ResultRow]:
    """Rows of scenarios that share one training configuration.

    One generator, seeded with ``seed`` (None when nothing draws), first
    draws the random pilots of each scenario in turn, then spawns the trial
    chunks, whose draws every scenario shares (``training._monte_carlo``).
    A failing scenario re-raises its exception with the axis value and the
    scenario at the front of the message.
    """
    covariances = generator = None
    if _draws(scenarios, trials):
        covariances = _covariances(cfg)
        generator = np.random.default_rng(seed)
    rows, gains = [], []
    for scenario in scenarios:
        try:
            closed, scenario_gains = _evaluate_scenario(
                cfg, scenario, trials, covariances, generator
            )
        except (ArithmeticError, ValueError) as exc:
            # same type and args shape, so it still pickles out of a worker
            exc.args = (
                f"axis value {axis_value}, scenario {scenario.pilot_design}/"
                f"{scenario.jamming}/{scenario.estimator_mode}: {exc}",
            )
            raise
        rows.append(ResultRow(axis_value, scenario.pilot_design, scenario.jamming,
                              scenario.estimator_mode, closed))
        gains.append(scenario_gains)
    if trials > 0:
        mc = _monte_carlo(gains, covariances[0], cfg, trials, generator)
        rows = [
            dataclasses.replace(row, empirical_mse=result.mean, empirical_std_err=result.std_error)
            for row, result in zip(rows, mc)
        ]
    return rows


def _evaluate_axis_value(spec: ExperimentSpec, axis_index: int) -> list[ResultRow]:
    """Rows of one axis value, in scenario order.

    An axis value that draws random numbers gets one stream derived from the
    spec seed and its index, so results cannot depend on scheduling order or
    on the parallelism degree; one that draws nothing gets no stream.
    """
    value = spec.axis_values[axis_index]
    cfg = config_for_point(spec.base, spec.sweep_axis, value)
    seed = None
    if _draws(spec.scenarios, spec.monte_carlo_trials):
        seed = np.random.SeedSequence(spec.seed, spawn_key=(axis_index,))
    return _evaluate_point(cfg, spec.scenarios, spec.monte_carlo_trials, seed, value)


def run_sweep(spec: ExperimentSpec, *, workers: int | None = None) -> list[ResultRow]:
    """Evaluate every (axis value, scenario) point of an experiment.

    Rows come back ordered by (axis value, scenario index), one row per
    point. Each axis value that draws random numbers consumes one stream
    derived from the spec seed and the axis value's index, so the output is
    identical regardless of the parallelism degree.

    The scenarios of an axis value share its Monte-Carlo draws (common
    random numbers): every scenario sees the same channel, jammer-channel
    and noise realizations. Its rows are therefore correlated. Differences
    between scenarios typically carry less noise than independent draws give,
    while each row's mean and standard error keep their distribution. A
    silent row's draws also depend on whether its sweep has a jamming
    scenario, whose jammer-channel draw comes between the channel and the
    noise.

    Only a sweep that draws random numbers, that is one with Monte-Carlo
    trials or random pilots, uses worker processes: its axis values may be
    evaluated across a process pool of ``workers`` (argument, else the
    FDDJAM_WORKERS environment variable, else the machine core count), at
    most one per axis value. Any other sweep reads only cached
    covariance spectra and runs serially in the calling process; for the
    built-in figures that takes less time than starting the pool.

    The OpenBLAS bundled with numpy runs on one thread for the whole sweep,
    in the serial path and in every worker, which pins itself as it starts,
    and gets the caller's thread count back afterwards. Parallelism comes
    only from worker processes, so ``OPENBLAS_NUM_THREADS`` has no effect
    inside a sweep. A non-OpenBLAS build is left alone.
    """
    n = len(spec.axis_values)
    workers = min(resolve_workers(workers), n)
    with _single_blas_thread():
        if workers > 1 and _draws(spec.scenarios, spec.monte_carlo_trials):
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


def _written(text: str, name: str, parse, write):
    """``parse(text)`` if ``write`` gives ``text`` back (as ``write_results`` would)."""
    value = parse(text)
    if write(value) != text:
        raise ValueError(f"{name} {text!r} is not in the form write_results writes")
    return value


def _parse_mse(text: str, name: str) -> float:
    """An MSE field of a results CSV as a finite real >= 0, else ``ValueError``."""
    return _real(_written(text, name, float, _format_float), name, 0.0, sys.float_info.max)


@contextlib.contextmanager
def _open_text(path: Path, what: str):
    """The UTF-8 text file at ``path``, opened without newline translation.

    A file that cannot be read raises ``OSError``; one that is not UTF-8
    text, or not valid JSON when the caller parses it, raises
    ``ConfigError``. Each names ``path``.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise OSError(f"failed to read {what} from {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def read_results(path) -> list[ResultRow]:
    """Read a results CSV written by ``write_results``; a bad one raises ``ConfigError``.

    A record holds a count, a scenario's labels and finite MSEs >= 0, the
    empirical MSE and its standard error both empty or both set, each number
    written as ``write_results`` writes it."""
    path = Path(path)
    with _open_text(path, "results") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(CSV_HEADER):
            raise ConfigError(f"unexpected CSV header in {path}: {header}")
        rows = []
        for record in reader:
            try:
                axis, design, jamming, mode, closed, mc, std_err = record
                axis = _count(_written(axis, "axis", int, str), "axis")
                Scenario(design, jamming, mode)
                closed = _parse_mse(closed, "mse_closed")
                if (mc == "") != (std_err == ""):
                    raise ValueError("mse_empirical and std_err must be both empty or both set")
                empirical = (None, None) if mc == "" else (
                    _parse_mse(mc, "mse_empirical"), _parse_mse(std_err, "std_err")
                )
                rows.append(ResultRow(axis, design, jamming, mode, closed, *empirical))
            except ValueError as exc:
                raise ConfigError(f"malformed CSV record in {path}: {record}: {exc}") from exc
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
_SCENARIO_REQUIRED = frozenset({"pilot_design", "jamming"})
_SCENARIO_OPTIONAL = frozenset({"estimator_mode"})
_SCENARIO_KEYS = _SCENARIO_REQUIRED | _SCENARIO_OPTIONAL


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


def _check_keys(data, required: frozenset, optional: frozenset, name: str = "config") -> None:
    """Reject a ``name`` that is not an object, has unknown keys or misses some."""
    if not isinstance(data, dict):
        raise ConfigError(f"{name} must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - required - optional
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise ConfigError(f"missing {name} keys: {sorted(missing)}")


def _training_config_from_dict(data: dict) -> TrainingConfig:
    """TrainingConfig from the flat config's TrainingConfig keys; it owns the
    defaults of the keys left out."""
    fields = {f.name: data[f.name] for f in dataclasses.fields(TrainingConfig) if f.name in data}
    try:
        return TrainingConfig(**fields)
    except ValueError as exc:
        raise ConfigError(f"invalid training parameters: {exc}") from exc


def spec_from_dict(data: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from the flat config schema.

    Unknown keys and bad values raise ``ConfigError``. ``TrainingConfig``
    gives the defaults of the scalar keys left out, and of a null
    ``jammer_power_db`` or ``jammer_correlation``. The swept base field
    (``pilot_length`` or ``num_bs_antennas``) may be omitted; it is then
    seeded with the first axis value.
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
        _check_keys(entry, _SCENARIO_REQUIRED, _SCENARIO_OPTIONAL, "scenarios entry")
        scenarios.append(Scenario(**entry))

    swept = _axis_field(sweep_axis)
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


_LEMMA_REQUIRED = _SCALAR_REQUIRED | set(_AXIS_FIELDS.values())
_LEMMA_OPTIONAL = _SCALAR_OPTIONAL | {"pilot_design", "num_random", "seed"}


def _lemma_from_dict(data) -> tuple[TrainingConfig, str, object, int]:
    """``(cfg, pilot_design, num_random, seed)`` of a ``verify-lemma`` config:
    the sweep's scalar keys and ``pilot_length``; a bad key or value raises
    ``ConfigError``, except ``num_random``, which ``verify_lemma`` checks."""
    _check_keys(data, _LEMMA_REQUIRED, _LEMMA_OPTIONAL)
    cfg = _training_config_from_dict(data)
    pilot_design = _label("pilot_design", data.get("pilot_design", "optimal"))
    seed = _count(data.get("seed", 0), "seed", error=ConfigError)
    return cfg, pilot_design, data.get("num_random", 500), seed


def _load_object(path: Path, what: str) -> dict:
    """The JSON object in the file at ``path``; any other content raises
    ``ConfigError`` naming ``path`` (see ``_open_text``)."""
    with _open_text(path, what) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must hold a JSON object, got {type(doc).__name__}")
    return doc


def load_metadata_spec(path) -> ExperimentSpec:
    """Rebuild the experiment definition from a metadata sidecar."""
    path = Path(path)
    doc = _load_object(path, "metadata")
    if "spec" not in doc:
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
