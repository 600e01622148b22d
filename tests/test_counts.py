"""Every integer count, at every layer, goes through one rule.

One table lists each entry point that takes a count: the argument's name
as its error names it, its smallest value, its largest value (block
lengths only) and a call that feeds it. Library functions raise
``ValueError``, spec fields ``ConfigError``, and CLI flags and keys exit 2,
each naming the argument.
"""

import json
import math
import re

import numpy as np
import pytest

from fddjam.channel import exponential_covariance, exponential_spectrum
from fddjam.cli import main
from fddjam.experiments import ConfigError, ExperimentSpec, Scenario, spec_from_dict
from fddjam.jammer import single_shot_jamming, verify_lemma
from fddjam.linalg import _count, haar_orthonormal_columns, sample_complex_gaussian
from fddjam.training import (
    TrainingConfig,
    empirical_mse,
    optimal_pilots,
    random_unitary_pilots,
    worst_case_pilots,
)

COV = exponential_covariance(6, 0.5)
CFG = TrainingConfig(6, 6, 2, 5.0, 5.0, bs_correlation=0.5)
PILOTS = optimal_pilots(COV, 2)


def rng():
    return np.random.default_rng(0)


def training_config(**fields):
    return TrainingConfig(**{
        "num_bs_antennas": 6, "num_jammer_antennas": 6, "pilot_length": 1,
        "bs_power_db": 5.0, "jammer_power_db": 5.0, **fields,
    })


def experiment_spec(**fields):
    return ExperimentSpec(**{
        "base": CFG, "sweep_axis": "pilot_length", "axis_values": (2,),
        "scenarios": (Scenario("optimal", "silent"),), **fields,
    })


def sweep_config(**keys):
    return spec_from_dict({
        "num_bs_antennas": 6, "num_jammer_antennas": 6, "bs_power_db": 5.0,
        "bs_correlation": 0.5, "sweep_axis": "pilot_length", "axis_values": [2],
        "scenarios": [{"pilot_design": "optimal", "jamming": "silent"}], **keys,
    })


def cli_exit(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag that is no int
        code = exc.code
    return code, capsys.readouterr().err


def verify_lemma_config(tmp_path, **keys):
    path = tmp_path / "lemma.json"
    path.write_text(json.dumps({
        "num_bs_antennas": 6, "num_jammer_antennas": 6, "pilot_length": 2,
        "bs_power_db": 5.0, "bs_correlation": 0.5, "num_random": 2, **keys,
    }))
    return ["verify-lemma", "--config", str(path)]


MSE = ["mse", "--M", "4", "--L", "2", "--r", "0", "--pb-db", "0"]

# (id, name in the error, low, high, call): library and spec entries
LIBRARY = [
    ("sample-size", "size", 0, None,
     lambda v: sample_complex_gaussian(COV.evd, rng(), size=v)),
    ("haar-rows", "rows", 1, None, lambda v: haar_orthonormal_columns(v, 1, rng())),
    ("haar-cols", "cols", 1, 6, lambda v: haar_orthonormal_columns(6, v, rng())),
    ("covariance-size", "size", 1, None, lambda v: exponential_covariance(v, 0.5)),
    ("spectrum-size", "size", 1, None, lambda v: exponential_spectrum(v, 0.5)),
    ("config-bs-antennas", "num_bs_antennas", 1, None,
     lambda v: training_config(num_bs_antennas=v)),
    ("config-jammer-antennas", "num_jammer_antennas", 1, None,
     lambda v: training_config(num_jammer_antennas=v)),
    ("config-pilot-length", "pilot_length", 1, 6, lambda v: training_config(pilot_length=v)),
    ("optimal-pilots", "pilot_length", 1, 6, lambda v: optimal_pilots(COV, v)),
    ("worst-case-pilots", "pilot_length", 1, 6, lambda v: worst_case_pilots(COV, v)),
    ("random-pilots-antennas", "num_antennas", 1, None,
     lambda v: random_unitary_pilots(v, 1, rng())),
    ("random-pilots-length", "pilot_length", 1, 6,
     lambda v: random_unitary_pilots(6, v, rng())),
    ("single-shot-antennas", "num_antennas", 1, None, lambda v: single_shot_jamming(v, 1)),
    ("single-shot-length", "pilot_length", 1, 6, lambda v: single_shot_jamming(6, v)),
    ("empirical-trials", "trials", 1, None,
     lambda v: empirical_mse(PILOTS, None, COV, None, CFG, trials=v, rng=rng())),
    ("lemma-num-random", "num_random", 0, None,
     lambda v: verify_lemma(COV, COV, PILOTS, CFG, v, rng())),
]
SPEC = [
    ("spec-axis-values", "axis_values", 0, None, lambda v: experiment_spec(axis_values=(v,))),
    ("spec-trials", "monte_carlo_trials", 0, None,
     lambda v: experiment_spec(monte_carlo_trials=v)),
    ("spec-seed", "seed", 0, None, lambda v: experiment_spec(seed=v)),
    ("dict-axis-values", "axis_values", 0, None, lambda v: sweep_config(axis_values=[v])),
    ("dict-trials", "monte_carlo_trials", 0, None,
     lambda v: sweep_config(monte_carlo_trials=v)),
    ("dict-seed", "seed", 0, None, lambda v: sweep_config(seed=v)),
    ("dict-bs-antennas", "num_bs_antennas", 1, None,
     lambda v: sweep_config(num_bs_antennas=v)),
    ("dict-jammer-antennas", "num_jammer_antennas", 1, None,
     lambda v: sweep_config(num_jammer_antennas=v)),
    ("dict-pilot-length", "pilot_length", 1, 6, lambda v: sweep_config(pilot_length=v)),
]
# (id, flag, name in the error, low, high): flags of the CLI
FLAGS = [
    ("figure-trials", ["figure", "1", "--out", "OUT"], "--trials", "--trials", 0, None),
    ("figure-seed", ["figure", "1", "--out", "OUT"], "--seed", "--seed", 0, None),
    ("mse-trials", MSE, "--trials", "--trials", 0, None),
    ("mse-seed", MSE, "--seed", "--seed", 0, None),
    ("mse-M", MSE, "--M", "--M|num_bs_antennas", 1, None),
    ("mse-N", MSE, "--N", "--N|num_jammer_antennas", 1, None),
    ("mse-L", MSE, "--L", "--L|pilot_length", 1, 4),
]
LEMMA_KEYS = [("lemma-num-random", "num_random", 0), ("lemma-seed", "seed", 0)]


def bad_values(low, high):
    """True, a fraction, None, a string, and one step outside each bound."""
    return [True, 2.5, None, "3", low - 1, *([] if high is None else [high + 1])]


@pytest.mark.parametrize(
    ("call", "error", "name", "value"),
    [
        pytest.param(call, error, name, value, id=f"{entry}-{value!r}")
        for error, table in ((ValueError, LIBRARY), (ConfigError, SPEC))
        for entry, name, low, high, call in table
        for value in bad_values(low, high)
        # None asks sample_complex_gaussian for one vector
        if not (entry == "sample-size" and value is None)
    ],
)
def test_bad_count_raises_naming_it(call, error, name, value):
    with pytest.raises(error, match=re.escape(name)):
        call(value)


@pytest.mark.parametrize(
    ("argv", "flag", "name", "value"),
    [
        pytest.param(argv, flag, name, value, id=f"{entry}-{value}")
        for entry, argv, flag, name, low, high in FLAGS
        for value in ["true", "2.5", "", str(low - 1), *([] if high is None else [str(high + 1)])]
    ],
)
def test_cli_flag_rejects_bad_count_exit_2(capsys, tmp_path, argv, flag, name, value):
    argv = [str(tmp_path) if arg == "OUT" else arg for arg in argv]
    code, err = cli_exit(capsys, [*argv, f"{flag}={value}"])
    assert code == 2
    assert re.search(name, err)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    ("key", "value"),
    [
        pytest.param(key, value, id=f"{entry}-{value!r}")
        for entry, key, low in LEMMA_KEYS
        for value in bad_values(low, None)
    ],
)
def test_verify_lemma_key_rejects_bad_count_exit_2(capsys, tmp_path, key, value):
    code, err = cli_exit(capsys, verify_lemma_config(tmp_path, **{key: value}))
    assert code == 2
    assert key in err


@pytest.mark.parametrize(
    "value", [3, 3.0, np.int64(3), np.float32(3.0)], ids=["int", "float", "int64", "float32"]
)
@pytest.mark.parametrize(
    "call", [call for *_, call in LIBRARY + SPEC], ids=[entry for entry, *_ in LIBRARY + SPEC]
)
def test_integral_values_are_accepted(call, value):
    call(value)


@pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.uint8(3), 10**30, 1e30], ids=repr)
def test_rule_returns_int(value):
    count = _count(value, "count")
    assert type(count) is int and count == value


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float64(math.inf),
                                   np.bool_(True), [3], np.array([3]), 3 + 0j], ids=repr)
def test_rule_rejects_non_counts(value):
    with pytest.raises(ValueError, match="count"):
        _count(value, "count")


def test_training_config_stores_ints():
    cfg = TrainingConfig(6.0, np.int64(5), np.float32(2.0), 5.0, 5.0)
    sized = (cfg.num_bs_antennas, cfg.num_jammer_antennas, cfg.pilot_length)
    assert sized == (6, 5, 2)
    assert all(type(value) is int for value in sized)
