"""Every real-valued parameter, at every layer, goes through one rule.

One table lists each entry point that takes a real number: the argument's
name as its error names it, the values outside its range and a call that
feeds it. Library functions raise ``ValueError``, spec keys ``ConfigError``,
and CLI flags and ``verify-lemma`` keys exit 2, each naming the argument.
A bool, a string, None (except for the jammer fields, where it means the
BS value), a list, NaN and a complex are no real numbers.
"""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fddjam.channel import exponential_covariance, exponential_spectrum
from fddjam.cli import main
from fddjam.experiments import JAMMING_CHOICES, ConfigError
from fddjam.linalg import _real
from fddjam.training import ESTIMATOR_MODES, PILOT_DESIGNS
from test_counts import cli_exit, sweep_config, training_config, verify_lemma_config

REAL_FIELDS = ("noise_variance", "bs_correlation", "jammer_correlation",
               "bs_power_db", "jammer_power_db")


# Values outside each parameter's range: a correlation lies in [0, 1], the
# noise variance is finite and non-negative, the jammer's power in dB may be
# -inf (off) but the BS's may not, and each linear power must be finite.
OUT_OF_RANGE = {
    "noise_variance": [-1.0, math.inf],
    "bs_correlation": [-0.1, 1.5],
    "jammer_correlation": [-0.1, 1.5],
    "bs_power_db": [math.inf, 3100.0, -math.inf],
    "jammer_power_db": [math.inf, 3100.0],
    "coefficient": [-0.1, 1.5],
}

# (id, name in the error, call): library and spec entries
LIBRARY = [
    *[(f"config-{field}", field, lambda v, f=field: training_config(**{f: v}))
      for field in REAL_FIELDS],
    ("covariance-coefficient", "coefficient", lambda v: exponential_covariance(4, v)),
    ("spectrum-coefficient", "coefficient", lambda v: exponential_spectrum(4, v)),
]
SPEC = [(f"dict-{field}", field, lambda v, f=field: sweep_config(**{f: v}))
        for field in REAL_FIELDS]


def bad_values(name, json_only=False):
    """The non-numbers, then the values out of range; None is the jammer
    fields' default, and JSON has no complex numbers."""
    values = [True, False, "0.5", None, [0.5], math.nan, 1j, *OUT_OF_RANGE[name]]
    if name.startswith("jammer_"):
        values.remove(None)
    if json_only:
        values.remove(1j)
    return values


@pytest.mark.parametrize(
    ("call", "error", "name", "value"),
    [
        pytest.param(call, error, name, value, id=f"{entry}-{value!r}")
        for error, table in ((ValueError, LIBRARY), (ConfigError, SPEC))
        for entry, name, call in table
        for value in bad_values(name)
    ],
)
def test_bad_real_raises_naming_it(call, error, name, value):
    with pytest.raises(error, match=re.escape(name)):
        call(value)


@pytest.mark.parametrize(
    ("key", "value"),
    [
        pytest.param(key, value, id=f"lemma-{key}-{value!r}")
        for key in REAL_FIELDS
        for value in bad_values(key, json_only=True)
    ],
)
def test_verify_lemma_key_rejects_bad_real_exit_2(capsys, tmp_path, key, value):
    code, err = cli_exit(capsys, verify_lemma_config(tmp_path, **{key: value}))
    assert code == 2
    assert key in err


MSE = ["mse", "--M", "4", "--L", "2", "--r", "0.5", "--pb-db", "0"]


@pytest.mark.parametrize(
    ("flag", "name", "value"),
    [
        ("--r", "bs_correlation", "nan"),
        ("--r", "bs_correlation", "1.5"),
        ("--rg", "jammer_correlation", "nan"),
        ("--rg", "jammer_correlation", "-0.5"),
        ("--pb-db", "bs_power_db", "nan"),
        ("--pj-db", "jammer_power_db", "nan"),
        ("--pj-db", "jammer_power_db", "inf"),
    ],
)
def test_mse_flag_rejects_bad_real_exit_2(capsys, flag, name, value):
    code, err = cli_exit(capsys, [*MSE, f"{flag}={value}"])
    assert code == 2
    assert name in err


# Power pairs each finite in dB whose scaled training system has no BS power
# or overflows, and the keys the error names: (bs_power_db, jammer_power_db,
# keys). None leaves the jammer's power at the BS's.
POWER_PROBES = [
    pytest.param(-3000.0, 3000.0, ("bs_power_db", "jammer_power_db"), id="jammer-ratio"),
    pytest.param(-3200.0, None, ("bs_power_db",), id="noise-ratio"),
    pytest.param(-3300.0, None, ("bs_power_db",), id="underflow"),
    pytest.param(-math.inf, None, ("bs_power_db",), id="bs-off"),
]


@pytest.mark.parametrize(("pb", "pj", "keys"), POWER_PROBES)
def test_power_pair_that_overflows_raises_naming_it(pb, pj, keys):
    with pytest.raises(ValueError) as info:
        training_config(bs_power_db=pb, jammer_power_db=pj)
    assert all(key in str(info.value) for key in keys)


@pytest.mark.parametrize("jamming", ["silent", "single-shot", "eigen-optimal"])
@pytest.mark.parametrize(("pb", "pj", "keys"), POWER_PROBES)
def test_mse_power_pair_that_overflows_exits_2(capsys, pb, pj, keys, jamming):
    powers = [f"--pb-db={pb}"] + ([] if pj is None else [f"--pj-db={pj}"])
    code, err = cli_exit(capsys, [*MSE[:-2], *powers, "--jamming", jamming])
    assert code == 2
    assert all(key in err for key in keys)


# Powers at the edge of the scaled training system of --M 2 --N 2 --L 1:
# twice its largest entry, which _hermitian_part forms, overflows at
# --pb-db=-3080, or with --pj-db=78 over --pb-db=-3000; -3077 and 76 still
# fit. (bs_power_db, jammer_power_db, exit code, keys the error names)
EDGE_PROBES = [
    pytest.param(-3080.0, None, 2, ("bs_power_db",), id="noise-overflows"),
    pytest.param(-3000.0, 78.0, 2, ("jammer_power_db", "bs_power_db"), id="jamming-overflows"),
    pytest.param(-3077.0, None, 0, (), id="noise-fits"),
    pytest.param(-3000.0, 76.0, 0, (), id="jamming-fits"),
]


@pytest.mark.parametrize("trials", ["0", "10"])
@pytest.mark.parametrize("estimator", ESTIMATOR_MODES)
@pytest.mark.parametrize("jamming", JAMMING_CHOICES)
@pytest.mark.parametrize("pilot", PILOT_DESIGNS)
@pytest.mark.parametrize(("pb", "pj", "want", "keys"), EDGE_PROBES)
def test_mse_at_the_scaled_system_edge(capsys, pb, pj, want, keys, pilot, jamming, estimator,
                                       trials):
    powers = [f"--pb-db={pb}"] + ([] if pj is None else [f"--pj-db={pj}"])
    argv = ["mse", "--M", "2", "--N", "2", "--L", "1", "--r", "0.5", *powers, "--pilot", pilot,
            "--jamming", jamming, "--estimator", estimator, "--trials", trials]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = cli_exit(capsys, argv)
    assert (code, caught) == (want, [])
    assert all(key in err for key in keys)


GOOD = [0, np.int64(0), np.float32(0.5), np.float64(0.5), Fraction(1, 2), 0.5]
GOOD_IDS = ["int", "int64", "float32", "float64", "fraction", "float"]


@pytest.mark.parametrize("value", GOOD, ids=GOOD_IDS)
@pytest.mark.parametrize(
    "call", [call for _, _, call in LIBRARY + SPEC], ids=[entry for entry, *_ in LIBRARY + SPEC]
)
def test_real_values_are_accepted(call, value):
    call(value)


@pytest.mark.parametrize("value", GOOD, ids=GOOD_IDS)
def test_training_config_stores_floats(value):
    cfg = training_config(**{field: value for field in REAL_FIELDS})
    base = sweep_config(**{field: value for field in REAL_FIELDS}).base
    for stored in (cfg, base):
        for field in REAL_FIELDS:
            assert type(getattr(stored, field)) is float
            assert getattr(stored, field) == value


def test_jammer_fields_follow_the_bs_fields():
    cfg = training_config(bs_power_db=7, jammer_power_db=None, bs_correlation=np.float32(0.25))
    assert (cfg.jammer_power_db, cfg.jammer_correlation) == (7.0, 0.25)
    spec = sweep_config(bs_power_db=7, jammer_power_db=None, jammer_correlation=None)
    assert (spec.base.jammer_power_db, spec.base.jammer_correlation) == (7.0, 0.5)
    assert spec.base.noise_variance == 1.0


def test_mse_jammer_power_defaults_to_bs_power(capsys):
    assert main([*MSE, "--jamming", "eigen-optimal"]) == 0
    default = capsys.readouterr().out
    assert main([*MSE, "--jamming", "eigen-optimal", "--pj-db", "0"]) == 0
    assert capsys.readouterr().out == default


@pytest.mark.parametrize(
    "value", [0, np.int64(3), np.float32(0.5), Fraction(1, 4), -math.inf, 2**60], ids=repr
)
def test_rule_returns_float(value):
    number = _real(value, "x", -math.inf, math.inf)
    assert type(number) is float and number == value


@pytest.mark.parametrize(
    "value",
    [np.bool_(True), np.array(0.5), "0.5", None, 1j, np.complex128(1), math.nan,
     np.float64(math.nan), 10**400, -10**400],
    ids=repr,
)
def test_rule_rejects_non_reals(value):
    with pytest.raises(ValueError, match="x must be a real number"):
        _real(value, "x", -math.inf, math.inf)


def test_rule_bounds_are_inclusive():
    assert _real(0, "x", 0.0, 1.0) == 0.0 and _real(1, "x", 0.0, 1.0) == 1.0
    with pytest.raises(ValueError, match="x"):
        _real(1.5, "x", 0.0, 1.0)
