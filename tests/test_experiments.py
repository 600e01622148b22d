"""Tests for sweep orchestration, persistence and the config schema."""

import dataclasses
import functools
import json
import pickle
import tempfile
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fddjam import channel, experiments, training
from fddjam.experiments import (
    CSV_HEADER,
    JAMMING_CHOICES,
    SWEEP_AXES,
    ConfigError,
    ExperimentSpec,
    ResultRow,
    Scenario,
    config_for_point,
    figure_spec,
    load_metadata_spec,
    metadata_path,
    read_results,
    resolve_workers,
    run_sweep,
    spec_from_dict,
    spec_to_dict,
    write_results,
)
from fddjam.linalg import _bundled_openblas
from fddjam.training import _MC_CHUNK, ESTIMATOR_MODES, PILOT_DESIGNS, TrainingConfig
from oracles import shared_draws_axis_value

# Closed-form figure rows stored with the benchmark, at 12 significant digits.
REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"

# `fddjam figure 2 --trials 50`, written since the scenarios of an axis value
# share one set of Monte-Carlo draws (version 0.2.0).
FIGURE2_MC50 = Path(__file__).resolve().parent / "data" / "figure2-mc50.csv"

# The shipped sweep with random pilots and trials, and its CSV as
# `FDDJAM_WORKERS=1 fddjam sweep` wrote it (version 0.2.0).
RANDOM_PILOT_MC = Path(__file__).resolve().parent / "data" / "random-pilot-mc-sweep.json"


def random_pilot_mc_spec():
    return spec_from_dict(json.loads(RANDOM_PILOT_MC.read_text()))


@pytest.fixture
def seed_sequences(monkeypatch):
    """Spawn keys of the axis-value seeds a sweep builds."""
    built = []
    seed_sequence = np.random.SeedSequence

    def counted(*args, **kwargs):
        built.append(kwargs.get("spawn_key"))
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counted)
    return built


def blas_counts_of_point(spec, axis_index):
    # Stands in for one grid point's evaluation: its "rows" are the live
    # thread count of the bundled OpenBLAS in the evaluating process.
    blas = _bundled_openblas()
    return [None if blas is None else blas[0]()]


@st.composite
def valid_specs(draw, correlation=st.floats(0.0, 1.0),
                noise=st.floats(0.0, 10.0, allow_subnormal=False), trials=st.integers(0, 10**6)):
    """Random feasible specs on either axis, every scenario kind mixed in.

    A subnormal noise variance at a negative power in dB rounds the BS power
    to 0, which is infeasible (see ``test_bs_power_that_rounds_to_zero_is_rejected``).
    """
    axis = draw(st.sampled_from(SWEEP_AXES))
    values = sorted(draw(st.lists(st.integers(1, 24), min_size=1, max_size=4, unique=True)))
    if axis == "pilot_length":
        num_bs = draw(st.integers(values[-1], 32))
        length = draw(st.integers(1, num_bs))
        longest = values[-1]
    else:
        length = draw(st.integers(1, values[0]))
        num_bs = draw(st.integers(length, 32))
        longest = length
    db = st.floats(-50.0, 50.0)
    base = TrainingConfig(
        num_bs_antennas=num_bs,
        num_jammer_antennas=draw(st.integers(longest, 32)),
        pilot_length=length,
        bs_power_db=draw(db),
        jammer_power_db=draw(db),
        noise_variance=draw(noise),
        bs_correlation=draw(correlation),
        jammer_correlation=draw(st.none() | correlation),
    )
    scenario = st.builds(
        Scenario,
        st.sampled_from(PILOT_DESIGNS),
        st.sampled_from(JAMMING_CHOICES),
        st.sampled_from(ESTIMATOR_MODES),
    )
    return ExperimentSpec(
        base=base,
        sweep_axis=axis,
        axis_values=tuple(values),
        scenarios=tuple(draw(st.lists(scenario, min_size=1, max_size=4))),
        monte_carlo_trials=draw(trials),
        seed=draw(st.integers(0, 2**64)),
    )


def small_spec(trials=0, seed=0, scenarios=None):
    base = TrainingConfig(
        num_bs_antennas=12,
        num_jammer_antennas=8,
        pilot_length=2,
        bs_power_db=5.0,
        jammer_power_db=5.0,
        bs_correlation=0.7,
    )
    if scenarios is None:
        scenarios = (
            Scenario("optimal", "silent"),
            Scenario("optimal", "eigen-optimal"),
            Scenario("worst-case", "single-shot"),
        )
    return ExperimentSpec(
        base=base,
        sweep_axis="pilot_length",
        axis_values=(2, 4, 8),
        scenarios=scenarios,
        monte_carlo_trials=trials,
        seed=seed,
    )


class TestSpecValidation:
    def test_scenario_label_validation(self):
        with pytest.raises(ConfigError, match="pilot_design"):
            Scenario("best", "silent")
        with pytest.raises(ConfigError, match="jamming"):
            Scenario("optimal", "loud")
        with pytest.raises(ConfigError, match="estimator"):
            Scenario("optimal", "silent", "clairvoyant")

    def test_axis_must_increase(self):
        with pytest.raises(ConfigError, match="increasing"):
            small_spec().__class__(
                base=small_spec().base,
                sweep_axis="pilot_length",
                axis_values=(4, 4, 8),
                scenarios=(Scenario("optimal", "silent"),),
            )

    def test_infeasible_pilot_length_caught_up_front(self):
        base = small_spec().base
        with pytest.raises(ConfigError, match="axis value 16"):
            ExperimentSpec(
                base=base,
                sweep_axis="pilot_length",
                axis_values=(2, 16),  # 16 > 12 BS antennas
                scenarios=(Scenario("optimal", "silent"),),
            )

    def test_infeasible_jammer_antennas_caught_up_front(self):
        base = small_spec().base  # 8 jammer antennas
        with pytest.raises(ConfigError, match="jammer antennas"):
            ExperimentSpec(
                base=base,
                sweep_axis="pilot_length",
                axis_values=(2, 10),
                scenarios=(Scenario("optimal", "eigen-optimal"),),
            )
        # the same sweep is fine when the jammer stays silent
        ExperimentSpec(
            base=base,
            sweep_axis="pilot_length",
            axis_values=(2, 10),
            scenarios=(Scenario("optimal", "silent"),),
        )

    def test_empty_scenarios_rejected(self):
        with pytest.raises(ConfigError, match="scenarios"):
            ExperimentSpec(
                base=small_spec().base,
                sweep_axis="pilot_length",
                axis_values=(2,),
                scenarios=(),
            )

    def test_config_for_point_replaces_swept_field(self):
        base = small_spec().base
        assert config_for_point(base, "pilot_length", 6).pilot_length == 6
        assert config_for_point(base, "bs_antennas", 64).num_bs_antennas == 64


class TestRunSweep:
    def test_row_count_and_order(self):
        spec = small_spec()
        rows = run_sweep(spec, workers=1)
        assert len(rows) == len(spec.axis_values) * len(spec.scenarios)
        expected = [
            (v, s.pilot_design, s.jamming)
            for v in spec.axis_values
            for s in spec.scenarios
        ]
        got = [(r.axis_value, r.pilot_design, r.jamming) for r in rows]
        assert got == expected

    def test_closed_form_only_by_default(self):
        rows = run_sweep(small_spec(), workers=1)
        assert all(r.empirical_mse is None and r.empirical_std_err is None for r in rows)

    def test_monte_carlo_fields_present_when_requested(self):
        rows = run_sweep(small_spec(trials=200, seed=3), workers=1)
        assert all(r.empirical_mse is not None and r.empirical_std_err is not None for r in rows)

    def test_deterministic_for_fixed_seed(self):
        a = run_sweep(small_spec(trials=300, seed=11), workers=1)
        b = run_sweep(small_spec(trials=300, seed=11), workers=1)
        assert a == b

    def test_parallel_equals_serial(self):
        spec = small_spec(trials=200, seed=7)
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        assert serial == parallel

    @pytest.mark.parametrize(
        ("workers", "start_method"), [(1, None), (2, None), (2, "spawn")],
        ids=["1", "2", "2-spawn"],
    )
    def test_points_run_on_one_blas_thread(self, monkeypatch, workers, start_method):
        # with trials, two workers evaluate the points in pool processes; a
        # spawned worker reads OPENBLAS_NUM_THREADS, not its parent's count
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.setattr(experiments, "_evaluate_axis_value", blas_counts_of_point)
        if start_method is not None:
            monkeypatch.setattr(
                experiments, "ProcessPoolExecutor",
                functools.partial(ProcessPoolExecutor, mp_context=get_context(start_method)),
            )
        single = None if _bundled_openblas() is None else 1
        assert run_sweep(small_spec(trials=10), workers=workers) == [single] * 3

    def test_only_block_building_sweeps_start_a_pool(self, monkeypatch):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise RuntimeError("pool started")

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", NoPool)
        assert run_sweep(small_spec(), workers=2) == run_sweep(small_spec(), workers=1)
        with pytest.raises(RuntimeError, match="pool started"):
            run_sweep(small_spec(trials=10), workers=2)
        random_pilots = small_spec(
            scenarios=(Scenario("optimal", "silent"), Scenario("random-unitary", "silent"))
        )
        with pytest.raises(RuntimeError, match="pool started"):
            run_sweep(random_pilots, workers=2)

    def test_one_evd_per_distinct_covariance(self, monkeypatch):
        # with M = N and one correlation, every point's BS and jammer
        # covariances are the same matrix, built once per process
        evds = []
        eigh = np.linalg.eigh

        def counted_eigh(matrix):
            evds.append(matrix.shape)
            return eigh(matrix)

        channel._cached_covariance.cache_clear()
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        base = dataclasses.replace(small_spec().base, num_bs_antennas=8)
        spec = dataclasses.replace(small_spec(trials=10), base=base)
        run_sweep(spec, workers=1)
        assert evds == [(8, 8)]

    def test_silent_curve_lower_bounds_jamming(self):
        spec = small_spec()
        rows = run_sweep(spec, workers=1)
        by_point = {(r.axis_value, r.jamming): r.closed_form_mse for r in rows
                    if r.pilot_design == "optimal"}
        for value in spec.axis_values:
            assert by_point[(value, "eigen-optimal")] >= by_point[(value, "silent")] - 1e-12

    # Below unit correlation and above zero noise every training system is
    # positive definite, so every random spec runs.
    @settings(max_examples=20, deadline=None)
    @given(spec=valid_specs(correlation=st.floats(0.0, 0.99), noise=st.floats(0.1, 10.0),
                            trials=st.integers(1, 40)))
    def test_monte_carlo_csv_bytes_independent_of_workers(self, spec):
        with tempfile.TemporaryDirectory() as tmp:
            data = []
            for workers in (1, 2):
                path = Path(tmp) / f"workers{workers}.csv"
                write_results(run_sweep(spec, workers=workers), path)
                data.append(path.read_bytes())
        assert data[0] == data[1]

    def test_random_pilots_use_point_streams(self):
        scenarios = (Scenario("random-unitary", "silent"),)
        a = run_sweep(small_spec(seed=5, scenarios=scenarios), workers=1)
        b = run_sweep(small_spec(seed=5, scenarios=scenarios), workers=1)
        c = run_sweep(small_spec(seed=6, scenarios=scenarios), workers=1)
        assert a == b
        assert a != c


class TestPointSeeds:
    def test_closed_form_figures_build_no_seed(self, seed_sequences):
        for figure in (1, 2, 3):
            run_sweep(figure_spec(figure), workers=1)
        assert seed_sequences == []

    def test_monte_carlo_sweep_builds_one_seed_per_axis_value(self, seed_sequences):
        run_sweep(small_spec(trials=5), workers=1)
        assert seed_sequences == [(0,), (1,), (2,)]

    def test_random_pilot_sweep_builds_one_seed_per_axis_value(self, seed_sequences):
        scenarios = (Scenario("optimal", "silent"), Scenario("random-unitary", "silent"))
        run_sweep(small_spec(scenarios=scenarios), workers=1)
        assert seed_sequences == [(0,), (1,), (2,)]

    def test_monte_carlo_values_match_stored_run(self):
        stored = read_results(FIGURE2_MC50)
        rows = run_sweep(figure_spec(2, monte_carlo_trials=50))
        assert [dataclasses.astuple(r)[:4] for r in rows] == [
            dataclasses.astuple(r)[:4] for r in stored
        ]
        for field in ("closed_form_mse", "empirical_mse", "empirical_std_err"):
            np.testing.assert_allclose(
                [getattr(r, field) for r in rows],
                [getattr(r, field) for r in stored],
                rtol=1e-9, atol=0, err_msg=field,
            )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_random_pilot_csv_bytes_match_stored_run(self, tmp_path, workers):
        path = tmp_path / "random-pilot-mc-sweep.csv"
        write_results(run_sweep(random_pilot_mc_spec(), workers=workers), path)
        assert path.read_bytes() == RANDOM_PILOT_MC.with_suffix(".csv").read_bytes()


class TestSystemBuilds:
    """Each scenario that builds blocks builds its L x L training system once:
    the closed form of random pilots and the Monte-Carlo filter share it."""

    @staticmethod
    def count_calls(monkeypatch):
        calls = {"_pilot_terms": 0, "solve_hpd": 0}
        for name in calls:
            original = getattr(training, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(training, name, counted)
        return calls

    def test_random_pilot_sweep_builds_one_system_per_row(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        rows = run_sweep(random_pilot_mc_spec(), workers=1)
        assert len(rows) == 6
        # one closed-form solve and one filter solve per row
        assert calls == {"_pilot_terms": 6, "solve_hpd": 12}

    def test_figure_two_with_trials_builds_one_system_per_row(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        rows = run_sweep(figure_spec(2, monte_carlo_trials=50), workers=1)
        assert len(rows) == 100
        # a filter solve per row and a closed-form solve per single-shot row
        assert calls == {"_pilot_terms": 100, "solve_hpd": 120}


class TestRandomPilotClosedForm:
    """A sweep's closed form of random pilots, read off the system it shares
    with the Monte-Carlo filter, is the public ``scenario_closed_form_mse``
    of the same drawn pilots, with and without trials."""

    CFG = TrainingConfig(num_bs_antennas=8, num_jammer_antennas=6, pilot_length=3,
                         bs_power_db=5.0, bs_correlation=0.7, jammer_correlation=0.4)

    @pytest.mark.parametrize("mode", ESTIMATOR_MODES)
    @pytest.mark.parametrize("jamming", JAMMING_CHOICES)
    def test_matches_public_closed_form(self, jamming, mode):
        cfg = self.CFG
        bs_cov, jam_cov = experiments._covariances(cfg)
        pilots = experiments._build_pilots("random-unitary", bs_cov, cfg.pilot_length,
                                           np.random.default_rng(4))
        want = training.scenario_closed_form_mse(
            pilots, experiments._build_jamming(jamming, jam_cov, cfg), bs_cov, jam_cov, cfg, mode
        )
        scenario = Scenario("random-unitary", jamming, mode)
        for trials in (0, 5):
            closed, gains = experiments._evaluate_scenario(
                cfg, scenario, trials, (bs_cov, jam_cov), np.random.default_rng(4)
            )
            assert closed == want
            assert (gains is None) == (trials == 0)


class CountingGenerator:
    """A generator that records the size of every ``standard_normal`` draw,
    its own and those of the streams it spawns."""

    def __init__(self, generator, sizes):
        self.generator, self.sizes = generator, sizes

    def spawn(self, n):
        return [CountingGenerator(g, self.sizes) for g in self.generator.spawn(n)]

    def standard_normal(self, size):
        self.sizes.append(int(np.prod(size)))
        return self.generator.standard_normal(size)

    def __getattr__(self, name):
        return getattr(self.generator, name)


class TestSharedDraws:
    """The scenarios of an axis value share one set of Monte-Carlo draws."""

    MIXED = (
        Scenario("optimal", "silent"),
        Scenario("random-unitary", "single-shot", "jammer-unaware"),
        Scenario("worst-case", "eigen-optimal"),
        Scenario("random-unitary", "silent"),
        Scenario("optimal", "eigen-optimal", "jammer-unaware"),
    )
    SILENT = (Scenario("optimal", "silent"), Scenario("random-unitary", "silent", "jammer-unaware"))

    @pytest.mark.parametrize("trials", [300, _MC_CHUNK + 37], ids=["300", "two-chunks"])
    @pytest.mark.parametrize("scenarios", [MIXED, SILENT], ids=["mixed", "silent"])
    def test_rows_match_the_shared_draws_oracle_bit_for_bit(self, scenarios, trials):
        spec = small_spec(trials=trials, seed=4, scenarios=scenarios)
        rows = run_sweep(spec, workers=1)
        for index, value in enumerate(spec.axis_values):
            want = shared_draws_axis_value(
                config_for_point(spec.base, spec.sweep_axis, value), scenarios, trials,
                np.random.SeedSequence(spec.seed, spawn_key=(index,)),
            )
            got = [(r.empirical_mse, r.empirical_std_err) for r in rows
                   if r.axis_value == value]
            assert got == want, value

    def test_figure_two_draws_each_trial_normal_once(self, monkeypatch):
        # 20 axis values x 500 trials x (100 channel + 100 jammer-channel + L
        # noise) complex normals, two planes each, drawn once for the five
        # scenarios of an axis value
        sizes = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda seed: CountingGenerator(default_rng(seed), sizes)
        )
        rows = run_sweep(figure_spec(2, monte_carlo_trials=500), workers=1)
        assert len(rows) == 100
        assert sum(sizes) == 5_050_000


class TestFailingPoint:
    # with trials, two workers raise in pool processes and pickle the error
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("error", [ArithmeticError, ValueError, np.linalg.LinAlgError])
    def test_names_axis_value_and_scenario(self, monkeypatch, error, workers):
        def fail(cfg, scenario, *args):
            if cfg.pilot_length == 4 and scenario.jamming == "eigen-optimal":
                raise error("boom")
            return real(cfg, scenario, *args)

        real = experiments._evaluate_scenario
        monkeypatch.setattr(experiments, "_evaluate_scenario", fail)
        with pytest.raises(error) as caught:
            run_sweep(small_spec(trials=3), workers=workers)
        assert type(caught.value) is error
        message = "axis value 4, scenario optimal/eigen-optimal/jammer-aware: boom"
        assert str(caught.value) == message
        assert str(pickle.loads(pickle.dumps(caught.value))) == message


class TestWorkers:
    def test_env_variable_controls_default(self, monkeypatch):
        monkeypatch.setenv("FDDJAM_WORKERS", "3")
        assert resolve_workers() == 3

    def test_pool_has_no_more_workers_than_axis_values(self, monkeypatch):
        started = []

        class NoPool:
            def __init__(self, *args, max_workers, **kwargs):
                started.append(max_workers)
                raise RuntimeError("pool started")

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", NoPool)
        monkeypatch.setenv("FDDJAM_WORKERS", "3")
        spec = dataclasses.replace(small_spec(trials=10), axis_values=(2, 4))
        with pytest.raises(RuntimeError, match="pool started"):
            run_sweep(spec)
        assert started == [2]

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("FDDJAM_WORKERS", "3")
        assert resolve_workers(1) == 1

    def test_invalid_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("FDDJAM_WORKERS", "many")
        with pytest.raises(ConfigError, match="FDDJAM_WORKERS"):
            resolve_workers()

    def test_default_is_at_least_one(self, monkeypatch):
        monkeypatch.delenv("FDDJAM_WORKERS", raising=False)
        assert resolve_workers() >= 1


class TestCsvRoundTrip:
    def test_empty_rows_give_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_results([], path)
        assert path.read_text() == ",".join(CSV_HEADER) + "\n"
        assert read_results(path) == []

    def test_round_trip_values_and_byte_stability(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [
            ResultRow(
                axis_value=i + 1,
                pilot_design="optimal",
                jamming="silent",
                estimator_mode="jammer-aware",
                closed_form_mse=float(rng.uniform(0, 1)),
                empirical_mse=float(rng.uniform(0, 1)) if i % 2 else None,
                empirical_std_err=float(rng.uniform(0, 0.01)) if i % 2 else None,
            )
            for i in range(50)
        ]
        path = tmp_path / "rows.csv"
        write_results(rows, path)
        loaded = read_results(path)
        assert len(loaded) == 50
        for original, parsed in zip(rows, loaded):
            assert parsed.axis_value == original.axis_value
            assert parsed.pilot_design == original.pilot_design
            # 12 significant digits survive the round trip
            assert parsed.closed_form_mse == pytest.approx(
                original.closed_form_mse, rel=1e-11
            )
        # a second serialization of the parsed rows is byte-identical
        path2 = tmp_path / "rows2.csv"
        write_results(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_read_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError, match="header"):
            read_results(path)

    @pytest.mark.parametrize(
        ("record", "problem"),
        [("x,optimal,silent,jammer-aware,0.5,,", "invalid literal for int"),
         ("5,optimal,silent,jammer-aware,abc,,", "could not convert string to float"),
         ("5,optimal,silent,jammer-aware,0.5,0.4,nope", "could not convert string to float"),
         ("5,optimal,silent", "not enough values"),
         ("-1,[1],x,{},nan,-inf,", "axis must be an integer >= 0, got -1"),
         ("5,optimal,loud,jammer-aware,0.5,,", "jamming must be one of"),
         ("5,optimal,silent,jammer-aware,nan,,", "mse_closed must be a real number"),
         ("5,optimal,silent,jammer-aware,0.5,-inf,0.1", "mse_empirical must be a real number"),
         ("5,optimal,silent,jammer-aware,0.5,0.4,-0.1", "std_err must be a real number"),
         ("5,optimal,silent,jammer-aware,0.5,0.4,", "both empty or both set"),
         ("1_0,optimal,silent,jammer-aware, 0.5 ,,", "axis '1_0' is not in the form"),
         ("10,optimal,silent,jammer-aware, 0.5 ,,", "mse_closed ' 0.5 ' is not in the form"),
         ("10,optimal,silent,jammer-aware,0.5,0.40,0.1", "mse_empirical '0.40' is not"),
         ("010,optimal,silent,jammer-aware,0.5,,", "axis '010' is not in the form")],
        ids=["axis", "closed", "std-err", "short", "unwritten-row", "label",
             "nan-closed", "infinite-empirical", "negative-std-err", "half-empirical",
             "underscore-axis", "spaced-closed", "trailing-zero", "leading-zero-axis"],
    )
    def test_read_names_file_and_record_of_a_bad_field(self, tmp_path, record, problem):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_HEADER) + "\n" + record + "\n")
        with pytest.raises(ConfigError, match="malformed CSV record") as info:
            read_results(path)
        message = str(info.value)
        assert str(path) in message and repr(record.split(",")) in message
        assert problem in message

    def test_read_names_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "utf16.csv"
        path.write_bytes(b"\xff\xfe" + ",".join(CSV_HEADER).encode("utf-16-le"))
        with pytest.raises(ConfigError, match=f"{path} is not UTF-8 text"):
            read_results(path)

    def test_write_failure_carries_path(self, tmp_path):
        target = tmp_path / "missing" / "out.csv"
        with pytest.raises(OSError, match="out.csv"):
            write_results([], target)


class TestMetadataSidecar:
    def test_written_only_with_spec(self, tmp_path):
        path = tmp_path / "results.csv"
        write_results([], path)
        assert not metadata_path(path).exists()
        write_results([], path, spec=small_spec())
        assert metadata_path(path).exists()

    def test_broken_json_names_file(self, tmp_path):
        meta = tmp_path / "results.meta.json"
        meta.write_text('{"spec": ')
        with pytest.raises(ConfigError, match=f"{meta} is not valid JSON"):
            load_metadata_spec(meta)

    def test_non_utf8_names_file(self, tmp_path):
        meta = tmp_path / "results.meta.json"
        meta.write_bytes(b"\xff\xfe" + '{"spec": {}}'.encode("utf-16-le"))
        with pytest.raises(ConfigError, match=f"{meta} is not UTF-8 text"):
            load_metadata_spec(meta)

    @pytest.mark.parametrize("axis", [["pilot_length"], {"pilot_length": 1}])
    def test_non_string_sweep_axis_raises_config_error(self, tmp_path, axis):
        path = tmp_path / "results.csv"
        write_results([], path, spec=small_spec())
        meta = metadata_path(path)
        doc = json.loads(meta.read_text())
        doc["spec"]["sweep_axis"] = axis
        meta.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="unknown sweep_axis"):
            load_metadata_spec(meta)

    def test_sidecar_spec_round_trip(self, tmp_path):
        spec = small_spec(trials=100, seed=9)
        path = tmp_path / "results.csv"
        write_results(run_sweep(spec, workers=1), path, spec=spec)
        doc = json.loads(metadata_path(path).read_text())
        assert doc["artifact"] == "fddjam"
        assert "version" in doc
        assert load_metadata_spec(metadata_path(path)) == spec

    def test_rows_regenerate_from_sidecar(self, tmp_path):
        spec = small_spec(trials=150, seed=123)
        rows = run_sweep(spec, workers=1)
        path = tmp_path / "results.csv"
        write_results(rows, path, spec=spec)
        rebuilt = load_metadata_spec(metadata_path(path))
        again = run_sweep(rebuilt, workers=1)
        assert again == rows
        path2 = tmp_path / "again.csv"
        write_results(again, path2, spec=rebuilt)
        assert path.read_bytes() == path2.read_bytes()


class TestConfigSchema:
    def base_dict(self):
        return {
            "num_bs_antennas": 12,
            "num_jammer_antennas": 8,
            "bs_power_db": 5.0,
            "bs_correlation": 0.7,
            "sweep_axis": "pilot_length",
            "axis_values": [2, 4, 8],
            "scenarios": [
                {"pilot_design": "optimal", "jamming": "silent"},
                {"pilot_design": "optimal", "jamming": "eigen-optimal"},
            ],
        }

    def test_round_trip(self):
        spec = small_spec(trials=10, seed=4)
        assert spec_from_dict(spec_to_dict(spec)) == spec

    @settings(max_examples=200, deadline=None)
    @given(spec=valid_specs())
    def test_json_round_trip_of_random_specs(self, spec):
        assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec

    def test_bs_power_that_rounds_to_zero_is_rejected(self):
        # 5e-324 * 10 ** -0.4 rounds to 0: no BS power
        with pytest.raises(ValueError, match="bs_power_db"):
            TrainingConfig(num_bs_antennas=1, num_jammer_antennas=1, pilot_length=1,
                           bs_power_db=-4.0, jammer_power_db=0.0, noise_variance=5e-324)

    def test_defaults(self):
        spec = spec_from_dict(self.base_dict())
        assert spec.base.jammer_power_db == 5.0
        assert spec.base.jammer_correlation == 0.7
        assert spec.base.noise_variance == 1.0
        assert spec.monte_carlo_trials == 0
        assert spec.seed == 0
        assert spec.base.pilot_length == 2  # seeded from the first axis value
        assert spec.scenarios[0].estimator_mode == "jammer-aware"

    def test_lemma_config_defaults(self):
        data = {**self.base_dict(), "pilot_length": 2}
        for key in ("sweep_axis", "axis_values", "scenarios"):
            del data[key]
        cfg, pilot_design, num_random, seed = experiments._lemma_from_dict(data)
        assert cfg == spec_from_dict(self.base_dict()).base
        assert (pilot_design, num_random, seed) == ("optimal", 500, 0)
        with pytest.raises(ConfigError, match="unknown config keys"):
            experiments._lemma_from_dict(self.base_dict())

    @pytest.mark.parametrize("design", ["best", ["optimal"], None])
    def test_lemma_and_scenario_share_the_label_rule(self, design):
        data = {**self.base_dict(), "pilot_length": 2, "pilot_design": design}
        for key in ("sweep_axis", "axis_values", "scenarios"):
            del data[key]
        with pytest.raises(ConfigError) as lemma:
            experiments._lemma_from_dict(data)
        with pytest.raises(ConfigError) as scenario:
            Scenario(design, "silent")
        expected = f"pilot_design must be one of {PILOT_DESIGNS}, got {design!r}"
        assert str(lemma.value) == str(scenario.value) == expected

    def test_unknown_key_is_hard_error(self):
        data = self.base_dict()
        data["bs_corelation"] = 0.7  # typo
        with pytest.raises(ConfigError, match="unknown config keys"):
            spec_from_dict(data)

    def test_unknown_scenario_key_is_hard_error(self):
        data = self.base_dict()
        data["scenarios"][0]["pilots"] = "optimal"
        with pytest.raises(ConfigError, match="scenario"):
            spec_from_dict(data)

    def test_missing_required_key(self):
        data = self.base_dict()
        del data["bs_power_db"]
        with pytest.raises(ConfigError, match="missing config keys"):
            spec_from_dict(data)

    @pytest.mark.parametrize(
        ("axis", "values", "swept", "unswept", "size"),
        [("bs_antennas", [16, 32], "num_bs_antennas", "pilot_length", 4),
         ("pilot_length", [2, 4], "pilot_length", "num_bs_antennas", 12)],
        ids=["bs_antennas", "pilot_length"],
    )
    def test_sweep_requires_unswept_size(self, axis, values, swept, unswept, size):
        data = self.base_dict()
        data["sweep_axis"] = axis
        data["axis_values"] = values
        del data["num_bs_antennas"]
        with pytest.raises(ConfigError, match=rf"missing config keys: \['{unswept}'\]"):
            spec_from_dict(data)
        data[unswept] = size
        spec = spec_from_dict(data)
        assert getattr(spec.base, swept) == values[0]

    def test_invalid_physics_parameters_wrapped(self):
        data = self.base_dict()
        data["bs_correlation"] = 1.5
        with pytest.raises(ConfigError, match="training parameters"):
            spec_from_dict(data)


class TestFigureSpecs:
    def test_training_length_sweeps(self):
        for figure, corr in ((1, 0.4), (2, 0.7)):
            spec = figure_spec(figure)
            assert spec.sweep_axis == "pilot_length"
            assert spec.axis_values == tuple(range(5, 101, 5))
            assert spec.base.num_bs_antennas == 100
            assert spec.base.num_jammer_antennas == 100
            assert spec.base.bs_correlation == corr
            assert len(spec.scenarios) == 5

    def test_array_size_sweep(self):
        spec = figure_spec(3)
        assert spec.sweep_axis == "bs_antennas"
        assert spec.axis_values == tuple(range(25, 201, 5))
        assert spec.base.pilot_length == 20
        assert spec.base.num_jammer_antennas == 25
        assert spec.base.bs_correlation == 0.7

    def test_unknown_figure(self):
        with pytest.raises(ConfigError, match="figure"):
            figure_spec(4)

    @pytest.mark.parametrize("figure", [1, 2, 3])
    def test_rows_match_benchmark_reference(self, figure):
        reference = read_results(REFERENCE_DIR / f"figure{figure}.csv")
        rows = run_sweep(figure_spec(figure))
        labels = [(r.axis_value, r.pilot_design, r.jamming, r.estimator_mode) for r in rows]
        assert labels == [
            (r.axis_value, r.pilot_design, r.jamming, r.estimator_mode) for r in reference
        ]
        for row, ref in zip(rows, reference):
            bound = 1e-12 * max(1.0, abs(ref.closed_form_mse))
            assert abs(row.closed_form_mse - ref.closed_form_mse) <= bound, row
