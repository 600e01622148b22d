"""Tests for sweep orchestration, persistence and the config schema."""

import functools
import json
import tempfile
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fddjam import experiments
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
from fddjam.linalg import _openblas_copies
from fddjam.training import ESTIMATOR_MODES, PILOT_DESIGNS, TrainingConfig

# Closed-form figure rows stored with the benchmark, at 12 significant digits.
REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def blas_counts_of_point(spec, axis_index):
    # Stands in for one grid point's evaluation: its "rows" are the live
    # thread counts of the OpenBLAS copies in the evaluating process.
    return [tuple(get() for get, _ in _openblas_copies())]


@st.composite
def valid_specs(draw, correlation=st.floats(0.0, 1.0), noise=st.floats(0.0, 10.0),
                trials=st.integers(0, 10**6)):
    """Random feasible specs on either axis, every scenario kind mixed in."""
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
        with pytest.raises(ConfigError, match="pilot design"):
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
        single = (1,) * len(_openblas_copies())
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


class TestWorkers:
    def test_env_variable_controls_default(self, monkeypatch):
        monkeypatch.setenv("FDDJAM_WORKERS", "3")
        assert resolve_workers() == 3
        assert resolve_workers(max_useful=2) == 2

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

    def test_defaults(self):
        spec = spec_from_dict(self.base_dict())
        assert spec.base.jammer_power_db == 5.0
        assert spec.base.jammer_correlation == 0.7
        assert spec.base.noise_variance == 1.0
        assert spec.monte_carlo_trials == 0
        assert spec.seed == 0
        assert spec.base.pilot_length == 2  # seeded from the first axis value
        assert spec.scenarios[0].estimator_mode == "jammer-aware"

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
