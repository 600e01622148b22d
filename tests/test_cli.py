"""End-to-end tests of the command-line interface."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fddjam
from fddjam import cli
from fddjam.cli import main
from fddjam import experiments
from fddjam.experiments import JAMMING_CHOICES, load_metadata_spec, read_results
from fddjam.linalg import _bundled_openblas
from fddjam.training import ESTIMATOR_MODES, PILOT_DESIGNS
from test_experiments import CountingGenerator


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_commands_run_on_one_blas_thread(monkeypatch):
    seen = []
    blas = _bundled_openblas()

    def record(args):
        seen.append(None if blas is None else blas[0]())
        return 0

    monkeypatch.setitem(cli._COMMANDS, "mse", record)
    assert main(["mse", "--M", "4", "--L", "2", "--r", "0", "--pb-db", "0"]) == 0
    assert seen == [None if blas is None else 1]


def modules_after_importing_the_cli(*names):
    """Which of ``names`` a fresh interpreter has loaded after ``import fddjam.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(fddjam.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    code = f"import sys, fddjam.cli; print(sorted({set(names)!r} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                          capture_output=True, text=True)
    return done.stdout.strip()


def test_runtime_does_not_import_scipy():
    assert modules_after_importing_the_cli("scipy") == "[]"


def test_cli_does_not_import_a_process_pool():
    # only a sweep that starts worker processes loads them
    assert modules_after_importing_the_cli("multiprocessing", "concurrent.futures") == "[]"


class TestMseCommand:
    def test_analytic_identity_case(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["mse", "--M", "4", "--L", "2", "--r", "0", "--pb-db", "0",
             "--pilot", "optimal", "--jamming", "silent", "--trials", "0"],
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "axis,pilot_design,jamming,estimator_mode,mse_closed,mse_empirical,std_err"
        fields = row.split(",")
        assert fields[0] == "2"
        assert float(fields[4]) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert fields[5] == "" and fields[6] == ""

    def test_byte_identical_reruns_with_trials(self, capsys):
        argv = ["mse", "--M", "4", "--L", "2", "--r", "0", "--pb-db", "0",
                "--seed", "7", "--trials", "10000"]
        code1, out1, _ = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.strip().splitlines()[1].split(",")[5] != ""

    def test_infeasible_dimensions_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, ["mse", "--M", "4", "--L", "9", "--r", "0", "--pb-db", "0"]
        )
        assert code == 2
        assert "error:" in err

    def test_jammer_needs_enough_antennas(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["mse", "--M", "8", "--N", "2", "--L", "4", "--r", "0.5",
             "--pb-db", "5", "--jamming", "eigen-optimal"],
        )
        assert code == 2
        assert "antennas" in err
        # the scenario is named as a sweep names its failing point
        assert "error: axis value 4, scenario optimal/eigen-optimal/jammer-aware: " in err

    @pytest.mark.parametrize(
        ("flags", "key"),
        [(["--pb-db", "nan"], "bs_power_db"),
         (["--pb-db", "0", "--pj-db", "3100", "--jamming", "single-shot"],
          "jammer_power_db"),
         (["--pb-db", "0", "--seed", "-1"], "--seed")],
    )
    def test_bad_power_exit_2_naming_key(self, capsys, flags, key):
        code, _, err = run_cli(capsys, ["mse", "--M", "4", "--L", "2", "--r", "0", *flags])
        assert code == 2
        assert key in err

    def test_minus_infinity_jammer_power_is_silent(self, capsys):
        # argparse reads "-inf" as a flag unless it is joined with "="
        base = ["mse", "--M", "4", "--L", "2", "--r", "0.5", "--pb-db", "5"]
        code, out, _ = run_cli(capsys, [*base, "--pj-db=-inf", "--jamming", "eigen-optimal"])
        silent_code, silent_out, _ = run_cli(capsys, [*base, "--jamming", "silent"])
        assert code == silent_code == 0
        mse_closed = out.strip().splitlines()[1].split(",")[4]
        assert mse_closed == silent_out.strip().splitlines()[1].split(",")[4]
        assert mse_closed == "0.299479077298"

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["mse", "--M", "4", "--L", "2", "--r", "0", "--pb-db", "0",
                  "--frobnicate", "1"])
        assert exc.value.code == 2

    def test_monte_carlo_stream_is_pinned(self, capsys):
        # The single-scenario command seeds one stream from --seed directly;
        # a sweep's per-point stream would move the Monte-Carlo estimate.
        code, out, _ = run_cli(
            capsys,
            ["mse", "--M", "16", "--L", "4", "--r", "0.7", "--pb-db", "5",
             "--pilot", "random-unitary", "--jamming", "eigen-optimal",
             "--trials", "2000", "--seed", "3"],
        )
        assert code == 0
        fields = out.strip().splitlines()[1].split(",")
        assert fields[:4] == ["4", "random-unitary", "eigen-optimal", "jammer-aware"]
        assert [float(f) for f in fields[4:]] == pytest.approx(
            [0.851869810701, 0.843014650874, 0.00748985513122], rel=1e-9
        )

    def test_every_scenario_row_is_pinned(self, capsys):
        # closed form and 500 trials of both estimators, as printed at 12 digits
        rows = []
        for pilot in PILOT_DESIGNS:
            for jamming in JAMMING_CHOICES:
                for mode in ESTIMATOR_MODES:
                    code, out, _ = run_cli(
                        capsys,
                        ["mse", "--M", "16", "--L", "4", "--r", "0.7", "--pb-db", "5",
                         "--trials", "500", "--seed", "3", "--pilot", pilot,
                         "--jamming", jamming, "--estimator", mode],
                    )
                    assert code == 0
                    header, row = out.splitlines()
                    rows.append(row)
        pinned = Path(__file__).resolve().parent / "data" / "mse-18.txt"
        assert [header, *rows] == pinned.read_text().splitlines()


class TestSweepCommand:
    def config_payload(self):
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
            "monte_carlo_trials": 100,
            "seed": 5,
        }

    def test_end_to_end(self, capsys, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(self.config_payload()))
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, ["sweep", "--config", str(config), "--out", str(out_dir)]
        )
        assert code == 0
        csv_path = out_dir / "exp.csv"
        assert csv_path.exists()
        rows = read_results(csv_path)
        assert len(rows) == 6
        assert all(r.empirical_mse is not None for r in rows)
        sidecar = out_dir / "exp.meta.json"
        assert load_metadata_spec(sidecar).seed == 5

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        code, _, err = run_cli(
            capsys, ["sweep", "--config", str(config), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("command", ["sweep", "verify-lemma"])
    @pytest.mark.parametrize(
        ("content", "problem"),
        [(b"{not json", "is not valid JSON"), (b"\xff\xfe{}", "is not UTF-8 text")],
        ids=["broken-json", "utf16-bom"],
    )
    def test_unreadable_config_exit_2_naming_file(
        self, capsys, tmp_path, command, content, problem
    ):
        config = tmp_path / "bad-config.json"
        config.write_bytes(content)
        argv = [command, "--config", str(config)]
        if command == "sweep":
            argv += ["--out", str(tmp_path)]
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert f"error: {config} {problem}" in err

    @pytest.mark.parametrize("axis", [["pilot_length"], {}, None, 3])
    def test_non_string_sweep_axis_exit_2_naming_it(self, capsys, tmp_path, axis):
        payload = self.config_payload()
        payload["sweep_axis"] = axis
        config = tmp_path / "axis.json"
        config.write_text(json.dumps(payload))
        code, _, err = run_cli(
            capsys, ["sweep", "--config", str(config), "--out", str(tmp_path)]
        )
        assert code == 2
        assert f"error: unknown sweep_axis {axis!r}" in err

    def test_unknown_config_key_exit_2(self, capsys, tmp_path):
        payload = self.config_payload()
        payload["bs_corelation"] = 0.7
        config = tmp_path / "typo.json"
        config.write_text(json.dumps(payload))
        code, _, err = run_cli(
            capsys, ["sweep", "--config", str(config), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "unknown config keys" in err

    @settings(max_examples=40, deadline=None)
    @given(key=st.text(min_size=1), in_scenario=st.booleans())
    def test_any_unknown_key_exit_2_naming_it(self, key, in_scenario):
        known = (
            experiments._SCENARIO_KEYS if in_scenario
            else experiments._REQUIRED_KEYS | experiments._OPTIONAL_KEYS
        )
        assume(key not in known)
        payload = self.config_payload()
        (payload["scenarios"][-1] if in_scenario else payload)[key] = 1
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(stderr):
            config = Path(tmp) / "typo.json"
            config.write_text(json.dumps(payload))
            code = main(["sweep", "--config", str(config), "--out", tmp])
            assert not (Path(tmp) / "typo.csv").exists()
        assert code == 2
        assert repr(key) in stderr.getvalue()

    @pytest.mark.parametrize(
        ("key", "value"),
        [("seed", None), ("monte_carlo_trials", [3]), ("axis_values", [2, None]),
         ("axis_values", [2, 4.5]), ("monte_carlo_trials", True), ("seed", False)],
        ids=["seed-null", "trials-list", "axis-value-null", "axis-value-fraction",
             "trials-true", "seed-false"],
    )
    def test_bad_count_exit_2_naming_key(self, capsys, tmp_path, key, value):
        payload = self.config_payload()
        payload[key] = value
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(payload))
        code, _, err = run_cli(
            capsys, ["sweep", "--config", str(config), "--out", str(tmp_path)]
        )
        assert code == 2
        assert key in err

    def test_singular_training_system_exit_1(self, capsys, tmp_path):
        payload = {
            "num_bs_antennas": 4,
            "num_jammer_antennas": 4,
            "bs_power_db": 5.0,
            "bs_correlation": 1.0,
            "noise_variance": 0,
            "sweep_axis": "pilot_length",
            "axis_values": [2],
            "scenarios": [{"pilot_design": "optimal", "jamming": "silent"}],
        }
        config = tmp_path / "singular.json"
        config.write_text(json.dumps(payload))
        with pytest.warns(RuntimeWarning, match="rank-one"):
            code, _, err = run_cli(
                capsys, ["sweep", "--config", str(config), "--out", str(tmp_path)]
            )
        assert code == 1
        assert "not positive definite" in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_singular_sweep_names_failing_point(self, tmp_path, workers):
        # a fresh interpreter, so the pool workers keep default warning filters
        config = Path(__file__).resolve().parent / "data" / "singular-sweep.json"
        env = dict(os.environ, FDDJAM_WORKERS=workers)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(fddjam.__file__).parents[1]), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-m", "fddjam.cli", "sweep", "--config", str(config),
             "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1, done.stderr
        assert (
            "error: axis value 2, scenario optimal/silent/jammer-aware: "
            "matrix is not positive definite" in done.stderr
        )
        assert not (tmp_path / "singular-sweep.csv").exists()

    def test_singular_sweep_with_trials_fails_before_any_draw(self, capsys, monkeypatch,
                                                              tmp_path):
        payload = json.loads((Path(__file__).resolve().parent / "data" /
                              "singular-sweep.json").read_text())
        payload["monte_carlo_trials"] = 10
        config = tmp_path / "singular-mc.json"
        config.write_text(json.dumps(payload))
        monkeypatch.setenv("FDDJAM_WORKERS", "1")
        sizes = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda seed: CountingGenerator(default_rng(seed), sizes)
        )
        with pytest.warns(RuntimeWarning, match="rank-one"):
            code, _, err = run_cli(
                capsys, ["sweep", "--config", str(config), "--out", str(tmp_path)]
            )
        assert code == 1
        assert ("error: axis value 2, scenario optimal/silent/jammer-aware: "
                "matrix is not positive definite") in err
        assert sizes == []
        assert not (tmp_path / "singular-mc.csv").exists()

    def test_missing_config_file_nonzero(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            ["sweep", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)],
        )
        assert code == 1
        assert "error:" in err


class TestFigureCommand:
    def test_figure_one_curves(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, ["figure", "1", "--out", str(tmp_path)])
        assert code == 0
        rows = read_results(tmp_path / "figure1.csv")
        assert len(rows) == 100  # 20 grid points x 5 scenarios
        silent = [r.closed_form_mse for r in rows
                  if r.pilot_design == "optimal" and r.jamming == "silent"]
        assert len(silent) == 20
        assert all(b < a for a, b in zip(silent, silent[1:]))
        jammed_end = [r.closed_form_mse for r in rows
                      if r.pilot_design == "optimal" and r.jamming == "eigen-optimal"
                      and r.axis_value == 100]
        assert abs(jammed_end[0] - 0.5) <= 0.1
        assert (tmp_path / "figure1.meta.json").exists()

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "9", "--out", "/tmp"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--trials=-1", "--seed=-3"])
    def test_bad_count_exit_2_naming_flag(self, capsys, tmp_path, flag):
        code, _, err = run_cli(capsys, ["figure", "1", "--out", str(tmp_path), flag])
        assert code == 2
        assert flag.split("=")[0] in err
        assert not (tmp_path / "figure1.csv").exists()


class TestVerifyLemmaCommand:
    def test_report_output(self, capsys, tmp_path):
        config = tmp_path / "lemma.json"
        config.write_text(json.dumps({
            "num_bs_antennas": 8,
            "num_jammer_antennas": 4,
            "pilot_length": 2,
            "bs_power_db": 5.0,
            "bs_correlation": 0.7,
            "num_random": 300,
            "seed": 2,
        }))
        code, out, _ = run_cli(capsys, ["verify-lemma", "--config", str(config)])
        assert code == 0
        assert "eigen-optimal objective:" in out
        assert "best random objective:" in out
        assert "random samples:          300" in out
        assert "MSE counterexample:" in out

    @staticmethod
    def assert_pinned(name, workers):
        """``verify-lemma`` on ``tests/data/<name>.json``, in a fresh
        interpreter, prints ``tests/data/<name>.txt``."""
        config = Path(__file__).resolve().parent / "data" / f"{name}.json"
        env = dict(os.environ, FDDJAM_WORKERS=workers)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(fddjam.__file__).parents[1]), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-m", "fddjam.cli", "verify-lemma", "--config", str(config)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == config.with_suffix(".txt").read_text()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_stdout_is_pinned_for_any_worker_count(self, workers):
        # 64 BS and jammer antennas, L = 16, 2,000 candidates: the stdout
        # the one-candidate-at-a-time loop printed
        self.assert_pinned("verify-lemma-64", workers)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_random_pilot_stdout_is_pinned_for_any_worker_count(self, workers):
        # random-unitary pilots at 32x8, so R of ΛX is complex: the stdout
        # of the lemma that solved against CP in the antenna basis
        self.assert_pinned("verify-lemma-random", workers)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_worst_case_pilot_stdout_is_pinned_for_any_worker_count(self, workers):
        # worst-case pilots at 32x8, 500 candidates: the stdout of the lemma
        # whose pilot terms were built in the antenna basis
        self.assert_pinned("verify-lemma-worst", workers)

    @pytest.mark.parametrize(
        ("key", "value"),
        [("seed", -1), ("num_random", -5), ("pilot_design", "fancy")],
    )
    def test_bad_value_exit_2_naming_key(self, capsys, tmp_path, key, value):
        config = tmp_path / "lemma.json"
        config.write_text(json.dumps({
            "num_bs_antennas": 8,
            "num_jammer_antennas": 4,
            "pilot_length": 2,
            "bs_power_db": 5.0,
            "bs_correlation": 0.7,
            key: value,
        }))
        code, _, err = run_cli(capsys, ["verify-lemma", "--config", str(config)])
        assert code == 2
        assert key in err

    def test_unknown_key_exit_2(self, capsys, tmp_path):
        config = tmp_path / "lemma.json"
        config.write_text(json.dumps({
            "num_bs_antennas": 8,
            "num_jammer_antennas": 4,
            "pilot_length": 2,
            "bs_power_db": 5.0,
            "bs_correlation": 0.7,
            "samples": 10,
        }))
        code, _, err = run_cli(capsys, ["verify-lemma", "--config", str(config)])
        assert code == 2
        assert "unknown config keys" in err
