"""Self-tests of the benchmark harness (not of fddjam).

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks as gates  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# -- spans -----------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    s = [
        spans.Span("root", 0.0, 10.0, None),
        spans.Span("a", 1.0, 3.0, 0),
        spans.Span("b", 2.0, 4.0, 0),    # overlaps a: union of a and b is [1, 4]
        spans.Span("c", 9.0, 12.0, 0),   # only [9, 10] lies inside root
        spans.Span("a.child", 1.5, 2.5, 1),
    ]
    own = spans.self_times(s)
    assert own == pytest.approx([10 - 3 - 1, 2 - 1, 2, 3, 1])


def test_summarize_adds_self_and_inclusive_time_per_name():
    s = [
        spans.Span("outer", 0.0, 4.0, None),
        spans.Span("inner", 1.0, 2.0, 0),
        spans.Span("inner", 2.5, 3.0, 0),
    ]
    table = spans.summarize(s)
    assert table["outer"] == pytest.approx({"calls": 1, "self_s": 2.5, "total_s": 4.0})
    assert table["inner"] == pytest.approx({"calls": 2, "self_s": 1.5, "total_s": 1.5})


def test_patched_records_nested_spans_and_restores_attributes():
    module = types.ModuleType("perfbench_fake_layer")
    module.leaf = lambda x: x + 1
    module.outer = lambda x: module.leaf(x) * 2
    sys.modules[module.__name__] = module
    original_outer = module.outer
    try:
        tracer = spans.Tracer()
        targets = [(module.__name__, "outer", "layer.outer", None),
                   (module.__name__, "leaf", "layer.leaf", lambda a, k: {"x": a[0]}),
                   (module.__name__, "gone", "layer.gone", None)]
        with tracer.patched(targets):
            assert module.outer(3) == 8
        assert module.outer is original_outer
        assert tracer.missing == [f"{module.__name__}.gone"]
        assert [(s.name, s.parent, s.attrs) for s in tracer.spans] == [
            ("layer.outer", None, {}), ("layer.leaf", 0, {"x": 3})]
        assert all(s.end >= s.start for s in tracer.spans)
    finally:
        del sys.modules[module.__name__]


# -- metric names ------------------------------------------------------------

def _fake_report():
    summary = {name: {"calls": 2, "self_s": 0.5, "total_s": 1.0}
               for name in ("channel.cov", "linalg.evd", "training.closed_form")}
    trace = {"summary": summary, "cov_builds": 4, "cov_distinct": 1, "mc_trials": 0,
             "serial_s": 2.0, "parallel_s": 1.5, "traced_serial_s": 2.1,
             "serial_1blas_s": 0.5, "parallel_lemma_s": 0.0, "csv_bytes": 10,
             "work": {"rows": 10, "mc_trials": 0, "lemma_candidates": 0}}
    return {
        "env": {"workers": 2, "blas_threads": {"numpy": 2, "scipy": 2},
                "oversubscription": 2.0},
        "trace": trace,
        "run": {"pass_s": [3.0, 2.0, 4.0], "work": trace["work"], "peak_rss_mb": 100.0},
        "max_abs_z": 0.0,
    }


def test_benchmark_names_are_well_formed_and_unique():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_reported_metrics_are_exactly_those_declared():
    report = _fake_report()
    e2e = run.end_to_end([0.5, 0.6, 0.4], report)
    layer = run.per_layer([{"cli_import_s": 0.4}], [0.7, 0.8, 0.9], report, 0.0)
    assert list(e2e) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(layer) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert layer["channel.cov_reuse_ratio"] == pytest.approx(0.25)
    assert layer["experiments.parallel_efficiency"] == pytest.approx(2.0 / 3.0)
    assert e2e["sweep_s"] == 3.0 and e2e["rows_per_s"] == pytest.approx(10 / 3)
    assert all(v != 0 for v in e2e.values())


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 21)]
    value, pct = run.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(50.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


# -- correctness gates -------------------------------------------------------

def _reference_rows():
    return gates.read_reference("figure1")


def test_reference_gate_passes_on_the_reference_itself():
    checks = gates.Checks()
    gates.check_reference(checks, "figure1", _reference_rows(), _reference_rows())
    assert checks.attempted > 100 and checks.error_rate == 0


def test_corrupted_reference_row_drives_error_rate_above_zero():
    rows = _reference_rows()
    corrupted = list(rows)
    r = corrupted[17]
    corrupted[17] = (*r[:4], r[4] + 1e-8, *r[5:])
    checks = gates.Checks()
    gates.check_reference(checks, "figure1", rows, corrupted)
    assert checks.failed == 1 and checks.error_rate > 0


def test_flipped_csv_byte_drives_error_rate_above_zero():
    data = (gates.REFERENCE_DIR / "figure1.csv").read_bytes()
    flipped = bytearray(data)
    flipped[len(flipped) // 2] ^= 0x01
    checks = gates.Checks()
    gates.check_identical(checks, "figure1", data, data)
    gates.check_identical(checks, "figure1", bytes(flipped), data)
    assert checks.attempted == 2 and checks.failed == 1


def test_round_trip_gate_compares_at_csv_precision():
    rows = [(5, "optimal", "silent", "jammer-aware", 0.1234567890123456, None, None)]
    same = [(5, "optimal", "silent", "jammer-aware", 0.123456789012, None, None)]
    off = [(5, "optimal", "silent", "jammer-aware", 0.123456789013, None, None)]
    checks = gates.Checks()
    gates.check_round_trip(checks, "rt", same, rows)
    assert checks.failed == 0
    gates.check_round_trip(checks, "rt", off, rows)
    assert checks.failed == 1


def test_mc_gate_trips_beyond_five_standard_errors():
    ok = (5, "optimal", "silent", "jammer-aware", 0.5, 0.5 + 4.9e-3, 1e-3)
    bad = (5, "optimal", "silent", "jammer-aware", 0.5, 0.5 - 5.1e-3, 1e-3)
    checks = gates.Checks()
    worst = gates.check_mc_agreement(checks, "mc", [ok, bad])
    assert worst == pytest.approx(5.1) and checks.failed == 1


def test_close_gate_for_the_lemma_cross_check():
    checks = gates.Checks()
    gates.check_close(checks, "lemma", 0.6315997384535819, 0.6315997384535819 + 5e-10)
    gates.check_close(checks, "lemma", 0.6315997384535819, 0.6315997384535819 + 2e-9)
    assert checks.failed == 1


def test_run_refuses_a_checkout_without_fddjam_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "figure-mc", "--seed", "1", "--seconds", "1",
                     "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
