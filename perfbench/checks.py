"""Correctness gates of the benchmark; every check counts towards ``error_rate``.

The gates read rows as plain tuples and CSV files as bytes, so they do not
share code with the fddjam functions whose output they judge.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Closed-form rows must match the stored reference this closely.
REFERENCE_ATOL = 1e-9

# Largest accepted |mc - closed| / std_err of a Monte-Carlo row.
MC_MAX_ABS_Z = 5.0


class Checks:
    """Tally of correctness checks attempted and failed, with failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def row_tuple(row) -> tuple:
    """(axis, pilot, jamming, estimator, closed, empirical, std_err) of a ResultRow."""
    return (int(row.axis_value), row.pilot_design, row.jamming, row.estimator_mode,
            row.closed_form_mse, row.empirical_mse, row.empirical_std_err)


def read_reference(name: str) -> list[tuple]:
    """Rows of ``reference/<name>.csv`` as tuples with float columns parsed."""
    text = (REFERENCE_DIR / f"{name}.csv").read_text()
    records = list(csv.reader(io.StringIO(text)))[1:]

    def num(field):
        return None if field == "" else float(field)

    return [(int(r[0]), r[1], r[2], r[3], num(r[4]), num(r[5]), num(r[6])) for r in records]


def check_reference(checks: Checks, label: str, rows: list[tuple],
                    reference: list[tuple]) -> None:
    """Closed-form column and row keys against stored reference rows.

    The figure sweeps use no random pilots, so their closed-form rows do not
    depend on the seed and are compared on every run.
    """
    checks.record(len(rows) == len(reference),
                  f"{label}: {len(rows)} rows, reference has {len(reference)}")
    for got, want in zip(rows, reference):
        ok = got[:4] == want[:4] and abs(got[4] - want[4]) <= REFERENCE_ATOL
        checks.record(ok, f"{label}: row {got[:5]} differs from reference {want[:5]}")


def check_identical(checks: Checks, label: str, data: bytes, expected: bytes) -> None:
    checks.record(data == expected, f"{label}: bytes differ")


def _same_12g(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return format(float(a), ".12g") == format(float(b), ".12g")


def check_round_trip(checks: Checks, label: str, read_back: list[tuple],
                     in_memory: list[tuple]) -> None:
    """Rows read back from CSV equal the rows in memory at CSV precision."""
    ok = len(read_back) == len(in_memory) and all(
        a[:4] == b[:4] and all(_same_12g(x, y) for x, y in zip(a[4:], b[4:]))
        for a, b in zip(read_back, in_memory)
    )
    checks.record(ok, f"{label}: read_results round trip differs from rows in memory")


def mc_z(row: tuple) -> float:
    """(mc - closed) / std_err of a Monte-Carlo row."""
    closed, empirical, std_err = row[4], row[5], row[6]
    if empirical is None or not std_err:
        return math.inf
    return (empirical - closed) / std_err


def check_mc_agreement(checks: Checks, label: str, rows: list[tuple]) -> float:
    """Every Monte-Carlo row within MC_MAX_ABS_Z standard errors; returns max |z|."""
    worst = 0.0
    for row in rows:
        z = abs(mc_z(row))
        worst = max(worst, z)
        checks.record(z <= MC_MAX_ABS_Z, f"{label}: row {row[:4]} has |z| = {z:.3g}")
    return worst


def check_close(checks: Checks, label: str, value: float, expected: float,
                atol: float = REFERENCE_ATOL) -> None:
    checks.record(abs(value - expected) <= atol,
                  f"{label}: {value!r} differs from {expected!r}")
