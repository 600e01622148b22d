"""Regenerate the reference CSVs the benchmark's closed-form gate compares to.

Run from the repository root, serially and single-threaded so the files do
not depend on the machine::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_reference.py

The stored files were generated from the commit that introduced the
benchmark; regenerate them only when a change to the program's numbers is
intended and reported.
"""

from __future__ import annotations

import sys
from pathlib import Path

from checks import REFERENCE_DIR
from workload import build_specs


def main() -> int:
    import fddjam.experiments as experiments

    REFERENCE_DIR.mkdir(exist_ok=True)
    # The closed-form figure sweeps cover every reference label, and their
    # rows do not depend on the seed.
    for label, spec in build_specs(experiments, "figures-closed", seed=1):
        rows = experiments.run_sweep(spec, workers=1)
        path = Path(REFERENCE_DIR) / f"{label}.csv"
        experiments.write_results(rows, path)
        print(f"wrote {len(rows)} rows to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
