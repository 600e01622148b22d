"""One benchmark workload, run in a fresh interpreter started by ``run.py``.

Usage (normally only ``run.py`` calls this)::

    python perfbench/workload.py --workload NAME --seed N --mode probe|run
        [--seconds S] [--trace 0|1] --workdir DIR

The first line on stdout is printed once fddjam is imported and the
workload's specs are built and validated: ``run.py`` times set-up up to that
line. ``probe`` mode stops there. ``run`` mode then runs passes of the
workload and prints one JSON report as its last line.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Shape of the lemma oracle run in every figure-mc pass.
LEMMA = {"antennas": 64, "pilot_length": 16, "correlation": 0.7, "power_db": 5.0,
         "candidates": 2000}
MC_TRIALS = 500

WORKLOADS = ("figures-closed", "figure-mc")


def build_specs(experiments, workload: str, seed: int) -> list[tuple[str, object]]:
    """(label, ExperimentSpec) pairs of one pass; the label names the reference CSV."""
    if workload == "figures-closed":
        return [(f"figure{f}", experiments.figure_spec(f, seed=seed)) for f in (1, 2, 3)]
    if workload == "figure-mc":
        return [("figure2", experiments.figure_spec(2, monte_carlo_trials=MC_TRIALS, seed=seed))]
    raise ValueError(f"unknown workload {workload!r}")


class Runner:
    """Runs passes of one workload and judges their outputs."""

    def __init__(self, workload: str, seed: int, specs, workdir: Path):
        import fddjam.channel
        import fddjam.experiments
        import fddjam.jammer
        import fddjam.training

        import checks as gates

        self.gates = gates
        self.channel = fddjam.channel
        self.experiments = fddjam.experiments
        self.jammer = fddjam.jammer
        self.training = fddjam.training
        self.workload = workload
        self.seed = seed
        self.specs = specs
        self.workdir = workdir
        self.checks = gates.Checks()
        self.references = {label: gates.read_reference(label) for label, _ in specs}
        self.max_abs_z = 0.0

    # -- one pass ---------------------------------------------------------

    def run_pass(self, workers, tag: str) -> dict:
        """Run one pass; return its wall time, per-part times and outputs."""
        ex = self.experiments
        out: dict = {"rows": {}, "lemma_s": 0.0, "io_s": 0.0}
        start = time.perf_counter()
        for label, spec in self.specs:
            rows = ex.run_sweep(spec, workers=workers)
            out["rows"][label] = rows
            if self.workload == "figures-closed":
                io_start = time.perf_counter()
                path = self.workdir / f"{tag}-{label}.csv"
                ex.write_results(rows, path, spec=spec)
                out.setdefault("read_back", {})[label] = ex.read_results(path)
                out.setdefault("spec_back", {})[label] = ex.load_metadata_spec(
                    ex.metadata_path(path))
                out["io_s"] += time.perf_counter() - io_start
        if self.workload == "figure-mc":
            lemma_start = time.perf_counter()
            out["lemma"] = self._lemma()
            out["lemma_s"] = time.perf_counter() - lemma_start
        out["wall_s"] = time.perf_counter() - start
        out["tag"] = tag
        return out

    def _lemma(self):
        import numpy as np

        ch, tr = self.channel, self.training
        cfg = tr.TrainingConfig(
            num_bs_antennas=LEMMA["antennas"], num_jammer_antennas=LEMMA["antennas"],
            pilot_length=LEMMA["pilot_length"], bs_power_db=LEMMA["power_db"],
            jammer_power_db=LEMMA["power_db"], bs_correlation=LEMMA["correlation"],
        )
        bs_cov = ch.exponential_covariance(cfg.num_bs_antennas, cfg.bs_correlation)
        jam_cov = ch.exponential_covariance(cfg.num_jammer_antennas, cfg.jammer_correlation)
        pilots = tr.optimal_pilots(bs_cov, cfg.pilot_length)
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        try:
            verdict = self.jammer.verify_lemma(bs_cov, jam_cov, pilots, cfg,
                                               LEMMA["candidates"], rng)
        except ArithmeticError as exc:
            return {"error": str(exc)}
        return {"verdict": verdict, "cfg": cfg, "bs_cov": bs_cov, "jam_cov": jam_cov,
                "pilots": pilots}

    # -- correctness ------------------------------------------------------

    def judge(self, out: dict) -> dict:
        """Run every correctness gate on the outputs of one pass."""
        g, checks, tag = self.gates, self.checks, out["tag"]
        for label, rows in out["rows"].items():
            tuples = [g.row_tuple(r) for r in rows]
            g.check_reference(checks, f"{tag} {label}", tuples, self.references[label])
            if any(t[5] is not None for t in tuples):
                z = g.check_mc_agreement(checks, f"{tag} {label}", tuples)
                self.max_abs_z = max(self.max_abs_z, z)
            if label in out.get("read_back", {}):
                back = [g.row_tuple(r) for r in out["read_back"][label]]
                g.check_round_trip(checks, f"{tag} {label}", back, tuples)
                spec = dict(self.specs)[label]
                checks.record(out["spec_back"][label] == spec,
                              f"{tag} {label}: sidecar spec differs from the spec run")
        if "lemma" in out:
            lemma = out["lemma"]
            ok = checks.record("error" not in lemma,
                               f"{tag} lemma: {lemma.get('error', '')}")
            if ok:
                tr = self.training
                closed = tr.scenario_closed_form_mse(
                    lemma["pilots"],
                    self.jammer.optimal_jamming(lemma["jam_cov"], lemma["cfg"].pilot_length),
                    lemma["bs_cov"], lemma["jam_cov"], lemma["cfg"], "jammer-aware",
                )
                g.check_close(checks, f"{tag} lemma optimal_mse vs closed form",
                              lemma["verdict"].optimal_mse, closed)
        return out

    def csv_bytes(self, out: dict, tag: str) -> dict[str, bytes]:
        """CSV bytes of each sweep of a pass, as ``write_results`` writes them."""
        data = {}
        for label, rows in out["rows"].items():
            path = self.workdir / f"{tag}-{label}-plain.csv"
            self.experiments.write_results(rows, path)
            data[label] = path.read_bytes()
        return data

    def check_worker_independence(self, parallel: dict, serial: dict) -> None:
        a, b = self.csv_bytes(parallel, "parallel"), self.csv_bytes(serial, "serial")
        for label in a:
            self.gates.check_identical(self.checks, f"{label} CSV, default workers vs 1",
                                       a[label], b[label])

    def work(self, out: dict) -> dict:
        rows = sum(len(r) for r in out["rows"].values())
        trials = sum(spec.monte_carlo_trials * len(spec.axis_values) * len(spec.scenarios)
                     for _, spec in self.specs)
        return {"rows": rows, "mc_trials": trials,
                "lemma_candidates": LEMMA["candidates"] if "lemma" in out else 0}


def environment(experiments, copies) -> dict:
    import numpy
    import scipy

    import blas

    import fddjam

    threads = blas.thread_counts(copies)
    nproc = len(os.sched_getaffinity(0))
    resolve = getattr(experiments, "resolve_workers", None)
    workers = resolve() if resolve else os.cpu_count() or 1
    blas_threads = max(threads.values()) if threads else 0
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "blas_threads": threads,
        "oversubscription": workers * max(blas_threads, 1) / nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fddjam": getattr(fddjam, "__version__", "unknown"),
        "fddjam_path": os.path.dirname(fddjam.__file__),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def measure(runner: Runner, seconds: float) -> dict:
    """Passes at default workers for ``seconds``, then the worker-count check."""
    times = {"pass_s": [], "lemma_s": [], "io_s": []}
    first = None
    start = time.perf_counter()
    while True:
        out = runner.judge(runner.run_pass(None, f"pass{len(times['pass_s'])}"))
        first = first or out  # later outputs are dropped, so memory stays flat
        for key in ("lemma_s", "io_s"):
            times[key].append(out[key])
        times["pass_s"].append(out["wall_s"])
        if time.perf_counter() - start + statistics.median(times["pass_s"]) > seconds:
            break
    serial = runner.judge(runner.run_pass(1, "serial"))
    runner.check_worker_independence(first, serial)
    return {**times, "work": runner.work(first), "peak_rss_mb": peak_rss_mb()}


def trace_targets():
    """(module, attribute, span name, note) for every wrapped public call."""
    def cov_note(args, kwargs):
        return {"key": [int(args[0]), float(args[1])]}

    def trials_note(args, kwargs):
        return {"trials": int(kwargs.get("trials", 0))}

    ex, tr, jm, ch = ("fddjam.experiments", "fddjam.training", "fddjam.jammer",
                      "fddjam.channel")
    return [
        (ex, "exponential_covariance", "channel.cov", cov_note),
        (ch, "exponential_covariance", "channel.cov", cov_note),
        (ch, "hermitian_evd", "linalg.evd", None),
        (tr, "solve_hpd", "linalg.solve", None),
        (jm, "solve_hpd", "linalg.solve", None),
        (tr, "sample_complex_gaussian", "linalg.sample", None),
        (tr, "haar_orthonormal_columns", "linalg.haar", None),
        (jm, "haar_orthonormal_columns", "linalg.haar", None),
        (tr, "require_orthonormal_columns", "linalg.ortho_check", None),
        (jm, "require_orthonormal_columns", "linalg.ortho_check", None),
        (ex, "optimal_pilots", "training.pilot_build", None),
        (ex, "worst_case_pilots", "training.pilot_build", None),
        (ex, "random_unitary_pilots", "training.pilot_build", None),
        (tr, "optimal_pilots", "training.pilot_build", None),
        (ex, "scenario_closed_form_mse", "training.closed_form", None),
        (ex, "empirical_mse", "training.mc", trials_note),
        (ex, "single_shot_jamming", "jammer.build", None),
        (ex, "optimal_jamming", "jammer.build", None),
        (jm, "verify_lemma", "jammer.lemma", None),
        (ex, "figure_spec", "experiments.spec_build", None),
        (ex, "run_sweep", "experiments.run_sweep", None),
        (ex, "write_results", "experiments.write", None),
        (ex, "read_results", "experiments.read", None),
        (ex, "load_metadata_spec", "experiments.read", None),
    ]


def traced(runner: Runner, copies, workdir: Path, stem: str) -> dict:
    """Default-worker, serial, traced serial and 1-BLAS-thread serial passes."""
    import blas
    import spans

    ex = runner.experiments
    parallel = runner.judge(runner.run_pass(None, "parallel"))
    serial = runner.judge(runner.run_pass(1, "serial"))
    runner.check_worker_independence(parallel, serial)

    tracer = spans.Tracer()
    with tracer.patched(trace_targets()):
        runner.specs = build_specs(ex, runner.workload, runner.seed)
        traced_pass = runner.run_pass(1, "traced")
    tracer.dump(workdir.parent / f"{stem}-spans.json")
    runner.judge(traced_pass)
    # Timed after the traced pass so both run warm: the first serial pass
    # pays this process's first-call costs, the pool's children paid theirs.
    serial = runner.judge(runner.run_pass(1, "serial-warm"))

    with blas.limited_threads(copies, 1):
        single = runner.judge(runner.run_pass(1, "serial-1blas"))

    cov_keys = [tuple(s.attrs["key"]) for s in tracer.spans if s.name == "channel.cov"]
    mc_trials = sum(s.attrs["trials"] for s in tracer.spans if s.name == "training.mc")
    csv_bytes = sum(
        (workdir / f"traced-{label}.csv").stat().st_size
        for label in traced_pass.get("read_back", {})
    )
    return {
        "parallel_s": parallel["wall_s"],
        "parallel_lemma_s": parallel["lemma_s"],
        "serial_s": serial["wall_s"],
        "traced_serial_s": traced_pass["wall_s"],
        "serial_1blas_s": single["wall_s"],
        "summary": spans.summarize(tracer.spans),
        "cov_builds": len(cov_keys),
        "cov_distinct": len(set(cov_keys)),
        "mc_trials": mc_trials,
        "csv_bytes": csv_bytes,
        "work": runner.work(parallel),
        "missing": tracer.missing,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    import fddjam  # noqa: F401
    t_import = time.perf_counter()
    import fddjam.cli  # noqa: F401
    import fddjam.experiments as experiments
    t_cli = time.perf_counter()
    specs = build_specs(experiments, args.workload, args.seed)
    print(json.dumps({"ready": True, "import_s": t_import - _T_START,
                      "cli_import_s": t_cli - _T_START}), flush=True)
    if args.mode == "probe":
        return 0

    import blas

    copies = blas.bundled_copies()
    report = {"env": environment(experiments, copies)}
    args.workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, specs, args.workdir)
    if args.trace:
        stem = f"{args.workload}-seed{args.seed}"
        report["trace"] = traced(runner, copies, args.workdir, stem)
    else:
        report["run"] = measure(runner, args.seconds)
    report["max_abs_z"] = runner.max_abs_z
    report["checks"] = {"attempted": runner.checks.attempted,
                        "failures": runner.checks.failures}
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
