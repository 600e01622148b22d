"""fddjam benchmark: run one workload and print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload figures-closed --seed 1 --seconds 40 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``figures-closed``: figures 1-3 in closed form through ``run_sweep`` at the
  default worker count, each written with ``write_results`` and read back.
* ``figure-mc``: figure 2 with 500 Monte-Carlo trials per point, then
  ``verify_lemma`` with 2000 Haar candidates, with BLAS on one thread.

Each workload runs in a fresh interpreter whose environment drops the
BLAS-thread and worker-count variables, so the program's defaults are what
gets measured; figure-mc alone runs with BLAS pinned to one thread (see
``BLAS_PINNED``). ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs serial, default-worker, traced and single-BLAS-thread passes and prints
the per-layer metrics. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record,
with the environment and every sample, goes to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks as gates  # noqa: E402
from workload import WORKLOADS  # noqa: E402

# Variables that would pin BLAS threads or the sweep worker count; the
# benchmark measures the program's defaults, so they are removed.
PINNING_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "FDDJAM_WORKERS")
BLAS_VARS = PINNING_VARS[:3]

# Workloads whose BLAS is pinned to one thread. At the default two threads per
# pool worker (two workers on two CPUs) a figure-mc pass took anywhere from
# 9.6 to 18.8 s within one run, too unsteady for any bound; figures-closed
# keeps the default, oversubscribed path.
BLAS_PINNED = frozenset({"figure-mc"})

# Set-up probes per run, besides the set-up of the measured process itself.
SETUP_PROBES = 6
# Cold CLI calls per run.
CLI_CALLS = 6
# A run must end within 180 s; children get this much time each.
CHILD_TIMEOUT_S = 150.0

# Cold single-scenario CLI call per workload, and the reference row
# (reference file, axis value, pilot, jamming, estimator) it must reproduce.
CLI_CALL = {
    "figures-closed": (["--M", "100", "--L", "20", "--r", "0.4", "--pb-db", "5",
                        "--jamming", "eigen-optimal"],
                       ("figure1", 20, "optimal", "eigen-optimal", "jammer-aware")),
    "figure-mc": (["--M", "100", "--L", "20", "--r", "0.7", "--pb-db", "5",
                   "--jamming", "eigen-optimal", "--trials", "10000"],
                  ("figure2", 20, "optimal", "eigen-optimal", "jammer-aware")),
}


def child_env(workload: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in PINNING_VARS}
    if workload in BLAS_PINNED:
        env.update(dict.fromkeys(BLAS_VARS, "1"))
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], env: dict) -> tuple[float, dict, str]:
    """Run ``cmd``; return (seconds to its first stdout line, that line, rest)."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[:4])} ... exited with {proc.returncode}")
    return ready, json.loads(first), rest


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, as (value, pct).

    With n > 10 samples this is the (n-10)th smallest, at percentile
    100 (n-10)/n. With fewer samples no percentile has ten beyond it, and
    the maximum (percentile 100) is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def cold_cli(workload: str, seed: int, env: dict, checks: gates.Checks,
             calls: int) -> list[float]:
    args, (ref_name, axis, pilot, jamming, estimator) = CLI_CALL[workload]
    want = next(r for r in gates.read_reference(ref_name)
                if r[:4] == (axis, pilot, jamming, estimator))
    cmd = [sys.executable, "-m", "fddjam.cli", "mse", *args, "--seed", str(seed)]
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if not checks.record(done.returncode == 0, f"cli exited {done.returncode}"):
            continue
        r = list(csv.reader(io.StringIO(done.stdout)))[1]
        # ``mse`` prints the training length as its axis; the reference row's
        # axis may be another swept quantity, so only the rest is compared.
        got = (axis, r[1], r[2], r[3], float(r[4]),
               float(r[5]) if r[5] else None, float(r[6]) if r[6] else None)
        gates.check_reference(checks, "cli", [got], [want])
        if got[5] is not None:
            gates.check_mc_agreement(checks, "cli", [got])
    return times


def end_to_end(setup: list[float], report: dict) -> dict:
    run = report["run"]
    sweep = statistics.median(run["pass_s"])
    tail_value, _ = tail(run["pass_s"])
    return {
        "setup_s": statistics.median(setup),
        "sweep_s": sweep,
        "sweep_s_tail": tail_value,
        "rows_per_s": run["work"]["rows"] / sweep,
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(probes: list[dict], cli_times: list[float], report: dict,
              error_rate: float) -> dict:
    t, env = report["trace"], report["env"]
    summary = t["summary"]

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    workers = env["workers"]
    blas_threads = max(env["blas_threads"].values(), default=0)
    mc_s = self_s("training.mc")
    return {
        "channel.cov_builds": t["cov_builds"],
        "channel.cov_distinct": t["cov_distinct"],
        "channel.cov_reuse_ratio": ratio(t["cov_distinct"], t["cov_builds"]),
        "channel.cov_s": self_s("channel.cov"),
        "linalg.evd_calls": calls("linalg.evd"),
        "linalg.evd_s": self_s("linalg.evd"),
        "linalg.solve_calls": calls("linalg.solve"),
        "linalg.solve_s": self_s("linalg.solve"),
        "linalg.sample_calls": calls("linalg.sample"),
        "linalg.sample_s": self_s("linalg.sample"),
        "linalg.haar_calls": calls("linalg.haar"),
        "linalg.haar_s": self_s("linalg.haar"),
        "linalg.ortho_check_s": self_s("linalg.ortho_check"),
        "training.pilot_build_s": self_s("training.pilot_build"),
        "training.closed_form_calls": calls("training.closed_form"),
        "training.closed_form_s": self_s("training.closed_form"),
        "training.closed_form_us_per_row": 1e6 * ratio(
            summary.get("training.closed_form", {}).get("total_s", 0.0),
            calls("training.closed_form")),
        "training.mc_s": mc_s,
        "training.mc_s_per_ktrial": ratio(mc_s, t["mc_trials"] / 1000.0),
        "training.mc_max_abs_z": report["max_abs_z"],
        "jammer.build_s": self_s("jammer.build"),
        "jammer.lemma_s": self_s("jammer.lemma"),
        "experiments.spec_build_s": self_s("experiments.spec_build"),
        "experiments.serial_s": t["serial_s"],
        "experiments.parallel_s": t["parallel_s"],
        "experiments.parallel_efficiency": ratio(t["serial_s"], workers * t["parallel_s"]),
        "experiments.serial_1blas_s": t["serial_1blas_s"],
        "experiments.workers": workers,
        "experiments.blas_threads": blas_threads,
        "experiments.oversubscription": env["oversubscription"],
        "experiments.write_s": self_s("experiments.write"),
        "experiments.read_s": self_s("experiments.read"),
        "experiments.csv_bytes": t["csv_bytes"],
        "cli.import_s": statistics.median(p["cli_import_s"] for p in probes),
        "cli.mse_cold_s": statistics.median(cli_times),
        "trace.overhead_s": t["traced_serial_s"] - t["serial_s"],
        "mc_trials_per_s": ratio(t["work"]["mc_trials"],
                                 t["parallel_s"] - t["parallel_lemma_s"]),
        "lemma_candidates_per_s": ratio(t["work"]["lemma_candidates"],
                                        t["parallel_lemma_s"]),
        "error_rate": error_rate,
    }


def units_from_benchmark() -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fddjam benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (ROOT / "src" / "fddjam" / "__init__.py").is_file():
        print(f"error: no fddjam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = child_env(args.workload)
    out_dir = ROOT / ".perfbench_runs"
    workdir = out_dir / f"tmp-{os.getpid()}"
    child = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--workdir", str(workdir)]
    checks = gates.Checks()
    setup, probes, cli_times = [], [], []

    def probe_and_cli(probes_now: int, cli_now: int) -> None:
        for _ in range(probes_now):
            ready, first, _ = run_child([*child, "--mode", "probe"], env)
            setup.append(ready)
            probes.append(first)
        cli_times.extend(cold_cli(args.workload, args.seed, env, checks, cli_now))

    # Set-up probes and cold CLI calls are split around the measured process,
    # so their medians span the run rather than one phase of the shared
    # machine's load.
    try:
        probe_and_cli(SETUP_PROBES // 2, CLI_CALLS // 2)
        ready, first, rest = run_child(
            [*child, "--mode", "run", "--seconds", str(args.seconds),
             "--trace", str(args.trace)], env)
        setup.append(ready)
        probes.append(first)
        report = json.loads(rest.strip().splitlines()[-1])
        probe_and_cli(SETUP_PROBES - SETUP_PROBES // 2, CLI_CALLS - CLI_CALLS // 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks.attempted += report["checks"]["attempted"]
    checks.failures += report["checks"]["failures"]
    if args.trace:
        metrics = per_layer(probes, cli_times, report, checks.error_rate)
    else:
        metrics = end_to_end(setup, report)

    env_info = report["env"]
    if env_info["oversubscription"] > 1:
        print(f"WARNING: oversubscribed: {env_info['workers']} workers x "
              f"{max(env_info['blas_threads'].values(), default=0)} BLAS threads on "
              f"{env_info['nproc']} CPUs (oversubscription "
              f"{env_info['oversubscription']:.2f})", file=sys.stderr)
    for failure in checks.failures[:20]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    if "trace" in report and report["trace"]["missing"]:
        print(f"note: not traced (attribute gone): {report['trace']['missing']}",
              file=sys.stderr)

    units = units_from_benchmark()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("env " + json.dumps(env_info, sort_keys=True))
    if not args.trace:
        passes = report["run"]["pass_s"]
        _, pct = tail(passes)
        print(f"passes {len(passes)}; sweep_s_tail is p{pct:.0f} of {len(passes)} passes; "
              f"setup samples {len(setup)}; cli samples {len(cli_times)}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:.6g} {units.get(name, '')}")
    print(f"error_rate {checks.error_rate:.6g} ({checks.failed} of {checks.attempted} checks)")

    out_dir.mkdir(exist_ok=True)
    record = {"args": vars(args), "env": env_info, "setup_s": setup, "probes": probes,
              "cli_s": cli_times, "report": report, "metrics": metrics,
              "failures": checks.failures}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))

    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
