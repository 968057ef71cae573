"""One benchmark run: set up a workload, solve it, check and report.

The solve loop mirrors ``snapslam solve`` with ``workers = 1``: the corpus
goes through ``write_dataset`` / ``read_dataset``, each snapshot through
``solve_snapshot`` and ``solution_to_dict``, and the rows through
``write_jsonl`` and ``write_metrics_csv``. Everything is called through
the ``snapslam`` package namespace so that a traced run reaches the
wrappers of ``tracing``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import snapslam
import snapslam.cli
import tracing
from workloads import WORKLOADS, Workload, make_corpus

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_run"
DEFAULT_SEED = 1
HELD_OUT_SEED = 99      # never used while tuning; a claimed gain must hold on it
REPEAT_MAX_RATIO = 10.0  # timing rounds skip snapshots this much slower than the median
FASTEST_SHARE = 0.75    # solve_ms_gmean75 averages the fastest three quarters
SETUP_FIRST_REPEATS = 3  # set-ups before the first round
SETUP_EVERY_S = 2.5     # then one more after a timing round, at most this often
TAIL_PERCENTILE = 90
TAIL_MIN_BEYOND = 10


@dataclass
class SolvePass:
    """Rows, solutions and timings of one pass over a corpus."""

    rows: list = field(default_factory=list)
    solutions: list = field(default_factory=list)     # None where solving failed
    latencies: list = field(default_factory=list)     # seconds, per snapshot
    wall: float = 0.0                                 # loop plus output writes
    unstable: list = field(default_factory=list)      # ids a later round changed
    rounds: int = 1

    @property
    def failed(self) -> int:
        return sum(s is None for s in self.solutions)


def setup(workload: Workload, seed: int, work: Path):
    """Generate the corpus and round-trip it through the dataset file."""
    data = work / "dataset.jsonl"
    start = time.perf_counter()
    corpus = make_corpus(workload, ROOT, seed)
    snapslam.write_dataset(corpus, data)
    snapshots = snapslam.read_dataset(data)
    return snapshots, time.perf_counter() - start


def _timed_solve(snap, mode: str):
    """(row, solution or None, seconds) of one call, as ``snapslam solve`` makes them."""
    t0 = time.perf_counter()
    try:
        solution, detection = snapslam.solve_snapshot(snap, mode)
    except snapslam.SlamError as exc:
        elapsed = time.perf_counter() - t0
        return (snapslam.failure_to_dict(snap.id, f"{type(exc).__name__}: {exc}", mode),
                None, elapsed)
    elapsed = time.perf_counter() - t0
    return snapslam.solution_to_dict(snap.id, solution, detection, mode), solution, elapsed


def solve_pass(snapshots, mode: str, work: Path, tracer=None) -> SolvePass:
    """Solve every snapshot in order, like ``snapslam solve`` does."""
    out = SolvePass()
    records = []
    start = time.perf_counter()
    for k, snap in enumerate(snapshots):
        if tracer is not None:
            tracer.snap = k
        row, solution, elapsed = _timed_solve(snap, mode)
        out.rows.append(row)
        out.solutions.append(solution)
        out.latencies.append(elapsed)
        if solution is not None:
            records.append(snapslam.make_error_record(snap, solution, elapsed))
    if tracer is not None:
        tracer.snap = -1
    snapslam.write_jsonl(out.rows, work / "solutions.jsonl")
    snapslam.write_metrics_csv(records, work / "metrics.csv")
    out.wall = time.perf_counter() - start
    return out


def timed_rounds(snapshots, mode: str, work: Path, seconds: float,
                 after_round=None) -> SolvePass:
    """A first pass over the corpus, then timing rounds until ``seconds``.

    The first pass gives the rows, accuracy and wall time. Each timing round
    solves every snapshot once more, and each snapshot's latency is its
    fastest solve. Other tenants of a shared machine slow it down by up to
    ~1.8x in stretches of tens of seconds; the fastest of solves spread over
    the whole run mostly misses them. Snapshots whose first solve took more
    than ``REPEAT_MAX_RATIO`` times the first pass's median (the NLoS
    fallbacks of ``room_mixed``) are not repeated: they lie far above the
    fastest three quarters, which is all ``solve_ms_gmean75`` reads, and
    repeating them would leave time for only a few rounds. A solve whose
    row differs from the first pass marks the snapshot unstable.
    ``after_round``, if given, is called after each timing round.
    """
    start = time.perf_counter()
    first = solve_pass(snapshots, mode, work)
    limit = REPEAT_MAX_RATIO * statistics.median(first.latencies)
    repeat = [k for k, took in enumerate(first.latencies) if took <= limit]
    unstable = set()
    while time.perf_counter() - start < seconds:
        for k in repeat:
            if time.perf_counter() - start >= seconds:
                break
            again, _, took = _timed_solve(snapshots[k], mode)
            first.latencies[k] = min(first.latencies[k], took)
            if again != first.rows[k]:
                unstable.add(first.rows[k]["id"])
        first.rounds += 1
        if after_round is not None:
            after_round()
    first.unstable = sorted(unstable)
    return first


def check_outputs(snapshots, run: SolvePass, workload: Workload, work: Path) -> list:
    """Problems found in the rows; empty when the outputs are correct.

    Every solved row needs a finite cost and inliers and outliers that
    partition the path indices. The first ``workload.check`` rows must equal
    what ``snapslam solve`` writes for the same snapshots and mode, run
    in-process with built-in defaults (an empty config file shields it from
    ``SNAPSLAM_CONFIG``).
    """
    problems = [f"{sid}: a later round gave another row" for sid in run.unstable]
    for snap, row in zip(snapshots, run.rows):
        if row["failed"]:
            continue
        if not math.isfinite(row["cost"]):
            problems.append(f"{row['id']}: cost {row['cost']}")
        if sorted(row["inliers"] + row["outliers"]) != list(range(len(snap.paths))):
            problems.append(f"{row['id']}: inliers and outliers do not partition the paths")
    k = workload.check
    data, out, config = work / "check.jsonl", work / "check_out.jsonl", work / "empty.cfg"
    snapslam.write_dataset(snapshots[:k], data)
    config.write_text("")
    with redirect_stdout(io.StringIO()):
        code = snapslam.cli.main(["solve", "--data", str(data), "--out", str(out),
                                  "--mode", workload.mode, "--workers", "1",
                                  "--config", str(config)])
    if code != 0:
        problems.append(f"snapslam solve exited with {code}")
    elif snapslam.read_jsonl(out) != json.loads(json.dumps(run.rows[:k])):
        problems.append(f"the first {k} rows differ from what snapslam solve writes")
    return problems


def tail_percentile(samples, q: float = TAIL_PERCENTILE):
    """The q-th percentile, or None when fewer than ten samples lie beyond it."""
    if not samples:
        return None
    value = float(np.percentile(samples, q))
    beyond = sum(1 for s in samples if s > value)
    return value if beyond >= TAIL_MIN_BEYOND else None


def gmean_fastest(samples, share: float = FASTEST_SHARE) -> float:
    """Geometric mean of the fastest ``share`` of the samples (at least one).

    The slowest quarter is left out so that the few NLoS fallbacks of
    ``room_mixed`` (each ~800x a LoS-branch solve) do not decide it. Unlike
    the median, it reads every kept sample, so it moves less with the seed.
    """
    kept = sorted(samples)[:max(1, math.ceil(share * len(samples)))]
    return math.exp(statistics.fmean(math.log(x) for x in kept))


def rows_digest(rows) -> str:
    text = "\n".join(json.dumps(row, sort_keys=True) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def accuracy(snapshots, run: SolvePass, mode: str) -> dict:
    """Errors against truth; a failed solve counts as an infinite error."""
    errors, exact, hyp_ok = [], 0, 0
    for snap, sol in zip(snapshots, run.solutions):
        if sol is None:
            errors.append(math.inf)
            continue
        errors.append(float(np.hypot(*(sol.ue.position - snap.truth.ue.position))))
        exact += snapslam.classification_report(sol, snap).exact
        hyp_ok += (sol.hypothesis is snapslam.Hypothesis.LOS) == snap.truth.has_los
    n = len(errors)
    out = {"pos_err_p50_m": (statistics.median(errors), "m"),
           "pos_within_1m_frac": (sum(e <= 1.0 for e in errors) / n, "frac"),
           "inlier_exact_frac": (exact / n, "frac")}
    if mode == "robust_mixed":
        out["hypothesis_acc"] = (hyp_ok / n, "frac")
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def git_commit():
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
        lapack = f"{deps['lapack']['name']} {deps['lapack'].get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = lapack = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "lapack": lapack, "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": list(os.getloadavg()), "git_commit": git_commit(),
            "seed": seed, "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED}


def end_to_end(workload: Workload, seed: int, seconds: float, work: Path):
    """Set-up repeats spread over the run, then the timed rounds and the check.

    Slow stretches of a shared machine last tens of seconds, so set-ups
    made only at the start would all land in the same one; ``setup_s`` is
    the median of set-ups spread over the whole run.
    """
    setups, last = [], 0.0

    def set_up():
        nonlocal last
        snaps, took = setup(workload, seed, work)
        setups.append(took)
        last = time.perf_counter()
        return snaps

    def set_up_if_due():
        if time.perf_counter() - last >= SETUP_EVERY_S:
            set_up()

    for _ in range(SETUP_FIRST_REPEATS):
        snapshots = set_up()
    dataset_sha = hashlib.sha256((work / "dataset.jsonl").read_bytes()).hexdigest()
    run = timed_rounds(snapshots, workload.mode, work, seconds, after_round=set_up_if_due)
    problems = check_outputs(snapshots, run, workload, work)
    n = len(run.rows)
    ms = sorted(1e3 * t for t in run.latencies)
    p90 = tail_percentile(ms)
    metrics = {"setup_s": (statistics.median(setups), "s"),
               "solve_ms_gmean75": (gmean_fastest(ms), "ms"),
               "peak_rss_mb": (peak_rss_mb(), "MB")}
    report = {"snapshots_per_s": (n / run.wall, "1/s"),
              "solve_ms_p50": (statistics.median(ms), "ms"),
              "solve_ms_p90": (p90, "ms"),
              "solve_samples": (n, "count"),
              "solve_rounds": (run.rounds, "count"),
              "setup_repeats": (len(setups), "count"),
              "fail_frac": (run.failed / n, "frac"),
              **accuracy(snapshots, run, workload.mode)}
    digests = {"dataset_sha256": dataset_sha,
               "solution_sha256": rows_digest(run.rows),
               "solution_rows": n}
    return run, problems, metrics, report, digests


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, traced_wall: float, untraced_wall: float,
                  check_count: int) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and the ones some workloads lack.

    The traced pass solves the whole corpus once, so its counts repeat
    exactly.
    """
    self_s = tracing.self_times(spans)
    by_name: dict = {}
    for i, span in enumerate(spans):
        by_name.setdefault((span.phase, span.name), []).append(i)

    def pick(name, phase="solve"):
        return by_name.get((phase, name), [])

    def children(i, name):
        return [j for j in pick(name) if spans[j].parent == i]

    def cells(i):
        combos = sum(spans[j].info for j in children(i, "robust.enumerate_combinations"))
        grid = sum(spans[j].info for j in children(i, "estimator.orientation_grid"))
        return combos * grid

    nlos, los = pick("robust.robust_solve.nlos"), pick("robust.robust_solve.los")
    solves = nlos + los
    refine = pick("estimator.landmark_refine")
    tests = pick("detector.los_test")
    nlos_self = sum(self_s[i] for i in nlos)
    cells_total = sum(cells(i) for i in nlos)
    los_total = sum(spans[i].duration for i in los)
    los_set = set(los)
    refine_in_los = sum(spans[j].duration for j in refine if spans[j].parent in los_set)
    iterations = [spans[i].info[0] for i in refine if spans[i].info]
    converged = [spans[i].info[1] for i in refine if spans[i].info]
    snap_self = [self_s[i] for i in pick("evaluation.solve_snapshot")]
    check = pick("cli.main", "check")

    def ms(idx):
        return 1e3 * sum(spans[i].duration for i in idx)

    out = {
        "robust.robust_solve.nlos.calls": (len(nlos), "count"),
        "robust.robust_solve.nlos.self_ms_p50": (1e3 * _median([self_s[i] for i in nlos]), "ms"),
        "robust.robust_solve.nlos.self_s_total": (nlos_self, "s"),
        "robust.cells.nlos": (cells_total, "count"),
        "robust.cells_per_s.nlos": (cells_total / nlos_self
                                    if nlos_self > 0 else 0.0, "1/s"),
        "robust.nlos.share_of_wall": (sum(spans[i].duration for i in nlos) / traced_wall, "frac"),
        "robust.nlos.self_share_of_wall": (nlos_self / traced_wall, "frac"),
        "robust.robust_solve.los.calls": (len(los), "count"),
        "robust.no_feasible": (sum(spans[i].error == "NoFeasibleSolution"
                                   for i in solves), "count"),
        "estimator.landmark_refine.calls": (len(refine), "count"),
        "estimator.landmark_refine.us_p50": (1e6 * _median([spans[i].duration for i in refine]), "us"),
        "estimator.landmark_refine.iterations_mean": (
            statistics.fmean(iterations) if iterations else 0.0, "count"),
        "estimator.landmark_refine.converged_frac": (
            sum(converged) / len(converged) if converged else 0.0, "frac"),
        "estimator.landmark_refine.degenerate": (
            sum(spans[i].error == "DegenerateGeometry" for i in refine), "count"),
        "estimator.landmark_refine.share_of_los": (refine_in_los / los_total
                                                   if los_total > 0 else 0.0, "frac"),
        "detector.los_test.calls": (len(tests), "count"),
        "detector.los_accept_frac": (sum(spans[i].info == "los" for i in tests)
                                     / max(len(tests), 1), "frac"),
        "evaluation.solve_snapshot.self_ms_p50": (1e3 * _median(snap_self), "ms"),
        "sim.trace_paths.calls": (len(pick("sim.trace_paths", "setup")), "count"),
        "dataio.read_dataset.ms": (ms(pick("dataio.read_dataset", "setup")), "ms"),
        "dataio.write_dataset.ms": (ms(pick("dataio.write_dataset", "setup")), "ms"),
        "dataio.write_jsonl.ms": (ms([i for i in pick("dataio.write_jsonl")
                                     if spans[i].parent < 0]), "ms"),
        "cli.main.ms_per_snapshot": (ms(check) / max(check_count, 1), "ms"),
        "trace_overhead_frac": (traced_wall / untraced_wall - 1.0, "frac"),
    }
    # times of layers that only some workloads call
    partial = {
        "robust.robust_solve.los.self_ms_p50": (
            1e3 * _median([self_s[i] for i in los]) if los else None, "ms"),
        "detector.los_test.us_p50": (
            1e6 * _median([spans[i].duration for i in tests]) if tests else None, "us"),
        "sim.trace_paths.ms_p50": (
            1e3 * _median([spans[i].duration for i in pick("sim.trace_paths", "setup")])
            if pick("sim.trace_paths", "setup") else None, "ms"),
    }
    return out, partial


def traced(workload: Workload, seed: int, seconds: float, work: Path):
    """Untraced passes for half of ``seconds``, then one traced pass.

    ``trace_overhead_frac`` compares the traced pass with the fastest
    untraced one.
    """
    snapshots, _ = setup(workload, seed, work)
    start = time.perf_counter()
    baseline = math.inf
    while baseline == math.inf or time.perf_counter() - start < seconds / 2.0:
        baseline = min(baseline, solve_pass(snapshots, workload.mode, work).wall)
    del snapshots
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tracer.phase = "setup"
        snapshots, _ = setup(workload, seed, work)
        tracer.phase = "solve"
        run = solve_pass(snapshots, workload.mode, work, tracer=tracer)
        tracer.phase = "check"
        problems = check_outputs(snapshots, run, workload, work)
    metrics, partial = layer_metrics(tracer.spans, run.wall, baseline, workload.check)
    metrics["sim.paths_per_snapshot"] = (
        statistics.fmean(len(s.paths) for s in snapshots), "count")
    metrics["dataio.dataset_bytes"] = ((work / "dataset.jsonl").stat().st_size, "B")
    metrics["dataio.solution_bytes"] = ((work / "solutions.jsonl").stat().st_size, "B")
    digests = {"solution_sha256": rows_digest(run.rows),
               "solution_rows": len(run.rows)}
    return run, problems, metrics, partial, digests


def _show(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:44s} {shown:>14s} {unit}")


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        if args.trace:
            run, problems, metrics, extra, digests = traced(
                workload, args.seed, args.seconds, work)
        else:
            run, problems, metrics, extra, digests = end_to_end(
                workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {workload.name}  mode {workload.mode}  seed {args.seed}  "
          f"trace {args.trace}  snapshots {len(run.rows)}")
    _show(metrics)
    _show(extra)
    for problem in problems:
        print(f"  check failed: {problem}")
    report = {"workload": workload.name, "mode": workload.mode, "env": env,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "report": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
              "digests": digests, "problems": problems}
    print("report " + json.dumps(report))
    print(json.dumps({"correct": not problems, "attempted": len(run.rows),
                      "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).with_name("run.py")),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        worst = max(worst, proc.returncode)
    return worst


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="snapslam solve benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)
