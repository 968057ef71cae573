"""Command line front end: simulate, solve, sweep.

Exit codes: 0 on success, 2 on bad input (arguments, config, files), 3 when
every snapshot failed to solve. Settings resolve in order: built-in default,
config file (``--config`` or the SNAPSLAM_CONFIG environment variable), then
same-named command line flags.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

from .dataio import (
    failure_to_dict,
    read_config,
    read_dataset,
    read_positions,
    read_scene,
    solution_to_dict,
    write_dataset,
    write_jsonl,
    write_metrics_csv,
    write_sweep_csv,
)
from .detector import DEFAULT_T_LOS, PathLossModel
from .errors import SlamError
from .evaluation import MODES, los_sensitivity_sweep, make_error_record, run_snapshot
from .geometry import NoiseModel
from .robust import RobustConfig
from .sim import SimConfig, generate_dataset

_INT_KEYS = {"grid_size", "seed", "workers", "max_bounces", "trials"}
_PAIR_KEYS = {"bias_range_ns"}


@dataclass(frozen=True)
class RunConfig:
    """Every tunable the commands accept, in file/flag units.

    Angles are degrees, times nanoseconds; conversion to the library's
    radians/seconds happens in the factory methods. The defaults are the
    library's, converted (exactly) to these units.
    """

    t_eps: float = RobustConfig.t_eps
    t_nu: float = RobustConfig.t_nu
    t_los: float = DEFAULT_T_LOS
    grid_size: int = RobustConfig.grid_size
    sigma_toa_ns: float = NoiseModel.sigma_toa * 1e9
    sigma_aod_deg: float = math.degrees(NoiseModel.sigma_aod)
    sigma_aoa_deg: float = math.degrees(NoiseModel.sigma_aoa)
    l0_db: float = PathLossModel.l0_db
    zeta: float = PathLossModel.zeta
    sigma_db: float = PathLossModel.sigma_db
    seed: int = 0
    workers: int = 1
    max_bounces: int = SimConfig.max_bounces
    per_bounce_extra_db: float = SimConfig.per_bounce_extra_db
    bias_range_ns: tuple = tuple(b * 1e9 for b in SimConfig.bias_range)
    trials: int = 1000

    def noise_model(self) -> NoiseModel:
        # divide rather than multiply by 1e-9: exact for integral nanoseconds
        return NoiseModel(sigma_toa=self.sigma_toa_ns / 1e9,
                          sigma_aod=math.radians(self.sigma_aod_deg),
                          sigma_aoa=math.radians(self.sigma_aoa_deg))

    def robust_config(self) -> RobustConfig:
        return RobustConfig(t_eps=self.t_eps, t_nu=self.t_nu,
                            grid_size=self.grid_size, noise=self.noise_model())

    def gain_model(self) -> PathLossModel:
        return PathLossModel(l0_db=self.l0_db, zeta=self.zeta,
                             sigma_db=self.sigma_db)

    def sim_config(self, noiseless: bool = False) -> SimConfig:
        lo, hi = self.bias_range_ns
        return SimConfig(max_bounces=self.max_bounces,
                         noise=None if noiseless else self.noise_model(),
                         gain_model=self.gain_model(),
                         per_bounce_extra_db=self.per_bounce_extra_db,
                         gain_sigma_db=0.0 if noiseless else None,
                         bias_range=(lo / 1e9, hi / 1e9))


def _parse_pair(text: str) -> tuple:
    parts = [t for t in text.replace("[", "").replace("]", "").split(",") if t.strip()]
    if len(parts) != 2:
        raise ValueError(f"expected 'lo, hi', got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not lo < hi:
        raise ValueError(f"range must satisfy lo < hi, got {text!r}")
    return (lo, hi)


def _convert(key: str, value) -> object:
    if key in _PAIR_KEYS:
        return value if isinstance(value, tuple) else _parse_pair(str(value))
    if key in _INT_KEYS:
        return int(str(value))
    return float(str(value))


def build_run_config(config_path, overrides: dict) -> RunConfig:
    """Layer a config file (if any) under non-None flag overrides."""
    names = {f.name for f in fields(RunConfig)}
    data: dict = {}
    if config_path is None:
        config_path = os.environ.get("SNAPSLAM_CONFIG") or None
    if config_path is not None:
        for key, raw in read_config(config_path).items():
            if key not in names:
                raise ValueError(f"unknown config key {key!r}")
            try:
                data[key] = _convert(key, raw)
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
    for key, value in overrides.items():
        if key in names and value is not None:
            data[key] = _convert(key, value)
    return RunConfig(**data)


def parse_p_grid(text: str) -> tuple:
    """``start:step:stop`` inclusive of both ends, or a single probability."""
    parts = text.split(":")
    if len(parts) == 1:
        return (float(parts[0]),)
    if len(parts) != 3:
        raise ValueError(f"expected start:step:stop, got {text!r}")
    start, step, stop = (float(t) for t in parts)
    if step <= 0:
        raise ValueError("step must be positive")
    if stop < start:
        raise ValueError("stop must not precede start")
    count = int(math.floor((stop - start) / step + 1e-9))
    return tuple(min(round(start + i * step, 12), stop) for i in range(count + 1))


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="key = value settings file (default: $SNAPSLAM_CONFIG)")
    for f in fields(RunConfig):
        parser.add_argument(f"--{f.name}", default=None, metavar="V",
                            help=f"override {f.name} (default {f.default})")


def _overrides(args: argparse.Namespace) -> dict:
    names = {f.name for f in fields(RunConfig)}
    return {k: v for k, v in vars(args).items() if k in names}


def _solve_one(task):
    snapshot, mode, rc = task
    result, elapsed, error = run_snapshot(snapshot, mode, rc.robust_config(),
                                         rc.gain_model(), rc.t_los)
    if error is not None:
        return failure_to_dict(snapshot.id, error, mode), None, None
    record = (make_error_record(snapshot, result[0], elapsed)
              if snapshot.truth is not None else None)
    return solution_to_dict(snapshot.id, *result, mode), record, elapsed


def _cmd_simulate(args) -> int:
    rc = build_run_config(args.config, _overrides(args))
    scene = read_scene(args.scene)
    positions = read_positions(args.positions)
    snapshots = generate_dataset(scene, positions, rc.sim_config(args.noiseless),
                                 rc.seed)
    write_dataset(snapshots, args.out)
    print(f"wrote {len(snapshots)} snapshots to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    rc = build_run_config(args.config, _overrides(args))
    snapshots = read_dataset(args.data)
    if not snapshots:
        raise ValueError(f"{args.data} holds no snapshots")
    tasks = [(snap, args.mode, rc) for snap in snapshots]
    if rc.workers > 1:
        with ProcessPoolExecutor(max_workers=rc.workers) as pool:
            results = list(pool.map(_solve_one, tasks))
    else:
        results = [_solve_one(t) for t in tasks]

    rows = [row for row, _, _ in results]
    records = [rec for _, rec, _ in results if rec is not None]
    times = [dt for _, _, dt in results if dt is not None]
    write_jsonl(rows, args.out)
    if args.metrics is not None:
        write_metrics_csv(records, args.metrics)

    solved = len(times)
    if solved == 0:
        print("error: every snapshot failed to solve", file=sys.stderr)
        return 3
    print(f"solved {solved}/{len(rows)} snapshots; "
          f"median solve time {statistics.median(times) * 1e3:.3f} ms")
    return 0


def _cmd_sweep(args) -> int:
    rc = build_run_config(args.config, _overrides(args))
    snapshots = read_dataset(args.data)
    grid = parse_p_grid(args.p_grid)
    exclude = tuple(t.strip() for t in (args.exclude or "").split(",") if t.strip())
    sweep = los_sensitivity_sweep(snapshots, rc.robust_config(), grid,
                                  trials=rc.trials, seed=rc.seed,
                                  exclude_ids=exclude)
    write_sweep_csv(sweep, args.out)
    for p, r in zip(sweep.p_grid, sweep.rmse):
        print(f"p_los={p:.3f}  rmse={r:.4f} m")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snapslam",
        description="Single-snapshot radio positioning and mapping toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="trace a scene into a dataset")
    p_sim.add_argument("--scene", required=True, help="scene description file")
    p_sim.add_argument("--positions", required=True,
                       help="receiver positions, one [x, y] per line")
    p_sim.add_argument("--out", required=True, help="output dataset (JSONL)")
    p_sim.add_argument("--noiseless", action="store_true",
                       help="exact geometry: no measurement or gain noise")
    _add_config_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_solve = sub.add_parser("solve", help="run a solver over a dataset")
    p_solve.add_argument("--data", required=True, help="input dataset (JSONL)")
    p_solve.add_argument("--out", required=True, help="output solutions (JSONL)")
    p_solve.add_argument("--mode", choices=MODES, default="robust_mixed")
    p_solve.add_argument("--metrics", default=None,
                         help="also write an error table (CSV; needs truth)")
    _add_config_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep",
                             help="error versus line-of-sight detection rate")
    p_sweep.add_argument("--data", required=True, help="input dataset (JSONL)")
    p_sweep.add_argument("--out", required=True, help="output curve (CSV)")
    p_sweep.add_argument("--p_grid", default="0:0.1:1",
                         help="detection probabilities, start:step:stop")
    p_sweep.add_argument("--exclude", default=None,
                         help="comma separated snapshot ids to drop from the "
                              "second curve")
    _add_config_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SlamError as exc:
        kind = type(exc).__name__
        if kind in ("EmptyInput", "NoFeasibleSolution"):
            print(f"error: {exc}", file=sys.stderr)
            return 3
        print(f"error: {kind}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
