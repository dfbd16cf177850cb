"""Command-line front end: sim, sweep, de, graph-dump."""
from __future__ import annotations

import argparse
import sys

from . import harness, pattern
from .config import (ConfigError, SystemConfig, read_config_file,
                     validate_config, validate_snr_db_grid)


def _load_config(args) -> SystemConfig:
    import dataclasses
    cfg = read_config_file(args.config) if args.config else harness.DESK_CONFIG
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, system_seed=args.seed)
    return validate_config(cfg)


def _snr_grid(args):
    return tuple(float(x) for x in args.snr_db.split(","))


def _add_options(p, snr=False, run=False, out=False):
    """--config and --seed, plus the groups the subcommand reads."""
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None)
    if snr:
        p.add_argument("--snr-db", default="6",
                       help="comma-separated SNR grid in dB")
    if run:
        p.add_argument("--trials", type=int, default=200)
        p.add_argument("--mode", default="grant-free",
                       choices=harness.MODES)
        p.add_argument("--workers", type=int, default=1)
    if out:
        p.add_argument("--out", default=None)


def cmd_sim(args):
    cfg = _load_config(args)
    grid = _snr_grid(args)
    if len(grid) != 1:
        raise ConfigError(f"sim runs one SNR point, got {len(grid)}; "
                          "use sweep for a grid")
    spec = harness.ExperimentSpec(cfg, grid, trials=args.trials,
                                  mode=args.mode,
                                  master_seed=cfg.system_seed,
                                  workers=args.workers)
    result = harness.monte_carlo(spec)
    p = result.points[0]
    print(f"snr_db={p.snr_db:g} trials={p.trials} bler={p.bler:.4g} "
          f"ber={p.ber:.4g} miss={p.miss_rate:.4g} "
          f"fa={p.false_alarm_rate:.4g} iters={p.mean_iterations:.4g}")
    return 0


def cmd_sweep(args):
    cfg = _load_config(args)
    grid = _snr_grid(args)
    spec = harness.ExperimentSpec(cfg, grid, trials=args.trials,
                                  mode=args.mode,
                                  master_seed=cfg.system_seed,
                                  workers=args.workers)
    result = harness.monte_carlo(spec)
    if args.with_de:
        harness.attach_de(result, spec)
    out = args.out or "sweep.csv"
    harness.snr_sweep_report(result, out)
    print(f"wrote {out}")
    return 0


def cmd_de(args):
    # imported here, so that sim, sweep and graph-dump never load scipy
    from . import de
    cfg = _load_config(args)
    grid = validate_snr_db_grid(_snr_grid(args))
    gains = harness.expected_active_gains(cfg)
    gamma_th = de.threshold_search(cfg, gains)
    out = args.out or "de.csv"
    de.write_de_trace(cfg, gains, grid, out, threshold_db=gamma_th)
    print(f"gamma_th_db={gamma_th:.4g}")
    print(f"wrote {out}")
    return 0


def cmd_graph_dump(args):
    cfg = _load_config(args)
    graph = pattern.build_access_graph(cfg)
    out = args.out or "graph.txt"
    pattern.dump_graph(graph, out)
    print(f"wrote {out} ({graph.n_edges} edges)")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gfrma",
        description="Grant-free rateless multiple access simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, groups in (
            ("sim", cmd_sim, dict(snr=True, run=True)),
            ("sweep", cmd_sweep, dict(snr=True, run=True, out=True)),
            ("de", cmd_de, dict(snr=True, out=True)),
            ("graph-dump", cmd_graph_dump, dict(out=True))):
        p = sub.add_parser(name)
        _add_options(p, **groups)
        if name == "sweep":
            p.add_argument("--with-de", action="store_true",
                           help="append converged-MI column from DE")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
