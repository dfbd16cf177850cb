"""Monte Carlo experiment orchestration: trials, sweeps, CSV reports.

Every trial is a pure function of (config, master seed, trial index), so
results are byte-identical regardless of worker count or scheduling.
"""
from __future__ import annotations

import contextlib
import dataclasses
import math
import multiprocessing
from dataclasses import dataclass

import numpy as np

from . import de, ldpc, phy, receiver
from .config import (ConfigError, SystemConfig, db_to_linear,
                     noise_variance_for_snr, validate_config,
                     validate_snr_db_grid)
from .pattern import build_access_graph

MODES = ("grant-free", "registration", "genie-csi")
CSV_HEADER = ("snr_db,trials,bler,ber,miss_rate,false_alarm_rate,"
              "mean_iterations,bler_ci95")


@dataclass(frozen=True)
class ExperimentSpec:
    cfg: SystemConfig
    snr_db_grid: tuple
    trials: int = 200
    mode: str = "grant-free"
    master_seed: int = 1
    workers: int = 1

    def validate(self):
        if not (isinstance(self.master_seed, (int, np.integer))
                and self.master_seed >= 0):
            raise ConfigError(f"master_seed = {self.master_seed!r} must be "
                              "an integer >= 0")
        # the config monte_carlo and attach_de run
        validate_config(dataclasses.replace(self.cfg,
                                            system_seed=self.master_seed))
        for name in ("trials", "workers"):
            v = getattr(self, name)
            if not (isinstance(v, (int, np.integer)) and v >= 1):
                raise ConfigError(f"{name} = {v!r} must be an integer >= 1")
        validate_snr_db_grid(self.snr_db_grid)
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        return self


@dataclass
class PointResult:
    snr_db: float
    trials: int
    bler: float
    ber: float
    miss_rate: float
    false_alarm_rate: float
    mean_iterations: float
    bler_ci95: float


@dataclass
class ExperimentResult:
    points: list
    de_mi: list | None = None     # converged MI per SNR point, optional


def expected_active_gains(cfg: SystemConfig):
    """Gains of the nominal active set (ceil(K p_a) users at the shared gain)."""
    n_active = int(np.ceil(cfg.K * cfg.p_a))
    return cfg.true_gains()[:n_active]


def run_trial(cfg: SystemConfig, pc, graph, trial_index, mode="grant-free"):
    """One end-to-end trial; returns (truth, TrialOutcome)."""
    truth = phy.make_ground_truth(cfg, pc, trial_index)
    y = phy.superpose(cfg, truth, graph)
    kwargs = {}
    if mode in ("registration", "genie-csi"):
        kwargs["known_active"] = truth.active
    if mode == "genie-csi":
        kwargs["pinned_csi"] = (truth.gains, 1e-6)
    return truth, receiver.joint_decode(cfg, y, graph, pc, **kwargs)


def trial_stats(cfg, truth, outcome):
    """Per-trial counters: (active blocks, block errors, bit errors,
    info bits, misses, false alarms, inactive users)."""
    active = truth.active
    n_active = int(active.sum())
    declared = outcome.declared
    # wrong bits per active user; an undeclared one loses its whole packet
    wrong = (outcome.decoded_bits != truth.info_bits).sum(axis=1)
    wrong = np.where(declared, wrong, cfg.m)[active]
    misses = int((active & ~declared).sum())
    false_alarms = int((~active & declared).sum())
    return (n_active, int(np.count_nonzero(wrong)), int(wrong.sum()),
            n_active * cfg.m, misses, false_alarms, int((~active).sum()))


def wilson_halfwidth(errors, n, z=1.96):
    """Half-width of the Wilson 95% interval for a binomial rate."""
    if n == 0:
        return float("nan")
    p = errors / n
    denom = 1.0 + z * z / n
    return z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom


# per worker process: the (pc, graph, mode) shared by every point of a sweep
_POOL_STATE = {}


def _pool_init(pc, graph, mode):
    _POOL_STATE["args"] = (pc, graph, mode)


def _pool_trial(cfg, trial_index):
    pc, graph, mode = _POOL_STATE["args"]
    truth, outcome = run_trial(cfg, pc, graph, trial_index, mode)
    return trial_stats(cfg, truth, outcome) + (outcome.iterations,)


def monte_carlo(spec: ExperimentSpec) -> ExperimentResult:
    """Aggregate run_trial over the SNR grid.

    With workers > 1, one pool serves the whole sweep: the code and the
    graph reach each worker once, the per-point config with each task.
    """
    spec.validate()
    base = dataclasses.replace(spec.cfg, system_seed=spec.master_seed)
    pc = ldpc.construct_parity_check(base.m, base.code_rate, base.d_v,
                                     base.system_seed)
    graph = build_access_graph(base)
    gains = expected_active_gains(base)
    points = []
    with contextlib.ExitStack() as stack:
        pool = None
        if spec.workers > 1:
            pool = stack.enter_context(multiprocessing.Pool(
                spec.workers, initializer=_pool_init,
                initargs=(pc, graph, spec.mode)))
        else:
            _pool_init(pc, graph, spec.mode)
        for snr_db in spec.snr_db_grid:
            xi_w = noise_variance_for_snr(base, db_to_linear(snr_db), gains)
            cfg = base.with_noise_variance(xi_w)
            tasks = [(cfg, i) for i in range(spec.trials)]
            if pool is not None:
                rows = pool.starmap(_pool_trial, tasks)
            else:
                rows = [_pool_trial(*task) for task in tasks]
            # deterministic reduction in trial order
            agg = np.sum(np.asarray(rows, dtype=float), axis=0)
            (n_active, block_err, bit_err, n_bits, misses,
             false_alarms, n_inactive, iter_sum) = agg
            points.append(PointResult(
                snr_db=float(snr_db),
                trials=spec.trials,
                bler=block_err / n_active if n_active else float("nan"),
                ber=bit_err / n_bits if n_bits else float("nan"),
                miss_rate=misses / n_active if n_active else float("nan"),
                false_alarm_rate=(false_alarms / n_inactive
                                  if n_inactive else float("nan")),
                mean_iterations=iter_sum / spec.trials,
                bler_ci95=wilson_halfwidth(block_err, n_active),
            ))
    return ExperimentResult(points)


def attach_de(result: ExperimentResult, spec: ExperimentSpec):
    """Add the converged-MI column from the DE recursion."""
    base = dataclasses.replace(spec.cfg, system_seed=spec.master_seed)
    gains = expected_active_gains(base)
    mis = []
    for snr_db in spec.snr_db_grid:
        xi_w = noise_variance_for_snr(base, db_to_linear(snr_db), gains)
        final = de.run_de(base.with_noise_variance(xi_w), gains)
        mis.append(float(np.min(final.mi)))
    result.de_mi = mis
    return result


def _fmt(x):
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.6g}"


def snr_sweep_report(result: ExperimentResult, path):
    """Write the sweep CSV (RFC-4180, LF line endings)."""
    header = CSV_HEADER + (",de_mi" if result.de_mi is not None else "")
    with open(path, "w", newline="") as f:
        f.write(header + "\n")
        for i, p in enumerate(result.points):
            row = [_fmt(p.snr_db), str(p.trials), _fmt(p.bler), _fmt(p.ber),
                   _fmt(p.miss_rate), _fmt(p.false_alarm_rate),
                   _fmt(p.mean_iterations), _fmt(p.bler_ci95)]
            if result.de_mi is not None:
                row.append(_fmt(result.de_mi[i]))
            f.write(",".join(row) + "\n")


# Desk-scale profile used throughout the demos and acceptance runs.
# T is chosen so each user places T*E[d] = 896 symbol copies over the block
# (dense access graph: the law-of-large-numbers argument behind the DE
# predictor is accurate there), while K, p_a, rate mirror the full setup.
DESK_CONFIG = SystemConfig(K=30, p_a=0.1, m=120, code_rate=0.6, T=6400)

# the full-scale configuration from the reference experiment
PAPER_CONFIG = SystemConfig(K=100, p_a=0.1, m=240, code_rate=0.6, T=6400)
