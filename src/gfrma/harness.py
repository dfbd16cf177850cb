"""Monte Carlo experiment orchestration: trials, sweeps, CSV reports.

Every trial is a pure function of (config, master seed, trial index), so
results are byte-identical regardless of worker count or scheduling.
"""
from __future__ import annotations

import dataclasses
import math
import multiprocessing
from dataclasses import dataclass

import numpy as np

from . import ldpc, phy, receiver
from .config import (FIELDS, SystemConfig, choice, db_to_linear, integer,
                     noise_variance_for_snr, validate_config,
                     validate_snr_db_grid)
from .pattern import build_access_graph

MODES = ("grant-free", "registration", "genie-csi")
# The most worker processes a sweep starts. Each is a Python process with
# its own numpy, code and graph (a single-process DESK sweep peaks at about
# 44 MB), so 64 take about 2.8 GB, and more than a host has CPUs only
# contend: a larger count is a slip, not a plan. Not tied to the CPU count,
# so that a spec is valid or not on every host.
MAX_WORKERS = 64
# ExperimentSpec's own fields, as config.FIELDS states SystemConfig's; the
# master seed replaces system_seed, so it takes that field's kind
SPEC_FIELDS = {"trials": integer(1), "workers": integer(1, MAX_WORKERS),
               "master_seed": FIELDS["system_seed"], "mode": choice(*MODES)}


@dataclass(frozen=True)
class ExperimentSpec:
    """`trials` trials of cfg at each SNR point. master_seed is the seed
    the sweep runs: it overrides cfg.system_seed (see base)."""

    cfg: SystemConfig
    snr_db_grid: tuple
    trials: int = 200
    mode: str = "grant-free"
    master_seed: int = 1
    workers: int = 1

    @property
    def base(self):
        """cfg at master_seed: the config monte_carlo and attach_de run."""
        return dataclasses.replace(self.cfg, system_seed=self.master_seed)

    def validate(self):
        for name, kind in SPEC_FIELDS.items():
            kind.check(name, getattr(self, name))
        validate_config(self.base)
        validate_snr_db_grid(self.snr_db_grid)
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
    records: np.ndarray           # (points, trials) trial_stats records
    de_mi: list | None = None     # converged MI per SNR point, optional


def expected_active_gains(cfg: SystemConfig):
    """The nominal active set's gains: the first cfg.n_active users'."""
    return cfg.true_gains()[:cfg.n_active]


def _point_configs(base: SystemConfig, snr_db_grid):
    """base with each SNR point's noise variance for the nominal set."""
    gains = expected_active_gains(base)
    return [base.with_noise_variance(
                noise_variance_for_snr(base, db_to_linear(snr_db), gains))
            for snr_db in snr_db_grid]


def run_trial(cfg: SystemConfig, pc, graph, trial_index, mode="grant-free"):
    """One end-to-end trial; returns (truth, TrialOutcome)."""
    SPEC_FIELDS["mode"].check("mode", mode)
    truth = phy.make_ground_truth(cfg, pc, trial_index)
    y = phy.superpose(cfg, truth, graph)
    kwargs = {}
    if mode in ("registration", "genie-csi"):
        kwargs["known_active"] = truth.active
    if mode == "genie-csi":
        kwargs["known_gains"] = truth.gains
    return truth, receiver.joint_decode(cfg, y, graph, pc, **kwargs)


def trial_stats(cfg, truth, outcome):
    """One trial's record: per user, active, declared and bit_errors (wrong
    info bits; 0 if inactive, all cfg.m if active but not declared); per
    trial, the decoder's iterations and stop reason."""
    wrong = (outcome.decoded_bits != truth.info_bits).sum(axis=1)
    wrong = np.where(outcome.declared, wrong, cfg.m) * truth.active
    return np.array((truth.active, outcome.declared, wrong,
                     outcome.iterations, outcome.converged),
                    [("active", bool, cfg.K), ("declared", bool, cfg.K),
                     ("bit_errors", int, cfg.K), ("iterations", int),
                     ("stop", object)])


def _rate(count, n):
    return count / n if n else float("nan")


def wilson_halfwidth(errors, n):
    """Half-width of the Wilson 95% interval for a binomial rate."""
    if n == 0:
        return float("nan")
    z = 1.96
    p = errors / n
    denom = 1.0 + z * z / n
    return z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom


def _point_result(snr_db, records, m):
    """One point's PointResult, summed over its trials' records."""
    active, declared = records["active"], records["declared"]
    n_active = int(active.sum())
    block_err = int(np.count_nonzero(records["bit_errors"]))
    return PointResult(
        float(snr_db), len(records), _rate(block_err, n_active),
        _rate(int(records["bit_errors"].sum()), n_active * m),
        _rate(int((active & ~declared).sum()), n_active),
        _rate(int((declared & ~active).sum()), active.size - n_active),
        int(records["iterations"].sum()) / len(records),
        wilson_halfwidth(block_err, n_active))


def _trial(cfg, trial_index, pc, graph, mode):
    return trial_stats(cfg, *run_trial(cfg, pc, graph, trial_index, mode))


# per worker process: the (pc, graph, mode) shared by every point of a
# sweep; set only by a pool's initializer, so a serial sweep holds no
# graph after it returns
_POOL_STATE = {}


def _pool_init(pc, graph, mode):
    _POOL_STATE["args"] = (pc, graph, mode)


def _pool_trial(cfg, trial_index):
    return _trial(cfg, trial_index, *_POOL_STATE["args"])


def monte_carlo(spec: ExperimentSpec) -> ExperimentResult:
    """Aggregate run_trial over the SNR grid.

    One task list holds every (point config, trial): with workers > 1, one
    pool of at most one process per task runs it, and the code and the
    graph reach each worker once.
    """
    spec.validate()
    base = spec.base
    pc = ldpc.construct_parity_check(base.m, base.code_rate, base.d_v,
                                     base.system_seed)
    graph = build_access_graph(base)
    tasks = [(cfg, i) for cfg in _point_configs(base, spec.snr_db_grid)
             for i in range(spec.trials)]
    workers = min(spec.workers, len(tasks))
    if workers > 1:
        with multiprocessing.Pool(workers, _pool_init,
                                  (pc, graph, spec.mode)) as pool:
            rows = pool.starmap(_pool_trial, tasks)
    else:
        rows = [_trial(*task, pc, graph, spec.mode) for task in tasks]
    # one (points, trials) record array in trial order, reduced per point
    records = np.stack(rows).reshape(len(spec.snr_db_grid), spec.trials)
    return ExperimentResult([_point_result(snr_db, row, base.m) for snr_db, row
                             in zip(spec.snr_db_grid, records)], records)


def attach_de(result: ExperimentResult, spec: ExperimentSpec):
    """Add the converged-MI column: DE at each of result's points, for
    spec's config at master_seed."""
    # imported here: de's import builds its quadrature rules (about
    # 20 ms), which a sweep without DE does not need
    from . import de
    gains = expected_active_gains(spec.base)
    grid = [p.snr_db for p in result.points]
    result.de_mi = [float(np.min(de.run_de(cfg, gains).mi))
                    for cfg in _point_configs(spec.base, grid)]
    return result


def snr_sweep_report(result: ExperimentResult, path):
    """Write the sweep CSV (RFC-4180, LF line endings)."""
    header = [f.name for f in dataclasses.fields(PointResult)]
    rows = [dataclasses.astuple(p) for p in result.points]
    if result.de_mi is not None:
        header.append("de_mi")
        rows = [row + (mi,) for row, mi in zip(rows, result.de_mi)]
    with open(path, "w", newline="") as f:
        for row in [header, *rows]:
            f.write(",".join(f"{v:.6g}" if isinstance(v, float) else str(v)
                             for v in row) + "\n")


# Desk-scale profile used throughout the demos and acceptance runs.
# T is chosen so each user places T*E[d] = 896 symbol copies over the block
# (dense access graph: the law-of-large-numbers argument behind the DE
# predictor is accurate there), while K, p_a, rate mirror the full setup.
DESK_CONFIG = SystemConfig(K=30, p_a=0.1, m=120, code_rate=0.6, T=6400)

# the full-scale configuration from the reference experiment
PAPER_CONFIG = SystemConfig(K=100, p_a=0.1, m=240, code_rate=0.6, T=6400)
