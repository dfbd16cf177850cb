"""Transmitter-side superposition and the multi-user AWGN channel.

Real-valued baseband: +/-1 coded symbols, real channel amplitudes, real
Gaussian noise. Everything is a pure function of (config, seeds).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# numpy loads np.random on first use; imported here, the first code
# build or trial does not pay for that import
from numpy.random import default_rng

from . import ldpc
from .config import SystemConfig
from .pattern import AccessGraph, mix

# domain tags keeping the activity / bits / noise substreams independent
_TAG_ACTIVITY = 0xA11CE
_TAG_BITS = 0xB175
_TAG_NOISE = 0x4015E


@dataclass
class TrialGroundTruth:
    """Everything the channel knows and the receiver must infer."""

    active: np.ndarray      # bool, length K
    gains: np.ndarray       # amplitude per user; 0 for inactive
    info_bits: np.ndarray   # (K, m) uint8; zero rows for inactive users
    symbols: np.ndarray     # (K, N) float +/-1; zero rows for inactive users
    noise: np.ndarray       # length T


def sample_activity(cfg: SystemConfig, trial_seed) -> np.ndarray:
    """Bool activity vector; deterministic in trial_seed.

    "fixed" mode activates exactly cfg.n_active uniformly chosen users;
    "bernoulli" mode activates each user independently with probability p_a.
    """
    rng = default_rng(mix(trial_seed, _TAG_ACTIVITY))
    if cfg.activity_mode == "bernoulli":
        return rng.random(cfg.K) < cfg.p_a
    active = np.zeros(cfg.K, dtype=bool)
    active[rng.choice(cfg.K, size=cfg.n_active, replace=False)] = True
    return active


def make_ground_truth(cfg: SystemConfig, pc: ldpc.ParityCheck,
                      trial_index) -> TrialGroundTruth:
    """Sample activity, packets, and noise for one trial."""
    trial_seed = mix(cfg.system_seed, trial_index)
    active = sample_activity(cfg, trial_seed)
    gains = np.where(active, cfg.true_gains(), 0.0)
    rng_bits = default_rng(mix(trial_seed, _TAG_BITS))
    info_bits = np.zeros((cfg.K, cfg.m), dtype=np.uint8)
    info_bits[active] = rng_bits.integers(0, 2, (active.sum(), cfg.m))
    symbols = np.zeros((cfg.K, cfg.N))
    symbols[active] = ldpc.bits_to_symbols(ldpc.encode(info_bits[active], pc))
    rng_noise = default_rng(mix(trial_seed, _TAG_NOISE))
    noise = rng_noise.normal(0.0, np.sqrt(cfg.noise_variance), cfg.T)
    return TrialGroundTruth(active, gains, info_bits, symbols, noise)


def superpose(cfg: SystemConfig, truth: TrialGroundTruth,
              graph: AccessGraph) -> np.ndarray:
    """Received block: y_t = sum_k h_k x'_{k,t} + z_t for every RE."""
    contrib = (truth.gains[graph.edge_user]
               * truth.symbols[graph.edge_user, graph.edge_sym])
    y = np.bincount(graph.edge_re, weights=contrib, minlength=cfg.T)
    return y + truth.noise
