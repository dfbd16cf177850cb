"""System configuration, validation, and scalar link metrics.

All SNR values are stored linear internally; db_to_linear converts the dB
values given at the boundaries.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """Raised when a configuration violates an invariant."""


# The largest |gain| and |prior.mean| validate_config accepts. Squared and
# scaled by T * E[d] in the receiver and DE, larger amplitudes overflow
# float64 (gains of 1e153 already do in DE at DESK_CONFIG).
MAX_AMPLITUDE = 1e100


def db_to_linear(x_db):
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


@dataclass(frozen=True)
class Racf:
    """Random access control function: probs[d] = P(per-RE degree = d).

    probs covers d = 0 .. d_max; must sum to 1.
    """

    probs: tuple

    @property
    def d_max(self):
        return len(self.probs) - 1

    @classmethod
    def from_dict(cls, mapping):
        """Build from {degree: probability}; unlisted degrees get 0."""
        if min(mapping) < 0:
            raise ConfigError(f"RACf degree {min(mapping)} is negative")
        d_max = max(mapping)
        probs = [0.0] * (d_max + 1)
        for d, p in mapping.items():
            probs[int(d)] = float(p)
        return cls(tuple(probs))


# Default: the rate-controlling distribution used throughout the experiments.
# Coefficients at d=1 and d=2 with the remaining mass at d=0.
DEFAULT_RACF = Racf((0.90, 0.06, 0.04))


@dataclass(frozen=True)
class ChannelPrior:
    """Initial (mean, variance) of a user's channel amplitude at the receiver."""

    mean: float = 1.0
    var: float = 10.0


@dataclass(frozen=True)
class SystemConfig:
    K: int = 30                      # potential users
    p_a: float = 0.1                 # activity probability
    m: int = 120                     # info bits per packet
    code_rate: float = 0.6
    T: int = 1920                    # resource elements per access block
    racf: Racf = DEFAULT_RACF
    prior: ChannelPrior = ChannelPrior()
    gains: tuple | None = None       # true per-user amplitudes; None = all 1.0
    noise_variance: float = 0.1
    system_seed: int = 1
    max_iterations: int = 100
    activity_threshold: float = 0.5
    d_v: int = 3                     # LDPC variable degree
    activity_mode: str = "fixed"     # "fixed" (n_active actives) or "bernoulli"

    @property
    def N(self):
        return int(round(self.m / self.code_rate))

    @property
    def n_active(self):
        """Nominal active count, ceil(K * p_a). A product within a relative
        1e-9 of an integer counts as that integer (100 * 0.07 is
        7.000000000000001); a tiny p_a still gives one active user."""
        x = self.K * self.p_a
        if math.isclose(x, round(x), rel_tol=1e-9):
            return round(x)
        return math.ceil(x)

    def true_gains(self):
        """Per-user channel amplitudes as an array of length K."""
        if self.gains is None:
            return np.ones(self.K)
        return np.asarray(self.gains, dtype=float)

    def with_noise_variance(self, xi_w):
        return dataclasses.replace(self, noise_variance=float(xi_w))


def validate_gains(gains):
    """gains as a float array; ConfigError unless it is a non-empty 1-D
    sequence of finite numbers in [0, MAX_AMPLITUDE].

    The check for SystemConfig.gains and for DE's active gains. A Python
    int beyond float range is rejected here, not left to raise
    OverflowError in the conversion.
    """
    try:
        g = np.asarray(gains, dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"gains must be real numbers ({exc})") from None
    if g.ndim != 1 or g.size == 0:
        raise ConfigError("gains must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(g) & (g >= 0) & (g <= MAX_AMPLITUDE)):
        raise ConfigError("gains must be finite, >= 0 and "
                          f"<= {MAX_AMPLITUDE:g}")
    return g


def validate_racf(racf):
    if not isinstance(racf.probs, tuple):     # DE caches per hashable config
        raise ConfigError("RACf probs must be a tuple")
    if any(map(_is_bool, racf.probs)):
        raise ConfigError("racf.probs must be real numbers, not bools")
    p = np.asarray(racf.probs, dtype=float)
    if racf.d_max < 1:
        raise ConfigError("RACf d_max must be >= 1")
    if not np.all(np.isfinite(p)):
        raise ConfigError("RACf has a non-finite probability")
    if np.any(p < 0):
        raise ConfigError("RACf has a negative probability")
    s = p.sum()
    if abs(s - 1.0) > 1e-12:
        raise ConfigError(f"RACf sums to {s:.12g}, expected 1")
    return racf


def _is_bool(v):
    """A bool or numpy bool, which int and float checks would accept."""
    return isinstance(v, (bool, np.bool_))


def _is_int(v):
    """An int or numpy integer, and not a bool (True would pass as 1)."""
    return isinstance(v, (int, np.integer)) and not _is_bool(v)


def _is_finite(v):
    """A finite real number, and not a bool (True would pass as 1.0)."""
    return _is_int(v) or (isinstance(v, (float, np.floating))
                          and math.isfinite(v))


def validate_config(cfg: SystemConfig) -> SystemConfig:
    """Check every invariant; returns cfg unchanged if valid."""
    validate_racf(cfg.racf)
    if not (_is_finite(cfg.p_a) and 0 < cfg.p_a <= 1):
        raise ConfigError(f"p_a = {cfg.p_a!r} outside (0, 1]")
    for name in ("K", "m", "T"):
        v = getattr(cfg, name)
        if not (_is_int(v) and v > 0):
            raise ConfigError(f"{name} = {v} must be a positive integer")
    for name in ("code_rate", "activity_threshold"):
        v = getattr(cfg, name)
        if not (_is_finite(v) and 0 < v < 1):
            raise ConfigError(f"{name} = {v!r} outside (0, 1)")
    n_exact = cfg.m / cfg.code_rate
    if abs(n_exact - round(n_exact)) > 1e-9:
        raise ConfigError(f"N non-integer: m/code_rate = {n_exact:.6g}")
    if cfg.racf.d_max > cfg.N:
        raise ConfigError(f"RACf d_max = {cfg.racf.d_max} exceeds N = {cfg.N}")
    if not (_is_finite(cfg.prior.mean)
            and abs(cfg.prior.mean) <= MAX_AMPLITUDE):
        raise ConfigError("prior.mean must be a finite number with "
                          f"|prior.mean| <= {MAX_AMPLITUDE:g}")
    if not (_is_finite(cfg.prior.var) and cfg.prior.var > 0):
        raise ConfigError("prior.var must be a finite number > 0")
    if not (_is_finite(cfg.noise_variance) and cfg.noise_variance > 0):
        raise ConfigError("noise_variance must be a finite number > 0")
    if cfg.gains is not None:
        # checked before the float conversion, which reads True as 1.0
        if any(map(_is_bool, cfg.gains)):
            raise ConfigError("gains must be real numbers, not bools")
        g = validate_gains(cfg.gains)
        if len(g) != cfg.K:
            raise ConfigError(f"gains has length {len(g)}, "
                              f"expected K = {cfg.K}")
    if not (_is_int(cfg.max_iterations) and cfg.max_iterations >= 1):
        raise ConfigError("max_iterations must be an integer >= 1")
    if not (_is_int(cfg.d_v) and cfg.d_v >= 2):
        raise ConfigError("d_v must be an integer >= 2")
    if cfg.d_v > cfg.N - cfg.m:
        raise ConfigError(f"d_v = {cfg.d_v} exceeds the N - m = "
                          f"{cfg.N - cfg.m} parity checks")
    if not (_is_int(cfg.system_seed) and cfg.system_seed >= 0):
        raise ConfigError(f"system_seed = {cfg.system_seed!r} must be an "
                          "integer >= 0")
    if cfg.activity_mode not in ("fixed", "bernoulli"):
        raise ConfigError(f"unknown activity_mode {cfg.activity_mode!r}")
    return cfg


def racf_mean_degree(racf: Racf) -> float:
    """E[d] = sum_d d * p_d."""
    p = np.asarray(racf.probs, dtype=float)
    return float(np.dot(np.arange(len(p)), p))


def throughput(cfg: SystemConfig) -> float:
    """Average system throughput in bits per RE: K * p_a * m / T."""
    return cfg.K * cfg.p_a * cfg.m / cfg.T


def validate_snr_db_grid(snr_db_grid):
    """Raise ConfigError unless the dB grid is non-empty and every point
    gives a finite linear SNR > 0 (NaN fails, and so do dB values whose
    linear SNR overflows to inf or underflows to 0)."""
    if len(snr_db_grid) == 0:
        raise ConfigError("SNR grid must be non-empty")
    with np.errstate(over="ignore"):
        gamma = db_to_linear(snr_db_grid)
    if not np.all(np.isfinite(gamma) & (gamma > 0)):
        raise ConfigError("SNR grid must give a finite linear SNR > 0")
    return snr_db_grid


def noise_variance_for_snr(cfg: SystemConfig, gamma: float, active_gains) -> float:
    """Noise variance that makes the average per-RE SNR equal gamma (linear).

    The SNR is E[d] * sum over active users of h^2, divided by xi_w.
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise ConfigError(f"target SNR must be finite and > 0, got {gamma}")
    ed = racf_mean_degree(cfg.racf)
    g = np.asarray(active_gains, dtype=float)
    signal = ed * np.sum(g * g)
    if signal <= 0:
        raise ConfigError("no active signal power; cannot set SNR")
    return float(signal / gamma)


def _parse_value(key, raw):
    """Parse one value; raises ValueError if it is malformed."""
    raw = raw.strip()
    if key == "racf":
        pairs = {}
        for item in raw.split(","):
            d, colon, p = item.partition(":")
            if not colon:
                raise ConfigError(f"expected `degree:probability`, got "
                                  f"{item.strip()!r}")
            d = int(d)
            if d in pairs:
                raise ConfigError(f"RACf degree {d} is given twice")
            pairs[d] = float(p)
        return Racf.from_dict(pairs)
    if key == "gains":
        return tuple(float(x) for x in raw.split(","))
    if key in ("K", "m", "T", "system_seed", "max_iterations", "d_v"):
        return int(raw)
    if key == "activity_mode":
        return raw
    return float(raw)


def read_config_file(path) -> SystemConfig:
    """Read a flat `key = value` config file (# starts a comment).

    Keys mirror SystemConfig fields, each given once; the prior is given
    as prior_mean / prior_var; the RACf as `racf = 0:0.90,1:0.06,2:0.04`.
    """
    fields = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`")
            key, raw = line.split("=", 1)
            key = key.strip()
            if key in fields:
                raise ConfigError(f"{path}:{lineno}: {key}: given twice")
            try:
                fields[key] = _parse_value(key, raw)
            except ValueError as e:
                raise ConfigError(f"{path}:{lineno}: {key}: {e}") from None
    known = ({f.name for f in dataclasses.fields(SystemConfig)} - {"prior"}
             | {"prior_mean", "prior_var"})
    unknown = set(fields) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "prior_mean" in fields or "prior_var" in fields:
        default = ChannelPrior()
        fields["prior"] = ChannelPrior(fields.pop("prior_mean", default.mean),
                                       fields.pop("prior_var", default.var))
    return validate_config(SystemConfig(**fields))
