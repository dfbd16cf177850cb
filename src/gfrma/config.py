"""System configuration, validation, and scalar link metrics.

All SNR values are stored linear internally; db_to_linear converts the dB
values given at the boundaries. FIELDS, each field's kind and bounds, drives
validate_config and read_config_file.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """Raised when a configuration violates an invariant."""


# The largest |gain| and |prior_mean| validate_config accepts. Squared and
# scaled by T * E[d] in the receiver and DE, larger amplitudes overflow
# float64 (gains of 1e153 already do in DE at DESK_CONFIG).
MAX_AMPLITUDE = 1e100
# The bound on |int| in every field but the seed: numpy takes a Python int
# as an int64, in array sizes and in arithmetic alike
INT_MAX = 2**63 - 1


def db_to_linear(x_db):
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


# Default RACf (random access control function), racf[d] = P(per-RE
# degree = d): the rate-controlling distribution used throughout the
# experiments, with mass at d=1 and d=2 and the rest at d=0.
DEFAULT_RACF = (0.90, 0.06, 0.04)


@dataclass(frozen=True)
class SystemConfig:
    K: int = 30                      # potential users
    p_a: float = 0.1                 # activity probability
    m: int = 120                     # info bits per packet
    code_rate: float = 0.6
    T: int = 1920                    # resource elements per access block
    racf: tuple = DEFAULT_RACF       # P(per-RE degree = d), d = 0 .. d_max
    prior_mean: float = 1.0          # channel-amplitude prior at the receiver
    prior_var: float = 10.0
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


def _is_int(v):
    """An int or numpy integer, and not a bool (True would pass as 1)."""
    return (isinstance(v, (int, np.integer))
            and not isinstance(v, (bool, np.bool_)))


def _real(v):
    """v as a float if it is a finite float, or an int within +-INT_MAX
    (np.sqrt fails on 10**20, float() on 10**400); else None."""
    if (isinstance(v, (float, np.floating))
            or _is_int(v) and -INT_MAX <= v <= INT_MAX):
        x = float(v)
        return x if math.isfinite(x) else None
    return None


@dataclass(frozen=True)
class Kind:
    """A field's kind: parse reads its config-file string (ValueError if
    malformed); check raises a ConfigError that starts with the field's
    name unless ok(value), and ok may raise a more precise one."""

    doc: str
    ok: object
    parse: object = float

    def check(self, name, v):
        if not self.ok(v):
            raise ConfigError(f"{name} {v!r} is not {self.doc}")


def integer(lo, hi=INT_MAX):
    return Kind(f"an integer in [{lo}, {hi}]",
                lambda v: _is_int(v) and lo <= v <= hi, int)


def real(lo, hi, ends="()"):
    """A finite real (see _real) from lo to hi, each end open or closed
    as ends reads: "()", "(]" or "[]"."""
    def ok(v):
        x = _real(v)
        return (x is not None and (lo < x or ends[0] == "[" and x == lo)
                and (x < hi or ends[1] == "]" and x == hi))
    return Kind(f"a finite real number in {ends[0]}{lo:g}, {hi:g}{ends[1]}",
                ok)


def choice(*values):
    return Kind(f"one of {values}",
                lambda v: isinstance(v, str) and v in values, str)


def _probs_ok(p):
    """RACf probabilities: a tuple (DE caches per hashable config) of two
    or more finite reals >= 0; raises if they do not sum to 1."""
    if not (isinstance(p, tuple) and len(p) > 1
            and all(_real(x) is not None and x >= 0 for x in p)):
        return False
    s = np.asarray(p, dtype=float).sum()
    if abs(s - 1.0) > 1e-12:
        raise ConfigError(f"racf sums to {s:.12g}, expected 1")
    return True


def _parse_probs(raw):
    """`degree:probability` pairs, as in `0:0.90,1:0.06,2:0.04`, as the
    tuple of P(degree = d) for d = 0 .. the largest degree given; a degree
    not given gets 0."""
    pairs = {}
    for item in raw.split(","):
        d, colon, p = item.partition(":")
        if not colon:
            raise ConfigError(f"expected `degree:probability`, got "
                              f"{item.strip()!r}")
        d = int(d)
        if d < 0:
            raise ConfigError(f"RACf degree {d} is negative")
        if d in pairs:
            raise ConfigError(f"RACf degree {d} is given twice")
        pairs[d] = float(p)
    return tuple(pairs.get(d, 0.0) for d in range(max(pairs) + 1))


def _gains_ok(g):
    """A non-empty tuple, list or 1-D array of reals in [0, MAX_AMPLITUDE];
    not bools or strings, which a float conversion would read as 1.0."""
    x = ([_real(v) for v in g] if isinstance(g, (tuple, list))
         or isinstance(g, np.ndarray) and g.ndim == 1 else [])
    return bool(x) and all(v is not None and 0 <= v <= MAX_AMPLITUDE
                           for v in x)


GAINS = Kind("a non-empty 1-D sequence of real numbers in "
             f"[0, {MAX_AMPLITUDE:g}]", _gains_ok,
             lambda raw: tuple(map(float, raw.split(","))))


def validate_gains(gains):
    """gains as a float array; ConfigError unless GAINS.ok. The check for
    DE's active gains and, unless None, SystemConfig.gains."""
    GAINS.check("gains", gains)
    return np.asarray(gains, dtype=float)


# Each SystemConfig field's kind and bounds, keyed by its name, which is
# also its config-file key and the name its messages give it.
FIELDS = {
    "K": integer(1),
    "p_a": real(0, 1, "(]"),
    "m": integer(1),
    "code_rate": real(0, 1),
    "T": integer(1),
    "racf": Kind("a tuple of two or more finite real numbers >= 0 "
                 "that sum to 1", _probs_ok, _parse_probs),
    "prior_mean": real(-MAX_AMPLITUDE, MAX_AMPLITUDE, "[]"),
    "prior_var": real(0, math.inf),
    "gains": Kind("None or " + GAINS.doc, lambda v: v is None or GAINS.ok(v),
                  GAINS.parse),
    "noise_variance": real(0, math.inf),
    "system_seed": integer(0, 2**64 - 1),   # pattern.mix reads 64 bits
    "max_iterations": integer(1),
    "activity_threshold": real(0, 1),
    "d_v": integer(2),
    "activity_mode": choice("fixed", "bernoulli"),
}

def validate_config(cfg: SystemConfig) -> SystemConfig:
    """Check every field against FIELDS, then the invariants that join
    fields; returns cfg unchanged if valid."""
    for name, kind in FIELDS.items():
        kind.check(name, getattr(cfg, name))
    n_exact = cfg.m / cfg.code_rate
    if abs(n_exact - round(n_exact)) > 1e-9:
        raise ConfigError(f"N non-integer: m/code_rate = {n_exact:.6g}")
    d_max = len(cfg.racf) - 1
    if d_max > cfg.N:
        raise ConfigError(f"RACf d_max = {d_max} exceeds N = {cfg.N}")
    if cfg.d_v > cfg.N - cfg.m:
        raise ConfigError(f"d_v = {cfg.d_v} exceeds the N - m = "
                          f"{cfg.N - cfg.m} parity checks")
    if cfg.gains is not None and len(cfg.gains) != cfg.K:
        raise ConfigError(f"gains has length {len(cfg.gains)}, "
                          f"expected K = {cfg.K}")
    return cfg


def racf_mean_degree(racf) -> float:
    """E[d] = sum_d d * racf[d]."""
    p = np.asarray(racf, dtype=float)
    return float(np.dot(np.arange(len(p)), p))


def throughput(cfg: SystemConfig) -> float:
    """Average system throughput in bits per RE: K * p_a * m / T."""
    return cfg.K * cfg.p_a * cfg.m / cfg.T


def _grid_ok(g):
    """A non-empty tuple or list of reals (see _real) whose linear SNRs are
    finite and > 0: dB values that overflow to inf or underflow to 0 fail.
    _real rejects an element that is a str, a bool or a sequence."""
    x = [_real(v) for v in g] if isinstance(g, (tuple, list)) else []
    if not x or None in x:
        return False
    with np.errstate(over="ignore"):
        gamma = db_to_linear(x)
    return bool(np.all(np.isfinite(gamma) & (gamma > 0)))


SNR_DB_GRID = Kind("a non-empty tuple or list of finite real dB values, "
                   "each with a finite linear SNR > 0", _grid_ok,
                   GAINS.parse)


def validate_snr_db_grid(snr_db_grid):
    """snr_db_grid unchanged; ConfigError unless SNR_DB_GRID.ok. The one
    check of a sweep's or gfrma de's dB grid."""
    SNR_DB_GRID.check("snr_db_grid", snr_db_grid)
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


def read_config_file(path) -> SystemConfig:
    """Read a flat `key = value` config file (# starts a comment).

    The keys are the FIELDS keys, SystemConfig's field names, each given
    once; the RACf reads `racf = 0:0.90,1:0.06,2:0.04`. A field not given
    keeps its default.
    """
    values, unknown = {}, set()
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`")
            key, raw = line.split("=", 1)
            key = key.strip()
            if key not in FIELDS:
                unknown.add(key)
            elif key in values:
                raise ConfigError(f"{path}:{lineno}: {key}: given twice")
            else:
                try:
                    values[key] = FIELDS[key].parse(raw.strip())
                except ValueError as e:
                    raise ConfigError(f"{path}:{lineno}: {key}: {e}") from None
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return validate_config(SystemConfig(**values))
