"""Scalar reference rules: the per-edge updates the vectorised code applies.

The simulator runs these rules as array code (receiver.joint_decode,
ldpc.check_messages, the DE spline tables); the tests hold them here, one
edge or one point at a time, as oracles for that array code.
"""
import math

import numpy as np
from scipy import integrate, optimize

from gfrma import de
from gfrma.config import racf_mean_degree
from gfrma.ldpc import _TANH_CLAMP, LLR_CLAMP
from gfrma.receiver import Q_FLOOR


# ---------------------------------------------------------------------------
# joint receiver

def interference_moments(contributors):
    """Gaussian moments of the aggregate interference at one RE.

    contributors: iterable of (q, mu_h, xi_h, L) for every (user, symbol)
    pair on the RE other than the target. Soft symbol mean is tanh(L/2);
    activity enters as an independent Bernoulli(q) factor and E[x^2] = 1
    for +/-1 symbols.
    """
    mu = 0.0
    var = 0.0
    for q, mu_h, xi_h, L in contributors:
        m = math.tanh(L / 2.0)
        mu += q * mu_h * m
        var += q * (mu_h * mu_h + xi_h) - (q * mu_h * m) ** 2
    return mu, var


def ren_to_vn(mu_h, xi_h, y, mu_i, xi_i, xi_w):
    """LLR from an RE to a symbol: 2 mu_h (y - mu_i) / (xi_h + xi_i + xi_w)."""
    L = 2.0 * mu_h * (y - mu_i) / (xi_h + xi_i + xi_w)
    return float(np.clip(L, -LLR_CLAMP, LLR_CLAMP))


def vn_total(re_messages):
    """Channel portion of a symbol's LLR: sum over its connected REs."""
    return float(np.sum(re_messages)) if len(re_messages) else 0.0


def channel_edge_estimate(L, y, mu_i, xi_i, xi_w):
    """Symbol-wise channel estimate from one edge, in information form.

    Returns (w, w*mu) with w = tanh^2(L/2) / (xi_i + xi_w) and
    w*mu = (y - mu_i) tanh(L/2) / (xi_i + xi_w): the precision and scaled
    mean of the per-edge estimate. Finite for all L including L = 0, where
    the edge simply contributes nothing.
    """
    th = math.tanh(L / 2.0)
    denom = xi_i + xi_w
    return th * th / denom, (y - mu_i) * th / denom


def usn_combine(edge_pairs, prior_mean, prior_var):
    """Precision-weighted fusion of edge estimates with the channel prior."""
    w_sum = 1.0 / prior_var
    wm_sum = prior_mean / prior_var
    for w, wm in edge_pairs:
        w_sum += w
        wm_sum += wm
    return wm_sum / w_sum, 1.0 / w_sum


def activity_posterior(mu_h, xi_h, prior_mean, prior_var, p_a):
    """MAP activity probability from the fused channel estimate.

    Two-hypothesis ratio: active with density N(prior_mean, prior_var)
    evaluated at mu_h, against inactive (gain 0) smoothed by xi_h.
    Computed in the log domain; clamped away from exactly 0 and 1.
    """
    if p_a >= 1.0:
        return 1.0 - Q_FLOOR
    if p_a <= 0.0:
        return Q_FLOOR
    log_a = (math.log(p_a) - 0.5 * math.log(prior_var)
             - (mu_h - prior_mean) ** 2 / (2.0 * prior_var))
    log_i = (math.log(1.0 - p_a) - 0.5 * math.log(xi_h)
             - mu_h ** 2 / (2.0 * xi_h))
    q = 1.0 / (1.0 + math.exp(min(log_i - log_a, 700.0)))
    return float(np.clip(q, Q_FLOOR, 1.0 - Q_FLOOR))


# ---------------------------------------------------------------------------
# LDPC

def cn_update(incoming):
    """Check-node rule: 2 atanh(prod tanh(L_i/2)) over the other edges.

    `incoming` already excludes the target edge.
    """
    t = np.tanh(np.clip(np.asarray(incoming, dtype=float),
                        -LLR_CLAMP, LLR_CLAMP) / 2.0)
    prod = float(np.prod(t)) if len(t) else 1.0
    prod = np.clip(prod, -_TANH_CLAMP, _TANH_CLAMP)
    return float(2.0 * np.arctanh(prod))


def vn_update(channel_llr, incoming_checks):
    """Variable-node rule: channel LLR plus the other checks' messages."""
    return float(channel_llr) + float(np.sum(incoming_checks))


# ---------------------------------------------------------------------------
# density evolution: J, J^-1 and Omega by adaptive quadrature, the
# references for de.j_function, de.j_inverse and de.omega

def j_function(x):
    """MI of an LLR distributed N(x^2/2, x^2); adaptive quadrature.

    J(0) = 0, strictly increasing, J(x) -> 1 as x -> infinity.
    """
    x = float(x)
    if x < 0:
        raise ValueError("j_function requires x >= 0")
    if x == 0.0:
        return 0.0

    def integrand(u):
        # substitution xi = x^2/2 + x*u, u ~ N(0,1); stable softplus
        v = x * x / 2.0 + x * u
        return (math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
                * np.logaddexp(0.0, -v) / math.log(2.0))

    val, _ = integrate.quad(integrand, -np.inf, np.inf, epsabs=1e-11,
                            limit=200)
    return 1.0 - val


def j_inverse(mi):
    """Solve j_function(x) = mi by bracketing root-find."""
    mi = float(mi)
    if not (0.0 <= mi < 1.0):
        raise ValueError("j_inverse requires 0 <= mi < 1")
    if mi == 0.0:
        return 0.0
    hi = 1.0
    while j_function(hi) < mi:
        hi *= 2.0
        if hi > de._X_MAX:
            return de._X_MAX
    return float(optimize.brentq(lambda x: j_function(x) - mi, 0.0, hi,
                                 xtol=1e-12, rtol=1e-14))


def omega(mi):
    """Residual soft-symbol power E[tanh^2(L/2)] at mutual information mi.

    L ~ N(s^2/2, s^2) with s = j_inverse(mi); adaptive quadrature.
    """
    mi = float(mi)
    if mi <= 0.0:
        return 0.0
    s = j_inverse(mi)

    def integrand(u):
        return (math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
                * math.tanh((s * s / 2.0 + s * u) / 2.0) ** 2)

    val, _ = integrate.quad(integrand, -np.inf, np.inf, epsabs=1e-10,
                            limit=200)
    return val


def mi_step_monte_carlo(state, cfg, gains, rng, n):
    """de.mi_step's MI update by sampling, row by row: J averaged over n
    draws of the gain estimate from the half-Gaussian below the true gain
    (mu <= h, a reflected |normal|). Returns each row's sample mean and
    its standard error."""
    ed = racf_mean_degree(cfg.racf)
    prof = de.check_degree_profile(cfg.N, cfg.m, cfg.d_v)
    mean, sem = np.empty(len(gains)), np.empty(len(gains))
    for k, h in enumerate(gains):
        mu = h - np.abs(rng.normal(0, math.sqrt(state.xi_h[k]), n))
        xi_total = state.xi_s + state.xi_h[k] + cfg.noise_variance
        mu_l = np.maximum(de.l1(h, ed, cfg.T, cfg.N, mu, xi_total), 0.0)
        mu_cv = de.l2(mu_l, cfg.d_v, prof, state.mu_c2v[k])
        vals = de.j_function(np.sqrt(2 * np.maximum(
            mu_l + cfg.d_v * mu_cv, 0.0)))
        mean[k], sem[k] = vals.mean(), vals.std() / math.sqrt(n)
    return mean, sem
