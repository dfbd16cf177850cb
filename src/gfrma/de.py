"""Density-evolution performance predictor.

Tracks per-user mutual information through the joint iteration using the
J-function (MI of a symmetric Gaussian LLR as a function of its standard
deviation), with the channel-estimate uncertainty folded in by averaging
the MI over a truncated Gaussian model of the estimated gain.

Users with the same gain follow the same recursion, so run_de runs it once
per distinct active gain (user class): each step works on one row per class,
the class sizes weight the interference sum, and per-user rows are expanded
only for the returned state and the trace. mi_step takes the gain and the
user count of each row, so a direct call holds one user per row. E[d] and
the check-degree profile are built once per code by _code_constants().

The DE recursion reads J, J^-1 and Omega from monotone-spline tables that
_tables() builds once per process: J and Omega are evaluated on fixed grids
by one 200-node Gauss-Hermite rule, and Omega takes s = J^-1(I) from the
inverse table. j_function and j_inverse are the adaptive-quadrature forms
of J and J^-1, kept as the reference the tables are tested against (J to
~1e-8, Omega to ~1e-6 against the tests' quadrature Omega, far below the
threshold tolerance).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, interpolate, optimize

from .config import (ConfigError, SystemConfig, db_to_linear,
                     noise_variance_for_snr, racf_mean_degree)

_X_MAX = 60.0          # J saturates to 1 well below this
_MI_CONVERGED = 1.0 - 1e-4
_MAX_ITER = 1000       # DE iterations before run_de gives up
_STALL_TOL = 1e-10     # run_de stops once no user's MI moves by more
# Gauss-Legendre rule for the average over the estimated gain in mi_step.
# Mapped onto [h - 8 sd, h], node x sits at h + sd * z with z = 4 (x - 1),
# and its weight times the doubled Gaussian density is 8 w phi(z): the sd
# cancels, so the offsets and the masses are constants.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_Z = 4.0 * (_GL_NODES - 1.0)
_GL_MASS = 8.0 * _GL_WEIGHTS * np.exp(-_GL_Z ** 2 / 2.0) \
    / math.sqrt(2.0 * math.pi)
_GL_MASS_SUM = _GL_MASS.sum()
# initial threshold_search bracket (dB), widened until it straddles
_BRACKET_DB = (-10.0, 20.0)
# threshold_search gives up (returns +inf) if DE fails at this SNR (dB)
_GAMMA_MAX_DB = 40.0
# and (returns -inf) if DE converges at every bracket end down to this one
_GAMMA_MIN_DB = -60.0


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
        if hi > _X_MAX:
            return _X_MAX
    return float(optimize.brentq(lambda x: j_function(x) - mi, 0.0, hi,
                                 xtol=1e-12, rtol=1e-14))


# Gauss-Hermite rule for the table build: E[f(u)], u ~ N(0, 1), is
# sum(_GH_WEIGHTS * f(_GH_NODES))
_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(200)
_GH_NODES = _GH_NODES * math.sqrt(2.0)
_GH_WEIGHTS = _GH_WEIGHTS / math.sqrt(math.pi)


def _gauss_mean(f, s):
    """E[f(L)] for L ~ N(s^2/2, s^2), elementwise over the array s.

    One Gauss-Hermite node at a time across the whole of s, so the
    temporaries stay the size of s.
    """
    acc = np.zeros_like(s)
    for u, w in zip(_GH_NODES, _GH_WEIGHTS):
        acc += w * f(s * s / 2.0 + s * u)
    return acc


class _Tables:
    """Spline tables for the DE hot path, built once by _tables().

    J and Omega are evaluated on fixed grids by one Gauss-Hermite rule;
    Omega takes its s = J^-1(I) from the inverse-J table.
    """

    def __init__(self):
        x = np.concatenate([np.linspace(0.0, 12.0, 1200),
                            np.linspace(12.02, _X_MAX, 400)])
        jv = 1.0 - _gauss_mean(lambda v: np.logaddexp(0.0, -v), x) \
            / math.log(2.0)
        jv[x == 0.0] = 0.0     # exactly, as j_function(0)
        self._j = interpolate.PchipInterpolator(x, jv)
        # strictly increasing part for the inverse
        keep = np.concatenate([[True], np.diff(jv) > 1e-15])
        self._j_inv = interpolate.PchipInterpolator(jv[keep], x[keep])
        self._j_max = jv[keep][-1]
        iv = np.linspace(0.0, 0.9995, 500)
        ov = _gauss_mean(lambda v: np.tanh(v / 2.0) ** 2, self._j_inv(iv))
        self._omega = interpolate.PchipInterpolator(iv, ov)

    # np.minimum/np.maximum clamp as np.clip does, without its wrapper
    def j(self, x):
        return np.minimum(np.maximum(self._j(np.minimum(x, _X_MAX)), 0.0),
                          1.0)

    def j_inv(self, mi):
        return self._j_inv(np.minimum(np.maximum(mi, 0.0), self._j_max))

    def omega(self, mi):
        mi = np.asarray(mi, dtype=float)
        om = self._omega(np.minimum(mi, 0.9995))
        return np.where(mi >= 0.9995, 1.0 - (1.0 - mi) * 1e-9,
                        np.minimum(np.maximum(om, 0.0), 1.0))


@functools.cache
def _tables() -> _Tables:
    """The process's one _Tables, built on first use."""
    return _Tables()


def l1(h, mean_degree, T, N, mu_h, xi_total):
    """Mean of the channel-side LLR: 2 h E[d] T mu_h / (xi_total N).

    xi_total = xi_interference + xi_channel + xi_noise.
    """
    return 2.0 * h * mean_degree * T * mu_h / (xi_total * N)


def check_degree_profile(N, m, d_v):
    """Edge-perspective check degrees of the regular code, as two arrays:
    the degrees d_c and the fraction of edges at each."""
    n_checks = N - m
    edges = N * d_v
    lo = edges // n_checks
    n_hi = edges - lo * n_checks          # checks of degree lo+1
    d_c = np.array([lo, lo + 1])
    n = np.array([n_checks - n_hi, n_hi])
    keep = n > 0
    return d_c[keep], n[keep] * d_c[keep] / edges


@functools.cache
def _code_constants(racf, N, m, d_v):
    """E[d] and check_degree_profile, built once per code; the profile's
    arrays are shared by every caller, so they are read-only."""
    d_c, frac = check_degree_profile(N, m, d_v)
    d_c.flags.writeable = frac.flags.writeable = False
    return racf_mean_degree(racf), (d_c, frac)


def l2(mu_channel, d_v, dc_profile, mu_c2v_prev):
    """One Gaussian-approximation LDPC DE step: mean of check-to-variable LLR.

    Variable-to-check mean is mu_channel + (d_v - 1) * mu_c2v_prev; the
    check update runs through the J-function MI algebra averaged over the
    edge-perspective check-degree profile, check_degree_profile's
    (d_c, fraction) pair. The check degrees share one J-table call.
    """
    d_c, frac = dc_profile
    mu_vc = np.maximum(np.asarray(mu_channel, dtype=float)
                       + (d_v - 1) * np.asarray(mu_c2v_prev, dtype=float),
                       0.0)
    tab = _tables()
    i_vc = tab.j(np.sqrt(2.0 * mu_vc))
    x_rev = tab.j_inv(1.0 - i_vc)
    col = (-1,) + (1,) * x_rev.ndim
    root = np.sqrt(d_c - 1).reshape(col)
    i_cv = (frac.reshape(col) * (1.0 - tab.j(root * x_rev))).sum(axis=0)
    # j_inv clamps to [0, J's largest tabled value], inside [0, 1]
    return tab.j_inv(i_cv) ** 2 / 2.0


def de_interference_variance(gains, count, mean_degree, om, xi_h):
    """Aggregate interference variance left after soft cancellation.

    Per active user: E[d] * ((h^2 + xi_h) - h^2 * Omega(I)), where om holds
    Omega(I) of each row and a row stands for count users; the activity
    factor is 1 because the DE analyzes the actual active set.
    """
    g2 = np.square(gains, dtype=float)
    return float((count * (mean_degree * ((g2 + xi_h) - g2 * om))).sum())


def de_channel_variance(t_ed, om, xi_s, xi_w, prior_var):
    """Expected fused channel-estimate variance at Omega(I) = om.

    t_ed = T E[d] edges each contribute mean precision om / (xi_s + xi_w);
    fused with the prior precision.
    """
    return 1.0 / (t_ed * om / (xi_s + xi_w) + 1.0 / prior_var)


@dataclass
class DeState:
    """Density-evolution state, one row per user, or in run_de one row per
    class of users with equal gains."""

    mi: np.ndarray        # mutual information per row, in [0, 1]
    xi_h: np.ndarray      # channel-estimate variance per row
    mu_c2v: np.ndarray    # inner LDPC state (check-to-variable mean) per row
    xi_s: float           # shared interference variance
    iteration: int = 0


def initial_de_state(cfg: SystemConfig, active_gains) -> DeState:
    g = np.asarray(active_gains, dtype=float)
    mi0 = np.zeros(len(g))
    xi_h0 = np.full(len(g), cfg.prior.var)
    ed, _ = _code_constants(cfg.racf, cfg.N, cfg.m, cfg.d_v)
    xi_s0 = de_interference_variance(g, 1.0, ed, _tables().omega(mi0), xi_h0)
    return DeState(mi0, xi_h0, np.zeros(len(g)), xi_s0)


def mi_step(state: DeState, cfg: SystemConfig, gains, count=1.0) -> DeState:
    """Advance the MI recursion by one iteration.

    The MI update of each row averages J over the truncated Gaussian model
    of the estimated gain (mu <= h, density doubled) by Gauss-Legendre
    quadrature on [h - 8 sqrt(xi_h), h], one array step over (rows,
    nodes): the nodes are mu = h + sqrt(xi_h) * _GL_Z and the weights
    _GL_MASS do not depend on xi_h. The interference and channel variance
    recursions are then refreshed from the new MI values.

    Row k has gain gains[k] and stands for count[k] users (count may be a
    scalar): one user per row by default, one class per row in run_de.
    """
    gains = np.asarray(gains, dtype=float)
    g = gains[:, None]
    ed, dc_profile = _code_constants(cfg.racf, cfg.N, cfg.m, cfg.d_v)
    xi_w = cfg.noise_variance
    tab = _tables()

    xi_total = (state.xi_s + state.xi_h + xi_w)[:, None]
    mu = g + np.sqrt(state.xi_h)[:, None] * _GL_Z
    mu_l = np.maximum(l1(g, ed, cfg.T, cfg.N, mu, xi_total), 0.0)
    mu_cv = l2(mu_l, cfg.d_v, dc_profile, state.mu_c2v[:, None])
    jvals = tab.j(np.sqrt(2.0 * np.maximum(mu_l + cfg.d_v * mu_cv, 0.0)))
    mi_new = np.minimum(np.maximum(jvals @ _GL_MASS, 0.0), 1.0)
    mu_c2v_new = (mu_cv @ _GL_MASS) / _GL_MASS_SUM
    om = tab.omega(mi_new)
    xi_s_new = de_interference_variance(gains, count, ed, om, state.xi_h)
    xi_h_new = de_channel_variance(cfg.T * ed, om, xi_s_new, xi_w,
                                   cfg.prior.var)
    return DeState(mi_new, xi_h_new, mu_c2v_new, xi_s_new,
                   state.iteration + 1)


def _per_user(st: DeState, user) -> DeState:
    """The per-user state of a state held per class; user[k] is user k's
    class."""
    return DeState(st.mi[user], st.xi_h[user], st.mu_c2v[user], st.xi_s,
                   st.iteration)


def run_de(cfg: SystemConfig, active_gains, max_iter=_MAX_ITER, trace=None):
    """Iterate the recursion; returns the final per-user DeState.

    trace, if given, is a list collecting the per-user DeState snapshots.
    The recursion runs once per distinct gain, so users with equal gains
    get bitwise-equal rows.
    """
    state = initial_de_state(cfg, active_gains)
    if trace is not None:
        trace.append(state)
    gain, first, user, count = np.unique(
        np.asarray(active_gains, dtype=float), return_index=True,
        return_inverse=True, return_counts=True)
    state = DeState(state.mi[first], state.xi_h[first],
                    state.mu_c2v[first], state.xi_s)
    for _ in range(max_iter):
        new = mi_step(state, cfg, gain, count)
        if trace is not None:
            trace.append(_per_user(new, user))
        done = np.all(new.mi > _MI_CONVERGED)
        stalled = np.max(np.abs(new.mi - state.mi)) < _STALL_TOL
        state = new
        if done or stalled:
            break
    return _per_user(state, user)


def de_converges(cfg: SystemConfig, active_gains, gamma) -> bool:
    """True if every active user's MI reaches 1 at linear SNR gamma."""
    xi_w = noise_variance_for_snr(cfg, gamma, active_gains)
    final = run_de(cfg.with_noise_variance(xi_w), active_gains)
    return bool(np.all(final.mi > _MI_CONVERGED))


def threshold_search(cfg: SystemConfig, active_gains, tol_db=0.05):
    """Bisection for the threshold SNR (dB) above which DE converges.

    Returns the threshold in dB. The initial bracket is auto-expanded until
    it straddles the threshold, and the search ends without one at either
    end: +inf if DE fails even at _GAMMA_MAX_DB, -inf if DE converged at
    every SNR tried, down to _GAMMA_MIN_DB. tol_db must be finite and > 0:
    a bisection to 0 never ends, since the midpoint of two adjacent floats
    is one of them.
    """
    if not (math.isfinite(tol_db) and tol_db > 0):
        raise ConfigError(f"tol_db = {tol_db} must be finite and > 0")
    if not de_converges(cfg, active_gains, db_to_linear(_GAMMA_MAX_DB)):
        return float("inf")
    lo, hi = _BRACKET_DB
    while de_converges(cfg, active_gains, db_to_linear(lo)):
        hi = lo
        lo -= 10.0
        if lo < _GAMMA_MIN_DB:
            return float("-inf")
    while not de_converges(cfg, active_gains, db_to_linear(hi)):
        lo = hi
        hi = min(hi + 5.0, _GAMMA_MAX_DB)
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if de_converges(cfg, active_gains, db_to_linear(mid)):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def write_de_trace(cfg: SystemConfig, active_gains, gamma_db_list, path,
                   threshold_db=None):
    """CSV trace: gamma_db, iteration, user, mi, xi_h, xi_sigma."""
    with open(path, "w", newline="") as f:
        f.write("gamma_db,iteration,user,mi,xi_h,xi_sigma\n")
        for gdb in gamma_db_list:
            xi_w = noise_variance_for_snr(cfg, db_to_linear(gdb),
                                          active_gains)
            trace = []
            run_de(cfg.with_noise_variance(xi_w), active_gains, trace=trace)
            for st in trace:
                for k in range(len(st.mi)):
                    f.write(f"{gdb:.6g},{st.iteration},{k},"
                            f"{st.mi[k]:.10g},{st.xi_h[k]:.10g},"
                            f"{st.xi_s:.10g}\n")
        if threshold_db is not None:
            f.write(f"# gamma_th_db,{threshold_db:.6g}\n")
