"""Density-evolution performance predictor.

Tracks per-user mutual information through the joint iteration using the
J-function (MI of a symmetric Gaussian LLR as a function of its standard
deviation), with the channel-estimate uncertainty folded in by averaging
the MI over a truncated Gaussian model of the estimated gain.

states yields the per-user state after each iteration, and run_de returns
the last. Users with the same gain follow the same recursion, so it runs
once per distinct active gain (user class): each step works on one row per
class, the class sizes weight the interference sum, and per-user rows are
expanded only for the yielded states. mi_step takes the gain and the user
count of each row, so a direct call holds one user per row. E[d] and the
check-degree profile are built once per code by _code_constants().

The DE recursion reads J, J^-1 and Omega from monotone-spline tables that
_tables() builds once per process: J and Omega are evaluated on fixed grids
by one 200-node Gauss-Hermite rule, and Omega takes s = J^-1(I) from the
inverse table. The check-node update l2 is one more spline per check-degree
profile, built by _check_table() on first use from the composed J/J^-1
form, _composed_check_update, at the J table's knots, so a DE step reads
three splines. The splines are _Pchip, a numpy monotone cubic (Fritsch &
Carlson) that returns scipy's PchipInterpolator values bit for bit, so DE
runs on numpy alone. j_function and j_inverse are the adaptive-quadrature
forms of J and J^-1, kept as the reference the tables are tested against;
they alone import scipy, when called. The J table departs from j_function
by up to 1.34e-6 below x = 0.5 (at x = 0.0068, where J is 8.3e-6) and by at
most 1.7e-8 from x = 0.5 on; Omega is within ~1e-6 of the tests'
quadrature Omega up to I = 0.9994 and steps at its table edge (ROADMAP
item 10 covers both ends).
"""
from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import (ConfigError, SystemConfig, db_to_linear,
                     noise_variance_for_snr, racf_mean_degree, validate_gains)

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
    from scipy import integrate

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
    from scipy import optimize
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
    mean = s * s / 2.0
    for u, w in zip(_GH_NODES, _GH_WEIGHTS):
        acc += w * f(mean + s * u)
    return acc


class _Pchip:
    """Monotone piecewise-cubic interpolant through (x, y), x strictly
    increasing with at least 3 knots: Fritsch & Carlson's slopes with
    Moler's three-point end slopes, as scipy's PchipInterpolator, whose
    values it returns bit for bit. The end pieces extrapolate.

    One (5, n-1) table holds each piece's left knot and its power-basis
    coefficients, so a call is one search and one gather; the sum runs in
    the order PPoly's evaluator adds the terms.
    """

    def __init__(self, x, y):
        h = np.diff(x)
        m = np.diff(y) / h
        d = np.empty_like(y)
        # interior: the weighted harmonic mean of the two slopes, or 0
        # where either is flat or they change sign
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        flat = ((np.sign(m[1:]) != np.sign(m[:-1]))
                | (m[1:] == 0) | (m[:-1] == 0))
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(
                flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        # ends: the three-point estimate, 0 if its sign is not the end
        # slope's, capped at 3 times that slope where the slopes change sign
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        cap = (np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3.0 * np.abs(m0))
        d[[0, -1]] = np.where(np.sign(e) != np.sign(m0), 0.0,
                              np.where(cap, 3.0 * m0, e))
        t = (d[:-1] + d[1:] - 2 * m) / h
        # 0.0 + y turns -0.0 into 0.0, as PPoly's sum starting at 0.0 does
        self._c = np.stack([x[:-1], 0.0 + y[:-1], d[:-1],
                            (m - d[:-1]) / h - t, t / h])
        self._inner = x[1:-1]

    def __call__(self, v):
        # rows: left knot, then the coefficients of s^0 .. s^3; indexing
        # the rows costs a third of unpacking them
        p = self._c.take(self._inner.searchsorted(v, "right"), 1)
        s = v - p[0]
        s2 = s * s
        return p[1] + p[2] * s + p[3] * s2 + p[4] * (s2 * s)


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
        self.knots = x
        self._j = _Pchip(x, jv)
        # strictly increasing part for the inverse
        keep = np.concatenate([[True], np.diff(jv) > 1e-15])
        self._j_inv = _Pchip(jv[keep], x[keep])
        self._j_max = jv[keep][-1]
        iv = np.linspace(0.0, 0.9995, 500)
        ov = _gauss_mean(lambda v: np.tanh(v / 2.0) ** 2, self._j_inv(iv))
        self._omega = _Pchip(iv, ov)

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


def _composed_check_update(x, d_c, frac):
    """The Gaussian-approximation check-node update through the J tables:
    mu_cv = J^-1(sum frac (1 - J(sqrt(d_c - 1) J^-1(1 - J(x)))))^2 / 2 at
    x = sqrt(2 mu_vc), averaged over the edge-perspective check degrees
    (d_c, frac), which share one J-table call. It builds _check_table's
    knots and is the reference that table is tested against.
    """
    tab = _tables()
    x_rev = tab.j_inv(1.0 - tab.j(x))
    col = (-1,) + (1,) * x_rev.ndim
    root = np.sqrt(d_c - 1).reshape(col)
    i_cv = (frac.reshape(col) * (1.0 - tab.j(root * x_rev))).sum(axis=0)
    # j_inv clamps to [0, J's largest tabled value], inside [0, 1]
    return tab.j_inv(i_cv) ** 2 / 2.0


@functools.cache
def _check_table(d_c, frac) -> _Pchip:
    """The check-node update of one profile (d_c and frac as tuples) as a
    spline from x = sqrt(2 mu_vc) in [0, _X_MAX] to mu_cv, through
    _composed_check_update at the J table's knots; built on first use."""
    x = _tables().knots
    return _Pchip(x, _composed_check_update(x, np.array(d_c),
                                            np.array(frac)))


def l2(mu_channel, d_v, dc_profile, mu_c2v_prev):
    """One Gaussian-approximation LDPC DE step: mean of check-to-variable LLR.

    Variable-to-check mean is mu_channel + (d_v - 1) * mu_c2v_prev, floored
    at 0; the check update averaged over the edge-perspective check-degree
    profile, check_degree_profile's (d_c, fraction) pair, is one lookup in
    that profile's _check_table.
    """
    d_c, frac = dc_profile
    mu_vc = np.maximum(np.asarray(mu_channel, dtype=float)
                       + (d_v - 1) * np.asarray(mu_c2v_prev, dtype=float),
                       0.0)
    table = _check_table(tuple(d_c.tolist()), tuple(frac.tolist()))
    return table(np.minimum(np.sqrt(2.0 * mu_vc), _X_MAX))


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
    xi_h0 = np.full(len(g), cfg.prior_var)
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
                                   cfg.prior_var)
    return DeState(mi_new, xi_h_new, mu_c2v_new, xi_s_new,
                   state.iteration + 1)


def _rows(st: DeState, idx) -> DeState:
    """st's rows idx: one per class from per-user rows at the classes'
    first users, or one per user from per-class rows at the users' classes."""
    return DeState(st.mi[idx], st.xi_h[idx], st.mu_c2v[idx], st.xi_s,
                   st.iteration)


def states(cfg: SystemConfig, active_gains):
    """Yield the per-user DeState of each iteration: the initial state,
    then one per mi_step, until every user's MI exceeds _MI_CONVERGED, no
    user's MI moves by more than _STALL_TOL, or after _MAX_ITER steps.
    The recursion runs once per distinct gain, so users with equal gains
    get bitwise-equal rows. active_gains must pass config.validate_gains.
    """
    active_gains = validate_gains(active_gains)
    state = initial_de_state(cfg, active_gains)
    yield state
    gain, first, user, count = np.unique(
        active_gains, return_index=True, return_inverse=True,
        return_counts=True)
    state = _rows(state, first)
    for _ in range(_MAX_ITER):
        new = mi_step(state, cfg, gain, count)
        yield _rows(new, user)
        if (np.all(new.mi > _MI_CONVERGED)
                or np.max(np.abs(new.mi - state.mi)) < _STALL_TOL):
            return
        state = new


def run_de(cfg: SystemConfig, active_gains) -> DeState:
    """The final per-user DeState: the last of states(cfg, active_gains)."""
    return collections.deque(states(cfg, active_gains), maxlen=1)[0]


def de_converges(cfg: SystemConfig, active_gains, gamma) -> bool:
    """True if every active user's MI reaches 1 at linear SNR gamma.

    active_gains must pass config.validate_gains.
    """
    active_gains = validate_gains(active_gains)
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
    is one of them. active_gains must pass config.validate_gains.
    """
    if not (math.isfinite(tol_db) and tol_db > 0):
        raise ConfigError(f"tol_db = {tol_db} must be finite and > 0")
    active_gains = validate_gains(active_gains)
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
                   threshold_db):
    """CSV trace: gamma_db, iteration, user, mi, xi_h, xi_sigma.

    active_gains must pass config.validate_gains; it is checked before the
    file is opened.
    """
    active_gains = validate_gains(active_gains)
    with open(path, "w", newline="") as f:
        f.write("gamma_db,iteration,user,mi,xi_h,xi_sigma\n")
        for gdb in gamma_db_list:
            xi_w = noise_variance_for_snr(cfg, db_to_linear(gdb),
                                          active_gains)
            for st in states(cfg.with_noise_variance(xi_w), active_gains):
                for k in range(len(st.mi)):
                    f.write(f"{gdb:.6g},{st.iteration},{k},"
                            f"{st.mi[k]:.10g},{st.xi_h[k]:.10g},"
                            f"{st.xi_s:.10g}\n")
        f.write(f"# gamma_th_db,{threshold_db:.6g}\n")
