"""Joint iterative channel estimation, active-user detection, and decoding.

The factor graph has four node types: resource-element nodes (one per RE),
variable nodes (one per coded symbol), check nodes (LDPC), and one user
status node per user carrying its channel estimate and activity posterior.
Messages flow RE -> symbol -> LDPC -> symbol -> RE each iteration, with the
user status nodes refreshed from the symbol-wise channel estimates.

The scalar functions below are the per-edge update rules; joint_decode is
the production path and applies the same rules vectorized over all edges.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ldpc
from .config import SystemConfig
from .pattern import AccessGraph

LLR_CLAMP = ldpc.LLR_CLAMP
Q_FLOOR = 1e-12
# stop once no posterior LLR moves by more than this between iterations
STALL_TOL = 1e-7


# ---------------------------------------------------------------------------
# scalar update rules

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
# full joint decoder

@dataclass
class TrialOutcome:
    decoded_bits: np.ndarray      # (K, m); meaningful only for declared users
    syndrome_pass: np.ndarray     # bool per user
    declared: np.ndarray          # bool per user: q > threshold at the end
    q: np.ndarray
    mu_h: np.ndarray
    xi_h: np.ndarray
    iterations: int = 0
    converged: str = "max_iterations"


def joint_decode(cfg: SystemConfig, received, graph: AccessGraph,
                 pc: ldpc.ParityCheck, known_active=None,
                 pinned_csi=None) -> TrialOutcome:
    """Run the full joint iteration on one received block.

    known_active: bool mask for the registration-based baseline; users known
    inactive are removed from the graph and actives have q pinned to 1.
    pinned_csi: (gains, variance) for the genie baseline; channel estimates
    are pinned instead of estimated.

    Stops when every declared user passes its syndrome, when no posterior
    LLR moves by more than STALL_TOL, or after cfg.max_iterations.
    """
    y = np.asarray(received, dtype=float)
    if known_active is not None:
        known_active = np.asarray(known_active, dtype=bool)
        graph = graph.restricted_to(known_active)

    # edges are grouped by user, so repeating a per-user value by the
    # user's edge count lays it onto the user's edges
    e_user = graph.edge_user
    e_count = graph.user_edge_counts
    e_re = graph.edge_re
    y_e = y[e_re]
    # The LDPC step runs on the live users, those with edges, only. A user
    # with no edges has an all +0.0 channel LLR row, which ldpc.flood keeps
    # at +0.0: its hard bits are the all-zero codeword, which passes.
    live = np.flatnonzero(graph.has_edges)
    e_sym = graph.edge_live_sym
    n_live = len(live)
    xi_w = cfg.noise_variance
    prior = cfg.prior

    if known_active is None:
        q = np.full(cfg.K, cfg.p_a)
    else:
        q = np.where(known_active, 1.0 - Q_FLOOR, Q_FLOOR)
    if pinned_csi is None:
        mu_h = np.full(cfg.K, prior.mean)
        xi_h = np.full(cfg.K, prior.var)
    else:
        gains, var = pinned_csi
        # a copy, so the outcome never aliases the caller's gains
        mu_h = np.asarray(gains, dtype=float).copy()
        xi_h = np.full(cfg.K, var)

    c2v = np.zeros((n_live, len(pc.layout.edge_var)))
    c2v_sum = np.zeros((n_live, pc.n))
    m_soft = np.zeros(graph.n_edges)      # tanh(v2r / 2) of v2r = 0
    total = None
    converged = "max_iterations"
    for n in range(1, cfg.max_iterations + 1):
        # (1) interference moments per edge, leave-one-out via RE aggregates
        term_mu = np.repeat(q * mu_h, e_count) * m_soft
        # per-edge variance term: q (mu^2 + xi) - q^2 mu^2 m^2
        term_var = (np.repeat(q * (mu_h * mu_h + xi_h), e_count)
                    - term_mu ** 2)
        S_mu = np.bincount(e_re, weights=term_mu, minlength=graph.T)
        S_var = np.bincount(e_re, weights=term_var, minlength=graph.T)
        mu_i = S_mu[e_re] - term_mu
        xi_i = np.maximum(S_var[e_re] - term_var, 0.0)
        resid = y_e - mu_i

        # (2) RE -> symbol messages
        r2v = np.clip(np.repeat(2.0 * mu_h, e_count) * resid
                      / (np.repeat(xi_h, e_count) + xi_i + xi_w),
                      -LLR_CLAMP, LLR_CLAMP)
        Lch = np.bincount(e_sym, weights=r2v,
                          minlength=n_live * pc.n).reshape(n_live, pc.n)

        # (3) one flooding LDPC iteration per live user
        prev_total = total
        c2v, c2v_sum, total = ldpc.flood(Lch, c2v, c2v_sum, pc)
        # extrinsic symbol -> RE messages
        v2r = np.clip(total.reshape(-1)[e_sym] - r2v, -LLR_CLAMP, LLR_CLAMP)
        m_soft = np.tanh(v2r / 2.0)

        # (4) symbol-wise channel estimates, fused per user
        if pinned_csi is None:
            denom = xi_i + xi_w
            w = m_soft * m_soft / denom
            wm = resid * m_soft / denom
            W = np.bincount(e_user, weights=w, minlength=cfg.K)
            WM = np.bincount(e_user, weights=wm, minlength=cfg.K)
            prec = W + 1.0 / prior.var
            mu_h = (WM + prior.mean / prior.var) / prec
            xi_h = 1.0 / prec

        # (5) activity posteriors
        # users with no edges have no evidence and keep the prior activity
        if known_active is None:
            q_new = _activity_posterior_vec(mu_h, xi_h, prior.mean,
                                            prior.var, cfg.p_a)
            q = np.where(graph.has_edges, q_new, q)

        hard = (total < 0).astype(np.uint8)
        declared = q > cfg.activity_threshold
        if (declared.any()
                and ldpc.syndrome_ok(hard[declared[live]], pc).all()):
            converged = "all_declared_decoded"
            break
        if (prev_total is not None
                and np.max(np.abs(total - prev_total), initial=0.0)
                < STALL_TOL):
            converged = "stalled"
            break

    bits = np.zeros((cfg.K, pc.n), dtype=np.uint8)
    bits[live] = hard
    return TrialOutcome(
        decoded_bits=bits[:, :pc.m],
        syndrome_pass=ldpc.syndrome_ok(bits, pc),
        declared=declared,
        q=q,
        mu_h=mu_h,
        xi_h=xi_h,
        iterations=n,
        converged=converged,
    )


def _activity_posterior_vec(mu_h, xi_h, prior_mean, prior_var, p_a):
    if p_a >= 1.0:
        return np.full_like(mu_h, 1.0 - Q_FLOOR)
    log_a = (np.log(p_a) - 0.5 * np.log(prior_var)
             - (mu_h - prior_mean) ** 2 / (2.0 * prior_var))
    log_i = (np.log(1.0 - p_a) - 0.5 * np.log(xi_h)
             - mu_h ** 2 / (2.0 * xi_h))
    q = 1.0 / (1.0 + np.exp(np.minimum(log_i - log_a, 700.0)))
    return np.clip(q, Q_FLOOR, 1.0 - Q_FLOOR)
