"""Joint iterative channel estimation, active-user detection, and decoding.

The factor graph has four node types: resource-element nodes (one per RE),
variable nodes (one per coded symbol), check nodes (LDPC), and one user
status node per user carrying its channel estimate and activity posterior.
Messages flow RE -> symbol -> LDPC -> symbol -> RE each iteration, with the
user status nodes refreshed from the symbol-wise channel estimates.

joint_decode applies the per-edge update rules vectorized over all edges
at once; the tests hold the same rules edge by edge as scalar oracles.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ldpc
from .config import SystemConfig
from .pattern import AccessGraph

LLR_CLAMP = ldpc.LLR_CLAMP
Q_FLOOR = 1e-12
# stop once no posterior LLR moves by more than this between iterations
STALL_TOL = 1e-7


@dataclass
class TrialOutcome:
    decoded_bits: np.ndarray      # (K, m); meaningful only for declared users
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

    bits = np.zeros((cfg.K, pc.m), dtype=np.uint8)
    bits[live] = hard[:, :pc.m]
    return TrialOutcome(
        decoded_bits=bits,
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
