"""Joint iterative channel estimation, active-user detection, and decoding.

The factor graph has four node types: resource-element nodes (one per RE),
variable nodes (one per coded symbol), check nodes (LDPC), and one user
status node per user carrying its channel estimate and activity posterior.
Messages flow RE -> symbol -> LDPC -> symbol -> RE each iteration, with the
user status nodes refreshed from the symbol-wise channel estimates.

iterate applies the update rules to all edges at once and yields each
iteration's beliefs; the tests hold the same rules edge by edge as oracles.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import ldpc
from .config import SystemConfig
from .pattern import AccessGraph

LLR_CLAMP = ldpc.LLR_CLAMP
Q_FLOOR = 1e-12
# stop once no posterior LLR moves by more than this between iterations
STALL_TOL = 1e-7
KNOWN_GAIN_VAR = 1e-6


@dataclass
class TrialOutcome:
    decoded_bits: np.ndarray      # (K, m); meaningful only for declared users
    declared: np.ndarray          # bool per user: q > threshold at the end
    q: np.ndarray
    mu_h: np.ndarray
    xi_h: np.ndarray
    iterations: int = 0
    converged: str = "max_iterations"


# Beliefs after iteration n: q, mu_h, xi_h per user, total per live user
# (one with edges), (n_live, N) as a transposed view of the flood's
# (N, n_live) posteriors. Later iterations rebind these arrays, never write
# them.
Iteration = namedtuple("Iteration", "n q mu_h xi_h total live")


def iterate(cfg: SystemConfig, received, graph: AccessGraph,
            pc: ldpc.ParityCheck, known_active=None, known_gains=None):
    """Run the joint iteration on one received block, without end, and
    yield an Iteration after each pass.

    known_active: bool mask for the registration-based baseline; users known
    inactive are removed from the graph and actives have q pinned to 1.
    known_gains: per-user amplitudes for the genie baseline; channel
    estimates are held there (variance KNOWN_GAIN_VAR), not estimated.
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
    # The LDPC step runs on the live users, those with edges, only, one
    # column each: its arrays are (n, n_live) and (E, n_live), so that each
    # check slot is one contiguous block. A user with no edges would have
    # an all +0.0 channel LLR column, which ldpc.flood keeps at +0.0: its
    # hard bits are the all-zero codeword, which passes.
    live = np.flatnonzero(graph.has_edges)
    e_sym = graph.edge_live_sym
    n_live = len(live)
    xi_w = cfg.noise_variance

    if known_active is None:
        q = np.full(cfg.K, cfg.p_a)
    else:
        q = np.where(known_active, 1.0 - Q_FLOOR, Q_FLOOR)
    if known_gains is None:
        mu_h = np.full(cfg.K, cfg.prior_mean)
        xi_h = np.full(cfg.K, cfg.prior_var)
    else:
        mu_h = np.array(known_gains, dtype=float)   # a copy, not aliased
        xi_h = np.full(cfg.K, KNOWN_GAIN_VAR)

    c2v = np.zeros((len(pc.layout.edge_var), n_live))
    c2v_sum = np.zeros((pc.n, n_live))
    m_soft = np.zeros(graph.n_edges)      # tanh(v2r / 2) of v2r = 0
    for n in itertools.count(1):
        # Every per-edge array is updated in place or ended in its step, so
        # only resid, xi_i and r2v, which later steps read, live across the
        # LDPC flood. The out= writes keep each operation and its operand
        # order, and they go to float arrays made here: a bincount over no
        # edges is int64.

        # (1) interference moments per edge, leave-one-out via RE
        # aggregates; term_mu takes over m_soft's array
        term_mu = np.multiply(np.repeat(q * mu_h, e_count), m_soft,
                              out=m_soft)
        # per-edge variance term: q (mu^2 + xi) - q^2 mu^2 m^2
        term_var = np.repeat(q * (mu_h * mu_h + xi_h), e_count)
        term_var -= term_mu ** 2
        S_mu = np.bincount(e_re, weights=term_mu, minlength=graph.T)
        S_var = np.bincount(e_re, weights=term_var, minlength=graph.T)
        mu_i = np.subtract(S_mu[e_re], term_mu, out=term_mu)
        resid = np.subtract(y_e, mu_i, out=mu_i)
        xi_i = np.subtract(S_var[e_re], term_var, out=term_var)
        np.maximum(xi_i, 0.0, out=xi_i)
        # drop the other names of resid's and xi_i's arrays, so that the
        # del after step (4) frees them
        del term_mu, term_var, mu_i, m_soft

        # (2) RE -> symbol messages
        denom = np.repeat(xi_h, e_count)
        denom += xi_i
        denom += xi_w
        r2v = np.repeat(2.0 * mu_h, e_count)
        r2v *= resid
        r2v /= denom
        np.clip(r2v, -LLR_CLAMP, LLR_CLAMP, out=r2v)
        del denom

        # (3) one flooding LDPC iteration per live user, from the summed
        # channel LLRs, which end with the flood; total is (n, n_live)
        c2v, c2v_sum, total = ldpc.flood(
            np.bincount(e_sym, weights=r2v, minlength=pc.n * n_live)
            .reshape(pc.n, n_live), c2v, c2v_sum, pc)
        # extrinsic symbol -> RE messages, in r2v's array
        v2r = np.subtract(total.reshape(-1)[e_sym], r2v, out=r2v)
        np.clip(v2r, -LLR_CLAMP, LLR_CLAMP, out=v2r)
        v2r /= 2.0
        m_soft = np.tanh(v2r, out=v2r)
        del r2v, v2r

        # (4) symbol-wise channel estimates, fused per user, in the arrays
        # of xi_i and resid, which no later step reads
        if known_gains is None:
            denom = np.add(xi_i, xi_w, out=xi_i)
            w = m_soft * m_soft
            w /= denom
            W = np.bincount(e_user, weights=w, minlength=cfg.K)
            del w
            wm = np.multiply(resid, m_soft, out=resid)
            wm /= denom
            WM = np.bincount(e_user, weights=wm, minlength=cfg.K)
            del wm, denom
            prec = W + 1.0 / cfg.prior_var
            mu_h = (WM + cfg.prior_mean / cfg.prior_var) / prec
            xi_h = 1.0 / prec
        del resid, xi_i

        # (5) activity posteriors
        # users with no edges have no evidence and keep the prior activity
        if known_active is None:
            q_new = _activity_posterior_vec(mu_h, xi_h, cfg.prior_mean,
                                            cfg.prior_var, cfg.p_a)
            q = np.where(graph.has_edges, q_new, q)
        yield Iteration(n, q, mu_h, xi_h, total.T, live)


def joint_decode(cfg: SystemConfig, received, graph: AccessGraph,
                 pc: ldpc.ParityCheck, known_active=None,
                 known_gains=None) -> TrialOutcome:
    """stop_rule over the first cfg.max_iterations views of iterate."""
    if cfg.max_iterations < 1:
        raise ValueError(f"max_iterations = {cfg.max_iterations} < 1")
    views = iterate(cfg, received, graph, pc, known_active, known_gains)
    return stop_rule(cfg, pc, itertools.islice(views, cfg.max_iterations))


def stop_rule(cfg: SystemConfig, pc: ldpc.ParityCheck, views) -> TrialOutcome:
    """The outcome at the first of iterate's views (at least one) where
    every declared user passes its syndrome ("all_declared_decoded") or no
    posterior LLR moved by more than STALL_TOL ("stalled"), else the last."""
    prev, converged = None, "max_iterations"
    for it in views:
        declared = it.q > cfg.activity_threshold
        # hard bits of the declared rows only; every live row's are formed
        # once, at the view the rule stops at
        if (declared.any()
                and ldpc.syndrome_ok(it.total[declared[it.live]] < 0,
                                     pc).all()):
            converged = "all_declared_decoded"
            break
        if (prev is not None
                and np.max(np.abs(it.total - prev.total), initial=0.0)
                < STALL_TOL):
            converged = "stalled"
            break
        prev = it
    bits = np.zeros((cfg.K, pc.m), dtype=np.uint8)
    bits[it.live] = it.total[:, :pc.m] < 0
    return TrialOutcome(bits, declared, it.q, it.mu_h, it.xi_h, it.n,
                        converged)


def _activity_posterior_vec(mu_h, xi_h, prior_mean, prior_var, p_a):
    if p_a >= 1.0:
        return np.full_like(mu_h, 1.0 - Q_FLOOR)
    log_a = (np.log(p_a) - 0.5 * np.log(prior_var)
             - (mu_h - prior_mean) ** 2 / (2.0 * prior_var))
    log_i = (np.log(1.0 - p_a) - 0.5 * np.log(xi_h)
             - mu_h ** 2 / (2.0 * xi_h))
    q = 1.0 / (1.0 + np.exp(np.minimum(log_i - log_a, 700.0)))
    return np.clip(q, Q_FLOOR, 1.0 - Q_FLOOR)
