"""Joint iterative channel estimation, active-user detection, and decoding.

The factor graph has four node types: resource-element nodes (one per RE),
variable nodes (one per coded symbol), check nodes (LDPC), and one user
status node per user carrying its channel estimate and activity posterior.
Messages flow RE -> symbol -> LDPC -> symbol -> RE each iteration, with the
user status nodes refreshed from the symbol-wise channel estimates.

iterate applies the update rules to all edges at once and yields each
iteration's beliefs; the tests hold the same rules edge by edge as oracles.

Lanes: users interact only through the two per-RE sums of step (1), so
iterate runs its per-edge and per-user work in lanes, contiguous user
ranges with their edges (edges are grouped by user), between which the
calling thread forms those sums and the channel-LLR sum over all edges
with bincount and runs the LDPC flood, whose check update and variable
sums split in two themselves (ldpc.flood). A block of n_live x E_ldpc at
least lanes._MIN_SIZE (50 000: DESK's 30 x 600 stays in one lane, PAPER's
100 x 1 200 runs in two) is cut in two lanes at the user boundary nearest
the access-edge midpoint, the second lane on a worker thread, when the
process may run on two CPUs and is no multiprocessing child; otherwise one
lane runs. Every bincount bin other than those sums, and every flood
column, belongs to one user, and the other steps are elementwise, so each
value is computed by the same operations in the same order: the bits do
not depend on the lane count.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import lanes, ldpc
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
    e_count = graph.user_edge_counts
    e_re = graph.edge_re
    e_sym = graph.edge_live_sym
    # The LDPC step runs on the live users, those with edges, only, one
    # column each: its arrays are (n, n_live) and (E, n_live), so that each
    # check slot is one contiguous block. A user with no edges would have
    # an all +0.0 channel LLR column, which the flood keeps at +0.0: its
    # hard bits are the all-zero codeword, which passes.
    live = np.flatnonzero(graph.has_edges)
    n_live = len(live)
    xi_w = cfg.noise_variance
    lay = pc.layout
    parts = _lanes(graph, y[e_re], n_live * len(lay.edge_var))

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

    # Each phase below runs per lane (lanes.each) on the lane's edges and
    # users, writing its part of per-edge arrays made here. Every per-edge
    # array is updated in place or ended in its step, so only resid, xi_i
    # and r2v, which later steps read, live across the LDPC flood. The out=
    # writes keep each operation and its operand order, and they go to
    # float arrays made here: a bincount over no edges is int64.

    def moments(lane):
        # (1) interference moments per edge; term_mu takes over m_soft's
        # array, and term_var = q (mu^2 + xi) - q^2 mu^2 m^2
        e = lane.edges
        t_mu = np.multiply(rep_mu[e], m_soft[e], out=m_soft[e])
        t_var = term_var[e]
        # term_mu ** 2, in rep_mu's array, which no later step reads
        np.subtract(t_var, np.square(t_mu, out=rep_mu[e]), out=t_var)

    def symbol_messages(lane):
        # (1), leave-one-out via the RE aggregates, in the arrays of
        # term_mu (resid) and term_var (xi_i)
        e, u = lane.edges, lane.users
        mu_i = np.subtract(S_mu.take(lane.e_re), term_mu[e],
                           out=term_mu[e])
        resid = np.subtract(lane.y_e, mu_i, out=mu_i)
        xi_i = np.subtract(S_var.take(lane.e_re), term_var[e],
                           out=term_var[e])
        np.maximum(xi_i, 0.0, out=xi_i)
        # (2) RE -> symbol messages, in the lane's part of r2v; its
        # per-user factors are laid onto its edges only now, after the
        # gathers above have ended
        count = e_count[u]
        r = np.multiply((2.0 * mu_h[u]).repeat(count), resid, out=r2v[e])
        denom = xi_h[u].repeat(count)
        denom += xi_i
        denom += xi_w
        r /= denom
        r.clip(-LLR_CLAMP, LLR_CLAMP, out=r)

    def estimates(lane):
        # (3) extrinsic symbol -> RE messages, in r2v's array
        e = lane.edges
        v2r = np.subtract(total_flat.take(lane.e_sym), r2v[e],
                          out=r2v[e])
        v2r.clip(-LLR_CLAMP, LLR_CLAMP, out=v2r)
        v2r /= 2.0
        m = np.tanh(v2r, out=v2r)
        # (4) symbol-wise channel estimates, summed per user, in the
        # arrays of xi_i and resid, which no later step reads
        if known_gains is None:
            # a user's edges are all in its lane, so its bins are the lane's
            d = np.add(term_var[e], xi_w, out=term_var[e])
            w = m * m
            w /= d
            u = lane.users
            W[u] = np.bincount(lane.e_user, weights=w,
                               minlength=u.stop)[u.start:]
            del w
            wm = np.multiply(term_mu[e], m, out=term_mu[e])
            wm /= d
            WM[u] = np.bincount(lane.e_user, weights=wm,
                                minlength=u.stop)[u.start:]

    c2v = np.zeros((len(lay.edge_var), n_live))
    c2v_sum = np.zeros((pc.n, n_live))
    m_soft = np.zeros(graph.n_edges)      # tanh(v2r / 2) of v2r = 0
    for n in itertools.count(1):
        rep_mu = (q * mu_h).repeat(e_count)
        term_var = (q * (mu_h * mu_h + xi_h)).repeat(e_count)
        lanes.each(moments, parts)
        term_mu = m_soft
        del rep_mu, m_soft
        # the per-RE sums over every lane's edges, the one step in which
        # users interact
        S_mu = np.bincount(e_re, weights=term_mu, minlength=graph.T)
        S_var = np.bincount(e_re, weights=term_var, minlength=graph.T)
        r2v = np.empty(graph.n_edges)
        lanes.each(symbol_messages, parts)
        del S_mu, S_var

        # (3) one flooding LDPC iteration per live user, from the summed
        # channel LLRs, which end with the flood; total is (n, n_live)
        c2v, c2v_sum, total = ldpc.flood(
            np.bincount(e_sym, weights=r2v, minlength=pc.n * n_live)
            .reshape(pc.n, n_live), c2v, c2v_sum, pc)
        total_flat = total.reshape(-1)
        if known_gains is None:
            W, WM = np.empty(cfg.K), np.empty(cfg.K)
        lanes.each(estimates, parts)
        m_soft = r2v
        del r2v, term_mu, term_var, total_flat

        # (4) the channel estimates fused per user
        if known_gains is None:
            prec = W + 1.0 / cfg.prior_var
            mu_h = (WM + cfg.prior_mean / cfg.prior_var) / prec
            xi_h = 1.0 / prec

        # (5) activity posteriors
        # users with no edges have no evidence and keep the prior activity
        if known_active is None:
            q_new = _activity_posterior_vec(mu_h, xi_h, cfg.prior_mean,
                                            cfg.prior_var, cfg.p_a)
            q = np.where(graph.has_edges, q_new, q)
        yield Iteration(n, q, mu_h, xi_h, total.T, live)


# One lane of iterate: a contiguous range of users and of their edges
# (edges are grouped by user), with the lane's parts of the edge arrays
_Lane = namedtuple("_Lane", "users edges e_re e_sym e_user y_e")


def _lanes(graph: AccessGraph, y_e, size):
    """iterate's lanes: every user in one, or, where lanes.two_lanes(size)
    holds for the LDPC block of size n_live x E_ldpc, two, cut at the user
    boundary nearest the access-edge midpoint that leaves edges on both
    sides."""
    # each user's run of edges ends where the running edge count reaches
    ends = np.cumsum(graph.user_edge_counts)
    cuts = [0, graph.K]
    if lanes.two_lanes(size):
        n_edges = graph.n_edges
        inner = (ends > 0) & (ends < n_edges)
        if inner.any():
            gap = np.where(inner, np.abs(2 * ends - n_edges), 2 * n_edges)
            cuts.insert(1, int(np.argmin(gap)) + 1)
    starts = np.concatenate(([0], ends))
    out = []
    for u0, u1 in zip(cuts, cuts[1:]):
        e = slice(int(starts[u0]), int(starts[u1]))
        out.append(_Lane(slice(u0, u1), e, graph.edge_re[e],
                         graph.edge_live_sym[e], graph.edge_user[e], y_e[e]))
    return out


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
