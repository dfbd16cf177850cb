import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gfrma import config as C
from gfrma import harness as H
from gfrma import ldpc as L
from gfrma import pattern as P
from gfrma import phy
from gfrma import receiver as R

import oracles as O


# ---------------------------------------------------------------------------
# scalar update rules

def test_interference_moments_trivial():
    assert O.interference_moments([]) == (0.0, 0.0)
    mu, var = O.interference_moments([(1.0, 1.0, 0.0, 1e9)])
    assert mu == pytest.approx(1.0)
    assert var == pytest.approx(0.0, abs=1e-12)
    mu, var = O.interference_moments([(0.5, 1.0, 0.0, 0.0)])
    assert mu == pytest.approx(0.0) and var == pytest.approx(0.5)


def _enumerated_moments(contributors):
    """Exhaustive mean/variance over (activity, symbol) outcomes, xi_h = 0."""
    terms = []   # per contributor: list of (prob, value)
    for q, mu_h, _, llr in contributors:
        p1 = 1.0 / (1.0 + math.exp(-llr)) if np.isfinite(llr) else (
            1.0 if llr > 0 else 0.0)
        terms.append([(q * p1, mu_h), (q * (1 - p1), -mu_h), (1 - q, 0.0)])
    mean = 0.0
    second = 0.0
    for combo in itertools.product(*terms):
        p = np.prod([c[0] for c in combo])
        s = sum(c[1] for c in combo)
        mean += p * s
        second += p * s * s
    return mean, second - mean * mean


def test_interference_moments_enumeration_oracle():
    llrs = [0.0, 1.0, -1.0, np.inf, -np.inf]
    qs = [0.0, 0.5, 1.0]
    rng = np.random.default_rng(11)
    pools = [(q, float(rng.uniform(0.2, 2.0)), 0.0, llr)
             for q in qs for llr in llrs]
    for n_contrib in (1, 2, 3):
        for _ in range(60):
            idx = rng.integers(0, len(pools), n_contrib)
            contribs = [pools[i] for i in idx]
            mu, var = O.interference_moments(contribs)
            mu_ref, var_ref = _enumerated_moments(contribs)
            assert mu == pytest.approx(mu_ref, abs=1e-12)
            assert var == pytest.approx(var_ref, abs=1e-12)


def test_interference_moments_random_channel_mc():
    # with channel uncertainty, compare against direct Monte Carlo
    rng = np.random.default_rng(2)
    contribs = [(0.7, 1.2, 0.3, 0.8), (0.4, 0.9, 0.5, -1.5)]
    mu, var = O.interference_moments(contribs)
    n = 400000
    total = np.zeros(n)
    for q, mu_h, xi_h, llr in contribs:
        act = rng.random(n) < q
        h = rng.normal(mu_h, np.sqrt(xi_h), n)
        p1 = 1.0 / (1.0 + np.exp(-llr))
        x = np.where(rng.random(n) < p1, 1.0, -1.0)
        total += act * h * x
    se_mu = total.std() / np.sqrt(n)
    assert abs(mu - total.mean()) < 3 * se_mu
    # variance estimator std ~ var * sqrt(2/n) for near-normal sums
    assert abs(var - total.var()) < 4 * total.var() / np.sqrt(n) + 3 * se_mu


def test_ren_to_vn_examples():
    assert O.ren_to_vn(1.0, 0.0, 0.5, 0.0, 0.0, 1.0) == pytest.approx(1.0)
    assert O.ren_to_vn(0.7, 0.2, 1.3, 1.3, 0.4, 0.5) == 0.0
    big = O.ren_to_vn(1.0, 0.0, 100.0, 0.0, 0.0, 0.1)
    assert big == R.LLR_CLAMP          # clamped


def test_ren_to_vn_bpsk_limit():
    # interference-free, perfect CSI: must equal the exact BPSK LLR
    rng = np.random.default_rng(3)
    for _ in range(1000):
        y = rng.normal(0, 2)
        h = rng.uniform(0.1, 3.0)
        xi_w = rng.uniform(0.5, 5.0)
        exact = 2 * h * y / xi_w
        got = O.ren_to_vn(h, 0.0, y, 0.0, 0.0, xi_w)
        assert got == pytest.approx(np.clip(exact, -30, 30), abs=1e-12)


def test_vn_total():
    assert O.vn_total([]) == 0.0
    assert O.vn_total([1.0, -0.5, 0.25]) == pytest.approx(0.75)
    assert O.vn_total([-2.0]) == -2.0


def test_channel_edge_estimate_examples():
    assert O.channel_edge_estimate(0.0, 1.0, 0.3, 0.2, 0.1) == (0.0, 0.0)
    w, wm = O.channel_edge_estimate(1e6, 1.0, 0.2, 0.7, 0.3)
    assert w == pytest.approx(1.0) and wm == pytest.approx(0.8)
    # tanh(L/2) = 0.5, y - mu_i = 0.4, denom 1 -> estimate 0.8, variance 4
    Lval = 2 * np.arctanh(0.5)
    w, wm = O.channel_edge_estimate(Lval, 0.4, 0.0, 0.6, 0.4)
    assert w == pytest.approx(0.25) and wm == pytest.approx(0.2)


def test_usn_combine_examples():
    assert O.usn_combine([], 1.0, 10.0) == (1.0, 10.0)
    mu, xi = O.usn_combine([(1.0, 1.0)], 1.0, 10.0)
    assert mu == pytest.approx(1.0) and xi == pytest.approx(1 / 1.1)
    mu, xi = O.usn_combine([(1.0, 2.0), (1.0, 0.0)], 1.0, 1e12)
    assert mu == pytest.approx(1.0, abs=1e-9)
    assert xi == pytest.approx(0.5, abs=1e-9)


def test_usn_combine_grid_oracle():
    # product of Gaussian densities on a fine grid, numerically normalized
    rng = np.random.default_rng(5)
    grid = np.linspace(-30, 30, 600001)
    dx = grid[1] - grid[0]
    for _ in range(100):
        n_edges = rng.integers(0, 5)
        means = rng.normal(0.5, 1.0, n_edges)
        vars_ = rng.uniform(0.3, 4.0, n_edges)
        pm, pv = rng.normal(1.0, 0.5), rng.uniform(0.5, 8.0)
        pairs = [(1 / v, m / v) for m, v in zip(means, vars_)]
        mu, xi = O.usn_combine(pairs, pm, pv)
        logpdf = -(grid - pm) ** 2 / (2 * pv)
        for m, v in zip(means, vars_):
            logpdf = logpdf - (grid - m) ** 2 / (2 * v)
        pdf = np.exp(logpdf - logpdf.max())
        pdf /= pdf.sum() * dx
        mean_ref = np.sum(grid * pdf) * dx
        var_ref = np.sum((grid - mean_ref) ** 2 * pdf) * dx
        assert mu == pytest.approx(mean_ref, abs=1e-6)
        assert xi == pytest.approx(var_ref, abs=1e-6)


def test_activity_posterior_examples():
    assert O.activity_posterior(0.3, 1.0, 1.0, 1.0, 1.0) == 1.0 - R.Q_FLOOR
    q = O.activity_posterior(1.0, 1.0, 1.0, 1.0, 0.5)
    assert q == pytest.approx(1 / (1 + math.exp(-0.5)), abs=1e-12)
    assert q == pytest.approx(0.6225, abs=1e-4)
    q = O.activity_posterior(0.0, 1.0, 10.0, 1.0, 0.5)
    assert q == pytest.approx(math.exp(-50), rel=1e-6)


def test_activity_posterior_bounds():
    rng = np.random.default_rng(6)
    for _ in range(200):
        q = O.activity_posterior(rng.normal(0, 5), rng.uniform(1e-6, 10),
                                 rng.normal(0, 3), rng.uniform(1e-3, 20),
                                 rng.random())
        assert R.Q_FLOOR <= q <= 1 - R.Q_FLOOR


def test_usn_variance_monotone_in_edges():
    # equal finite edge variances: xi_h non-increasing as edges are added
    pairs = [(1 / 0.8, 0.5 / 0.8)] * 10
    prev = np.inf
    for n in range(len(pairs) + 1):
        _, xi = O.usn_combine(pairs[:n], 1.0, 10.0)
        assert xi <= prev + 1e-15
        prev = xi


# ---------------------------------------------------------------------------
# joint decoder

def tiny_cfg(**kw):
    base = dict(K=6, p_a=0.3, m=12, code_rate=0.6, T=250, system_seed=17,
                noise_variance=0.05)
    base.update(kw)
    return C.SystemConfig(**base)


@pytest.fixture(scope="module")
def tiny():
    cfg = tiny_cfg()
    pc = L.construct_parity_check(cfg.m, cfg.code_rate, cfg.d_v,
                                  cfg.system_seed)
    graph = P.build_access_graph(cfg)
    return cfg, pc, graph


def test_vectorized_first_iteration_matches_scalar(tiny, monkeypatch):
    cfg, pc, graph = tiny
    truth = phy.make_ground_truth(cfg, pc, trial_index=0)
    y = phy.superpose(cfg, truth, graph)
    calls = []
    flood = L.flood

    def recording_flood(Lch, c2v, c2v_sum, pc):
        c2v, c2v_sum, total = flood(Lch, c2v, c2v_sum, pc)
        # the flood's arrays are (N, n_live): one column per live user
        calls.append((Lch.T.copy(), total.T.copy()))
        return c2v, c2v_sum, total

    monkeypatch.setattr(L, "flood", recording_flood)
    out = R.joint_decode(dataclasses.replace(cfg, max_iterations=1), y,
                         graph, pc)
    assert len(calls) == 1
    Lch, total = calls[0]

    # scalar first-iteration REN -> VN messages from the initial beliefs
    # (v2r = 0, q = p_a, channel estimate = prior), with the interference
    # moments each edge sees
    r2v = np.zeros(graph.n_edges)
    moments = []
    for e in range(graph.n_edges):
        t = graph.edge_re[e]
        contribs = [(cfg.p_a, cfg.prior_mean, cfg.prior_var, 0.0)
                    for e2 in np.flatnonzero(graph.edge_re == t) if e2 != e]
        mu_i, xi_i = O.interference_moments(contribs)
        moments.append((mu_i, xi_i))
        r2v[e] = O.ren_to_vn(cfg.prior_mean, cfg.prior_var, y[t], mu_i,
                             xi_i, cfg.noise_variance)

    # the LDPC step's channel LLRs: per live user and symbol, the sum of
    # the symbol's RE messages
    live = np.flatnonzero(graph.has_edges)
    assert Lch.shape == total.shape == (len(live), pc.n)
    for row, k in enumerate(live):
        for j in range(pc.n):
            edges = np.flatnonzero((graph.edge_user == k)
                                   & (graph.edge_sym == j))
            assert Lch[row, j] == pytest.approx(O.vn_total(r2v[edges]),
                                                abs=1e-9)

    # extrinsic symbol -> RE messages: posterior minus the edge's own message
    row_of = np.full(cfg.K, -1)
    row_of[live] = np.arange(len(live))
    v2r = np.clip(total[row_of[graph.edge_user], graph.edge_sym] - r2v,
                  -R.LLR_CLAMP, R.LLR_CLAMP)

    # scalar per-user channel fusion and activity from those messages
    for k in range(cfg.K):
        pairs = []
        for e in np.flatnonzero(graph.edge_user == k):
            mu_i, xi_i = moments[e]
            pairs.append(O.channel_edge_estimate(
                v2r[e], y[graph.edge_re[e]], mu_i, xi_i, cfg.noise_variance))
        mu, xi = O.usn_combine(pairs, cfg.prior_mean, cfg.prior_var)
        assert out.mu_h[k] == pytest.approx(mu, abs=1e-9)
        assert out.xi_h[k] == pytest.approx(xi, abs=1e-9)
        ref_q = O.activity_posterior(mu, xi, cfg.prior_mean, cfg.prior_var,
                                     cfg.p_a)
        assert out.q[k] == pytest.approx(ref_q, abs=1e-9)


def test_single_user_genie_prior_decodes():
    cfg = tiny_cfg(K=1, p_a=1.0, T=400, noise_variance=1e-6,
                   prior_mean=1.0, prior_var=0.01, max_iterations=10)
    pc = L.construct_parity_check(cfg.m, cfg.code_rate, cfg.d_v, 2)
    graph = P.build_access_graph(cfg)
    truth = phy.make_ground_truth(cfg, pc, 0)
    truth = dataclasses.replace(truth, gains=np.ones(1))
    y = phy.superpose(cfg, truth, graph)
    out = R.joint_decode(cfg, y, graph, pc)
    assert out.declared[0]
    assert out.iterations <= 10
    assert out.q[0] > 0.999
    assert np.array_equal(out.decoded_bits[0], truth.info_bits[0])


def test_noise_only_block_rarely_declares():
    # needs a code long enough that noise cannot fit a spurious codeword
    cfg = tiny_cfg(p_a=0.1, m=120, T=4000)
    pc = L.construct_parity_check(cfg.m, cfg.code_rate, cfg.d_v,
                                  cfg.system_seed)
    graph = P.build_access_graph(cfg)
    false_free = 0
    trials = 100
    rng = np.random.default_rng(1234)
    for _ in range(trials):
        y = rng.normal(0, np.sqrt(cfg.noise_variance), cfg.T)
        out = R.joint_decode(cfg, y, graph, pc)
        false_free += int(not out.declared.any())
    assert false_free / trials >= 0.95


def test_outcome_consistency(tiny):
    cfg, pc, graph = tiny
    truth = phy.make_ground_truth(cfg, pc, 3)
    y = phy.superpose(cfg, truth, graph)
    out = R.joint_decode(cfg, y, graph, pc)
    assert np.array_equal(out.declared, out.q > cfg.activity_threshold)
    assert out.decoded_bits.shape == (cfg.K, cfg.m)
    assert 1 <= out.iterations <= cfg.max_iterations


@pytest.mark.parametrize("max_iterations", [0, -1])
def test_joint_decode_needs_an_iteration(tiny, max_iterations):
    cfg, pc, graph = tiny
    cfg = dataclasses.replace(cfg, max_iterations=max_iterations)
    with pytest.raises(ValueError, match="max_iterations"):
        R.joint_decode(cfg, np.zeros(cfg.T), graph, pc)


def test_registration_mode_pins_activity(tiny):
    cfg, pc, graph = tiny
    truth = phy.make_ground_truth(cfg, pc, 4)
    y = phy.superpose(cfg, truth, graph)
    out = R.joint_decode(cfg, y, graph, pc, known_active=truth.active)
    assert np.array_equal(out.declared, truth.active)


def test_empty_graph_keeps_prior_activity():
    # users with no edges have no evidence: q stays at p_a, none declared
    cfg = tiny_cfg(racf=(1.0, 0.0))
    pc = L.construct_parity_check(cfg.m, cfg.code_rate, cfg.d_v,
                                  cfg.system_seed)
    graph = P.build_access_graph(cfg)
    assert graph.n_edges == 0
    y = np.random.default_rng(6).normal(0, np.sqrt(cfg.noise_variance), cfg.T)
    out = R.joint_decode(cfg, y, graph, pc)
    assert not out.declared.any()
    assert np.allclose(out.q, cfg.p_a, atol=1e-9)


# sha256 of _outcome_digest's outcomes, as the decoder produced them before
# the LDPC step was restricted to the users that have edges; recomputed with
# unchanged outputs when the per-user syndrome flags left the outcome. Every
# change to joint_decode that means to keep its outputs must keep it
GOLDEN_DIGEST = (
    "9a3f9dbb7e9a1fc9cf3019ce77eeed9c646d4494df56916662736e39b2301d7f")

# the same digest for one PAPER_CONFIG grant-free trial, as the decoder
# produced it before the sign-product check update (recomputed likewise).
# PAPER puts about 11% of symbols on no RE, so exact zeros reach the check
# update in every iteration, which the DESK digest barely exercises
PAPER_GOLDEN_DIGEST = (
    "c9aeda7eb1e1f0ba2a35a03b916ca4942cf54ddfef09958693c16ea4e9c3d056")


def _outcome_digest(base, modes, snr_dbs, trials):
    """sha256 over run_trial outcomes at every (mode, SNR, trial), at full
    float precision, with the code and graph built from base."""
    pc = L.construct_parity_check(base.m, base.code_rate, base.d_v,
                                  base.system_seed)
    graph = P.build_access_graph(base)
    gains = H.expected_active_gains(base)
    h = hashlib.sha256()
    for mode in modes:
        for snr_db in snr_dbs:
            cfg = base.with_noise_variance(C.noise_variance_for_snr(
                base, C.db_to_linear(snr_db), gains))
            for trial in trials:
                _, out = H.run_trial(cfg, pc, graph, trial, mode)
                for arr in (out.decoded_bits, out.declared, out.q,
                            out.mu_h, out.xi_h):
                    arr = np.ascontiguousarray(arr)
                    h.update(f"{arr.dtype.str}{arr.shape}".encode())
                    h.update(arr.tobytes())
                h.update(f"{out.iterations} {out.converged}".encode())
    return h.hexdigest()


def test_golden_decode_digest():
    # DESK_CONFIG, master seed 1: every mode, -7.0 and -5.5 dB, trials 0, 1
    base = dataclasses.replace(H.DESK_CONFIG, system_seed=1)
    assert _outcome_digest(base, H.MODES, (-7.0, -5.5),
                           (0, 1)) == GOLDEN_DIGEST


def test_paper_golden_decode_digest():
    # PAPER_CONFIG, master seed 1, 10 iterations: grant-free, 2 dB, trial 0
    base = dataclasses.replace(H.PAPER_CONFIG, system_seed=1,
                               max_iterations=10)
    assert _outcome_digest(base, ("grant-free",), (2.0,),
                           (0,)) == PAPER_GOLDEN_DIGEST


def test_registration_without_actives():
    # no active user: the LDPC step runs on an empty batch, nothing declared
    cfg = tiny_cfg()
    pc = L.construct_parity_check(cfg.m, cfg.code_rate, cfg.d_v,
                                  cfg.system_seed)
    graph = P.build_access_graph(cfg)
    y = np.random.default_rng(7).normal(0, np.sqrt(cfg.noise_variance), cfg.T)
    out = R.joint_decode(cfg, y, graph, pc,
                         known_active=np.zeros(cfg.K, dtype=bool))
    assert not out.declared.any()
    assert not out.decoded_bits.any()
    assert out.converged == "stalled" and out.iterations == 2


@pytest.fixture(scope="module")
def desk_block():
    """DESK_CONFIG at master seed 1 and -7.0 dB: the config, code and graph,
    and trial 0's truth and received block."""
    base = dataclasses.replace(H.DESK_CONFIG, system_seed=1)
    pc = L.construct_parity_check(base.m, base.code_rate, base.d_v,
                                  base.system_seed)
    graph = P.build_access_graph(base)
    cfg = base.with_noise_variance(C.noise_variance_for_snr(
        base, C.db_to_linear(-7.0), H.expected_active_gains(base)))
    truth = phy.make_ground_truth(cfg, pc, 0)
    return cfg, pc, graph, truth, phy.superpose(cfg, truth, graph)


@pytest.mark.parametrize("mode", ["grant-free", "registration"])
def test_iterate_views_are_capped_decodes(desk_block, mode):
    # view n holds, bit for bit, the beliefs of the decode capped at n
    cfg, pc, graph, truth, y = desk_block
    known = truth.active if mode == "registration" else None
    views = R.iterate(cfg, y, graph, pc, known_active=known)
    for n, view in enumerate(itertools.islice(views, 5), 1):
        capped = R.joint_decode(dataclasses.replace(cfg, max_iterations=n),
                                y, graph, pc, known_active=known)
        assert view.n == capped.iterations == n
        for name in ("q", "mu_h", "xi_h"):
            assert (getattr(view, name).tobytes()
                    == getattr(capped, name).tobytes()), (n, name)


def test_held_view_stays_valid(desk_block):
    # later iterations rebind a view's arrays and never write them
    cfg, pc, graph, _, y = desk_block
    views = R.iterate(cfg, y, graph, pc)
    first = next(views)
    saved = [np.copy(arr) for arr in first[1:]]
    for _ in range(5):
        later = next(views)
    assert first.n == 1 and later.n == 6
    assert not np.array_equal(later.total, first.total)
    for name, arr in zip(R.Iteration._fields[1:], saved):
        assert getattr(first, name).tobytes() == arr.tobytes(), name


def _traced_decode_peak(base, snr_db):
    """Traced peak of a warm 10-iteration grant-free joint_decode (master
    seed 1, trial 0), in float64s per access-graph edge."""
    base = dataclasses.replace(base, system_seed=1, max_iterations=10)
    pc = L.construct_parity_check(base.m, base.code_rate, base.d_v,
                                  base.system_seed)
    graph = P.build_access_graph(base)
    cfg = base.with_noise_variance(C.noise_variance_for_snr(
        base, C.db_to_linear(snr_db), H.expected_active_gains(base)))
    truth = phy.make_ground_truth(cfg, pc, 0)
    y = phy.superpose(cfg, truth, graph)
    R.joint_decode(cfg, y, graph, pc)     # fills the per-(graph, code) caches
    tracemalloc.start()
    try:
        R.joint_decode(cfg, y, graph, pc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 8 / graph.n_edges


@pytest.mark.parametrize("base,snr_db,bound", [
    (H.DESK_CONFIG, -7.0, 9.75),
    (H.PAPER_CONFIG, 2.0, 13.3),
], ids=["desk", "paper"])
def test_decode_working_set(base, snr_db, bound):
    # One iteration holds one live copy of each per-edge array and ends
    # its temporaries in their step: the peak reads 7.4 at DESK and 10.0 at
    # PAPER (numpy 2.4). With arrays kept past their step it read 19.5 and
    # 26.6; each bound is half of that, so such a regression fails here
    assert _traced_decode_peak(base, snr_db) <= bound
