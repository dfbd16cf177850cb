import dataclasses
import hashlib
import math
import os
import warnings

import numpy as np
import pytest

from gfrma import config as C
from gfrma import de

import numerics
import oracles as O


def desk_cfg(**kw):
    base = dict(K=30, p_a=0.1, m=120, code_rate=0.6, T=6400)
    base.update(kw)
    return C.SystemConfig(**base)


# ---------------------------------------------------------------------------
# J-function machinery

def test_j_function_endpoints():
    assert O.j_function(0.0) == 0.0
    assert O.j_function(10.0) > 0.999
    with pytest.raises(ValueError):
        O.j_function(-0.1)


def test_j_function_value_oracle():
    # frozen from the quadrature oracle, cross-checked below by sampling;
    # the package's tabled J is held to both as well
    rng = np.random.default_rng(0)
    xi = rng.normal(0.5, 1.0, 2_000_000)
    samples = np.logaddexp(0.0, -xi) / math.log(2.0)
    mc = 1.0 - samples.mean()
    sem = samples.std() / math.sqrt(len(samples))
    for j in (O.j_function, de.j_function):
        assert j(1.0) == pytest.approx(0.160747, abs=1e-5)
        assert abs(j(1.0) - mc) < 3 * sem


def test_j_function_strictly_increasing():
    xs = np.linspace(0.0, 10.0, 200)
    for j in (O.j_function, de.j_function):
        js = [j(x) for x in xs]
        assert np.all(np.diff(js) > 0)


def test_j_inverse_round_trip():
    assert O.j_inverse(0.0) == 0.0
    assert O.j_inverse(O.j_function(2.0)) == pytest.approx(2.0, abs=1e-6)
    for x in np.linspace(0.05, 10.0, 40):
        assert O.j_inverse(O.j_function(x)) == pytest.approx(x, abs=1e-6)
    with pytest.raises(ValueError):
        O.j_inverse(1.0)


def test_omega_endpoints_and_monotone():
    assert O.omega(0.0) == 0.0
    assert O.omega(0.999) > 0.99
    vals = [O.omega(i) for i in np.linspace(0.0, 0.99, 30)]
    assert np.all(np.diff(vals) > 0)


def test_omega_sampling_oracle():
    s = O.j_inverse(0.5)
    rng = np.random.default_rng(1)
    L = rng.normal(s * s / 2.0, s, 1_000_000)
    samples = np.tanh(L / 2.0) ** 2
    sem = samples.std() / 1000.0
    assert abs(O.omega(0.5) - samples.mean()) < 3 * sem


def test_tables_match_quadrature():
    # the package's J and Omega, read from the Gauss-Hermite spline tables,
    # against the adaptive-quadrature forms, and its J^-1 by a round trip
    tab = de._tables()
    assert de._tables() is tab
    for x in [0.0, 0.01, 0.1, 0.3, 0.5, 1.0, 1.7, 2.0, 3.3, 5.0, 7.7, 10.0,
              11.99, 12.01, 15.0, 20.0, 25.0, 33.0, 40.0, 59.9]:
        assert abs(de.j_function(x) - O.j_function(x)) < 1e-7
    for mi in [0.0, 1e-4, 0.001, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6,
               0.7, 0.8, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9993, 0.9994]:
        assert abs(de.omega(mi) - O.omega(mi)) < 1e-6
    for x in [0.05, 0.2, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0, 8.0, 9.5]:
        assert de.j_inverse(de.j_function(x)) == pytest.approx(x, abs=1e-6)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def assert_pchip_matches_scipy(x, y, rng):
    # scipy's PchipInterpolator is the oracle: the knots, points inside,
    # and points up to 0.5 beyond each end, flat and in the hot path's
    # (2, rows, nodes) shape
    from scipy.interpolate import PchipInterpolator
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    lo, hi = x[0], x[-1]
    v = np.concatenate([x, rng.uniform(lo, hi, 10_000),
                        rng.uniform(lo - 0.5, lo, 200),
                        rng.uniform(hi, hi + 0.5, 200)])
    ours, oracle = de._Pchip(x, y), PchipInterpolator(x, y)
    assert same_bits(ours(v), oracle(v))
    cube = v[:1280].reshape(2, 10, 64)
    assert same_bits(ours(cube), oracle(cube))


def test_table_splines_match_scipy_bitwise(monkeypatch):
    knots = []
    pchip = de._Pchip

    def recording(x, y):
        knots.append((x, y))
        return pchip(x, y)

    monkeypatch.setattr(de, "_Pchip", recording)
    de._Tables()
    monkeypatch.undo()
    assert len(knots) == 3          # J, J^-1 and Omega
    rng = np.random.default_rng(0)
    for x, y in knots:
        assert_pchip_matches_scipy(x, y, rng)


def test_pchip_slope_branches_match_scipy_bitwise():
    rng = np.random.default_rng(1)
    # slopes 1, 5, 0, 0, -2, 1, 1, -10, 1: the interior knots take the
    # harmonic mean, or 0 at flat runs and sign changes; the left end's
    # three-point slope (-1) has the wrong sign and becomes 0, the
    # right end's (6.5) is capped at 3 times the end slope
    assert_pchip_matches_scipy([0, 1, 2, 3.5, 4, 6, 7, 8, 9, 10],
                               [0, 1, 6, 6, 6, 2, 3, 4, -6, -5], rng)
    # every term is -0.0 at the first knot, where scipy's sum reads +0.0
    assert_pchip_matches_scipy([0, 1, 3], [-0.0, -1, -4], rng)
    # uneven knots and small integer values: flat runs, sign changes and
    # every end case, at random
    for _ in range(50):
        x = np.cumsum(rng.uniform(0.1, 2.0, 12))
        assert_pchip_matches_scipy(x, rng.integers(-2, 3, 12), rng)


# ---------------------------------------------------------------------------
# recursion building blocks

def test_l1_values():
    assert de.l1(1.0, 0.14, 6400, 400, 1.0, 2.0) == pytest.approx(2.24)
    assert de.l1(1.0, 0.14, 6400, 400, 0.0, 2.0) == 0.0
    assert de.l1(1.0, 0.14, 12800, 400, 1.0, 2.0) == pytest.approx(4.48)


def test_check_degree_profile():
    d_c, frac = de.check_degree_profile(400, 240, 3)
    assert d_c.tolist() == [7, 8]
    assert frac.tolist() == [pytest.approx(560 / 1200),
                             pytest.approx(640 / 1200)]
    # single-degree case
    d_c, frac = de.check_degree_profile(4, 2, 2)
    assert d_c.tolist() == [4] and frac.tolist() == [1.0]


def test_l2_trivial_cases():
    prof = de.check_degree_profile(400, 240, 3)
    assert de.l2(0.0, 3, prof, 0.0) == pytest.approx(0.0, abs=1e-9)
    # near-certain input passes near-certain output
    big = de.l2(200.0, 3, prof, 200.0)
    assert O.j_function(min(math.sqrt(2 * big), 60.0)) > 0.999


def test_l2_degree_two_identity():
    # a degree-2 check forwards the MI of the incoming edge
    for mu in (0.5, 1.0, 3.0):
        # d_v=1: mu_vc = mu
        out = de.l2(mu, 1, (np.array([2]), np.array([1.0])), 0.0)
        i_in = O.j_function(math.sqrt(2 * mu))
        i_out = O.j_function(math.sqrt(2 * out))
        assert i_out == pytest.approx(i_in, abs=1e-4)


def composed_l2(mu_channel, d_v, dc_profile, mu_c2v_prev):
    """l2 through de._composed_check_update instead of the profile's
    spline: the update as the DE computed it before it was tabulated."""
    mu_vc = np.maximum(np.asarray(mu_channel, dtype=float)
                       + (d_v - 1) * np.asarray(mu_c2v_prev, dtype=float),
                       0.0)
    return de._composed_check_update(
        np.minimum(np.sqrt(2.0 * mu_vc), de._X_MAX), *dc_profile)


@pytest.mark.parametrize("prof", [
    de.check_degree_profile(400, 240, 3),        # DESK and PAPER: (7, 8)
    (np.array([2]), np.array([1.0])),
], ids=["7-8", "2"])
def test_check_table_matches_composed_update(prof):
    # the tabled check update against the composed J/J^-1 form it is built
    # from, as MI, on 600 001 points of x = sqrt(2 mu_vc) in [0, 60]: at
    # most 1e-7 (measured 2.8e-8 for (7, 8), 4.2e-8 for degree 2). Below
    # x = 0.1 (MI < 2e-3) a degree-2 check differs by up to 3.7e-6
    # (measured), bounded at 5e-6: there the composed form strays from the
    # quadrature J by up to 1.4e-6 between knots, as the J table itself
    # does by 1.3e-6, so the gap is the J table's resolution
    x = np.linspace(0.0, 60.0, 600_001)
    mu = x * x / 2.0
    j = de.j_function
    gap = np.abs(j(np.sqrt(2.0 * de.l2(mu, 1, prof, 0.0)))
                 - j(np.sqrt(2.0 * composed_l2(mu, 1, prof, 0.0))))
    low = x < 0.1
    assert gap[~low].max() < 1e-7
    assert gap[low].max() < 5e-6
    # one spline per profile, built once and shared
    key = tuple(prof[0].tolist()), tuple(prof[1].tolist())
    assert de._check_table(*key) is de._check_table(*key)


def test_interference_variance_cases():
    ed = C.racf_mean_degree(C.DEFAULT_RACF)
    om = de.omega
    g = np.ones(1)
    assert de.de_interference_variance(g, 1.0, ed, om([1.0]), [0.0]) == \
        pytest.approx(0.0, abs=1e-9)
    assert de.de_interference_variance(g, 1.0, ed, om([0.0]), [0.0]) == \
        pytest.approx(0.14, abs=1e-9)
    one = de.de_interference_variance(g, 1.0, ed, om([0.3]), [0.2])
    two = de.de_interference_variance(np.ones(2), 1.0, ed, om([0.3, 0.3]),
                                      [0.2, 0.2])
    assert two == pytest.approx(2 * one, rel=1e-12)
    # a row standing for two users counts as two rows
    assert de.de_interference_variance(g, 2.0, ed, om([0.3]), [0.2]) == two


def test_channel_variance_cases():
    t_ed = 6400 * C.racf_mean_degree(C.DEFAULT_RACF)
    om = de.omega
    assert de.de_channel_variance(t_ed, om(0.0), 0.5, 0.5, 10.0) == \
        pytest.approx(10.0)
    hi = de.de_channel_variance(t_ed, om(0.9999), 0.5, 0.5, 10.0)
    assert hi == pytest.approx(1 / (896 * O.omega(0.9999) + 0.1), rel=1e-3)
    vals = [de.de_channel_variance(t_ed, om(i), 0.5, 0.5, 10.0)
            for i in np.linspace(0, 0.999, 20)]
    assert np.all(np.diff(vals) < 1e-15)


# ---------------------------------------------------------------------------
# mi_step

def test_mi_step_zero_signal():
    cfg = desk_cfg(noise_variance=1e9)
    g = np.ones(3)
    st = de.initial_de_state(cfg, g)
    nxt = de.mi_step(st, cfg, g)
    assert np.all(nxt.mi < 1e-3)


def test_mi_step_degenerate_channel_limit():
    cfg = desk_cfg(noise_variance=0.05, prior_mean=1.0, prior_var=10.0)
    g = np.ones(3)
    st = de.initial_de_state(cfg, g)
    st = dataclasses.replace(st, xi_h=np.zeros(3))
    nxt = de.mi_step(st, cfg, g)
    ed = C.racf_mean_degree(cfg.racf)
    prof = de.check_degree_profile(cfg.N, cfg.m, cfg.d_v)
    xi_total = st.xi_s + 0.0 + cfg.noise_variance
    mu_l = de.l1(1.0, ed, cfg.T, cfg.N, 1.0, xi_total)
    mu_cv = de.l2(mu_l, cfg.d_v, prof, 0.0)
    ref = O.j_function(math.sqrt(2 * (mu_l + cfg.d_v * mu_cv)))
    assert nxt.mi[0] == pytest.approx(ref, abs=1e-4)


def test_mi_step_matches_truncated_monte_carlo():
    cfg = desk_cfg(noise_variance=0.1)
    g = np.array([1.0, 0.8])
    st = de.DeState(mi=np.array([0.3, 0.5]), xi_h=np.array([0.2, 0.05]),
                    mu_c2v=np.array([0.4, 0.9]), xi_s=0.6)
    nxt = de.mi_step(st, cfg, g)
    mean, sem = O.mi_step_monte_carlo(st, cfg, g, np.random.default_rng(7),
                                      200000)
    assert np.all(np.abs(nxt.mi - mean) < 3 * sem + 1e-6)


def test_mi_step_monotone_dominance():
    cfg = desk_cfg(noise_variance=0.2)
    g = np.ones(3)
    rng = np.random.default_rng(8)
    for _ in range(10):
        mi_b = rng.uniform(0, 0.8, 3)
        b = de.DeState(mi=mi_b,
                       xi_h=rng.uniform(0.1, 2.0, 3),
                       mu_c2v=rng.uniform(0, 1.0, 3),
                       xi_s=float(rng.uniform(0.2, 1.0)))
        a = de.DeState(mi=np.minimum(b.mi + rng.uniform(0, 0.15, 3), 1.0),
                       xi_h=b.xi_h * rng.uniform(0.5, 1.0, 3),
                       mu_c2v=b.mu_c2v + rng.uniform(0, 0.3, 3),
                       xi_s=b.xi_s * float(rng.uniform(0.5, 1.0)))
        na = de.mi_step(a, cfg, g)
        nb = de.mi_step(b, cfg, g)
        assert np.all(na.mi >= nb.mi - 1e-9)
        assert na.xi_s <= nb.xi_s + 1e-9


def _mi_step_per_user(state, cfg, active_gains):
    """The per-user Gauss-Legendre loop mi_step replaced, its xi_h = 0 fork
    included; kept as the oracle for the array step."""
    g = np.asarray(active_gains, dtype=float)
    ed = C.racf_mean_degree(cfg.racf)
    dc_prof = de.check_degree_profile(cfg.N, cfg.m, cfg.d_v)
    xi_w = cfg.noise_variance
    nodes, weights = np.polynomial.legendre.leggauss(64)
    mi_new = np.zeros(len(g))
    mu_c2v_new = np.zeros(len(g))
    for k, h in enumerate(g):
        xi_h = state.xi_h[k]
        xi_total = state.xi_s + xi_h + xi_w
        if xi_h < 1e-30:
            mu_l = max(de.l1(h, ed, cfg.T, cfg.N, h, xi_total), 0.0)
            mu_cv = de.l2(mu_l, cfg.d_v, dc_prof, state.mu_c2v[k])
            mi_new[k] = de.j_function(
                math.sqrt(2.0 * max(mu_l + cfg.d_v * mu_cv, 0.0)))
            mu_c2v_new[k] = mu_cv
            continue
        sd = math.sqrt(xi_h)
        lo, hi = h - 8.0 * sd, h
        mu = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        wq = 0.5 * (hi - lo) * weights
        pdf2 = 2.0 * np.exp(-(mu - h) ** 2 / (2.0 * xi_h)) \
            / math.sqrt(2.0 * math.pi * xi_h)
        mu_l = np.maximum(de.l1(h, ed, cfg.T, cfg.N, mu, xi_total), 0.0)
        mu_cv = de.l2(mu_l, cfg.d_v, dc_prof, state.mu_c2v[k])
        jvals = de.j_function(np.sqrt(2.0 * np.maximum(
            mu_l + cfg.d_v * mu_cv, 0.0)))
        mass = float(np.sum(wq * pdf2))
        mi_new[k] = float(np.sum(wq * pdf2 * jvals))
        mu_c2v_new[k] = float(np.sum(wq * pdf2 * mu_cv)
                              / max(mass, 1e-300))
    mi_new = np.clip(mi_new, 0.0, 1.0)
    om = de.omega(mi_new)
    xi_s_new = de.de_interference_variance(g, 1.0, ed, om, state.xi_h)
    xi_h_new = de.de_channel_variance(cfg.T * ed, om, xi_s_new, xi_w,
                                      cfg.prior_var)
    return de.DeState(mi_new, xi_h_new, mu_c2v_new, xi_s_new,
                      state.iteration + 1)


@pytest.mark.parametrize("cfg,n_active", [
    (desk_cfg(), 3),
    (desk_cfg(K=100, m=240), 10),    # PAPER_CONFIG
])
def test_mi_step_matches_per_user_loop(cfg, n_active):
    rng = np.random.default_rng(11)
    for trial in range(12):
        g = rng.uniform(0.5, 1.5, n_active)
        # channel variances from the prior's scale down to converged ones
        xi_h = rng.uniform(0.0, 2.0, n_active) * rng.uniform(0, 1) ** 6
        if trial % 3 == 0:
            xi_h[rng.integers(n_active)] = 0.0
        if trial == 1:
            xi_h[:] = 0.0
        st = de.DeState(mi=rng.uniform(0, 1, n_active), xi_h=xi_h,
                        mu_c2v=rng.uniform(0, 30, n_active),
                        xi_s=float(rng.uniform(0.0, 3.0)))
        cfg_w = cfg.with_noise_variance(float(10 ** rng.uniform(-2, 1)))
        got = de.mi_step(st, cfg_w, g)
        ref = _mi_step_per_user(st, cfg_w, g)
        assert got.iteration == ref.iteration == 1
        np.testing.assert_allclose(got.mi, ref.mi, rtol=0, atol=1e-12)
        for name in ("mu_c2v", "xi_h"):
            np.testing.assert_allclose(getattr(got, name),
                                       getattr(ref, name), rtol=1e-12,
                                       atol=0, err_msg=name)
        # xi_s is E[d] sum(h^2 + xi_h - h^2 Omega): near MI = 1 the terms
        # cancel, so it is held relative to their scale, not its own
        scale = C.racf_mean_degree(cfg.racf) * np.sum(g * g + xi_h)
        assert abs(got.xi_s - ref.xi_s) <= 1e-12 * scale


def _check_against_oracle(got, ref, cfg, g):
    """mi_step's tolerances against _mi_step_per_user."""
    np.testing.assert_allclose(got.mi, ref.mi, rtol=0, atol=1e-12)
    for name in ("mu_c2v", "xi_h"):
        np.testing.assert_allclose(getattr(got, name), getattr(ref, name),
                                   rtol=1e-12, atol=0, err_msg=name)
    scale = C.racf_mean_degree(cfg.racf) * np.sum(g * g + ref.xi_h)
    assert abs(got.xi_s - ref.xi_s) <= 1e-12 * scale


def test_mi_step_equal_gains_distinct_rows():
    # a direct call keeps one row per user, so users that share a gain but
    # hold different states get their own answers
    cfg = desk_cfg(noise_variance=0.3)
    g = np.ones(4)
    st = de.DeState(mi=np.array([0.1, 0.5, 0.9, 0.5]),
                    xi_h=np.array([0.5, 0.05, 1e-4, 0.2]),
                    mu_c2v=np.array([0.2, 2.0, 9.0, 1.0]), xi_s=0.4)
    got = de.mi_step(st, cfg, g)
    assert len(np.unique(got.mi)) == 4
    _check_against_oracle(got, _mi_step_per_user(st, cfg, g), cfg, g)


@pytest.mark.parametrize("cfg,n_active", [
    (desk_cfg(), 3),
    (desk_cfg(K=100, m=240), 10),    # PAPER_CONFIG
])
def test_run_de_equal_gains_equal_rows(cfg, n_active):
    # run_de runs one row per distinct gain, so users that share a gain
    # share their rows bit for bit in every snapshot
    g = np.ones(n_active)
    for gdb in (-8.0, -6.0, -2.0, 2.0, 6.0):
        xi_w = C.noise_variance_for_snr(cfg, C.db_to_linear(gdb), g)
        trace = list(de.states(cfg.with_noise_variance(xi_w), g))
        for st in trace:
            for name in ("mi", "xi_h", "mu_c2v"):
                row = getattr(st, name)
                assert np.array_equal(row, np.full(n_active, row[0])), \
                    (gdb, st.iteration, name)


@pytest.mark.parametrize("gdb", [-6.0, 0.0, 6.0])
def test_run_de_mixed_gains_matches_per_user_chain(gdb):
    cfg = desk_cfg()
    g = np.array([1.0, 0.8, 1.0, 1.0, 0.8])
    cfg_w = cfg.with_noise_variance(
        C.noise_variance_for_snr(cfg, C.db_to_linear(gdb), g))
    trace = list(de.states(cfg_w, g))
    # the same recursion, one user at a time, under run_de's stop rule
    ref = [de.initial_de_state(cfg_w, g)]
    for _ in range(de._MAX_ITER):
        new = _mi_step_per_user(ref[-1], cfg_w, g)
        done = np.all(new.mi > de._MI_CONVERGED)
        stalled = np.max(np.abs(new.mi - ref[-1].mi)) < de._STALL_TOL
        ref.append(new)
        if done or stalled:
            break
    assert [st.iteration for st in trace] == [st.iteration for st in ref]
    assert 1 < len(trace) < de._MAX_ITER
    for got, want in zip(trace, ref):
        assert got.mi.shape == (len(g),)
        _check_against_oracle(got, want, cfg_w, g)


def test_run_de_steps_through_module_mi_step(monkeypatch):
    # one de.mi_step call per iteration, looked up on the module, so that a
    # wrapper installed from outside (the benchmark's tracer) sees each step
    calls = []
    step = de.mi_step

    def counted(*args):
        calls.append(args[0].iteration)
        return step(*args)

    monkeypatch.setattr(de, "mi_step", counted)
    cfg = desk_cfg()
    g = np.ones(3)
    trace = list(de.states(cfg.with_noise_variance(
        C.noise_variance_for_snr(cfg, C.db_to_linear(-6.0), g)), g))
    final = trace[-1]
    assert final.iteration > 1
    assert calls == list(range(final.iteration))
    assert len(trace) == final.iteration + 1


def test_mi_trajectory_non_decreasing():
    cfg = desk_cfg()
    g = np.ones(3)
    for gdb in (-10.0, -6.0, -2.0):
        xi_w = C.noise_variance_for_snr(cfg, C.db_to_linear(gdb), g)
        trace = list(de.states(cfg.with_noise_variance(xi_w), g))
        assert len(trace) <= 200        # DE ends well before _MAX_ITER
        mis = np.array([st.mi for st in trace])
        assert np.all(np.diff(mis, axis=0) >= -1e-8)


# ---------------------------------------------------------------------------
# threshold search

@pytest.fixture(scope="module")
def desk_threshold():
    cfg = desk_cfg()
    g = np.ones(3)
    return cfg, g, de.threshold_search(cfg, g, tol_db=0.05)


def test_threshold_bisection_contract(desk_threshold):
    cfg, g, th = desk_threshold
    assert np.isfinite(th)
    assert de.de_converges(cfg, g, C.db_to_linear(th + 0.05))
    assert not de.de_converges(cfg, g, C.db_to_linear(th - 0.05))


def test_threshold_pinned(desk_threshold):
    # exact bisection results; a change to the DE arithmetic moves them
    assert desk_threshold[2] == -7.7587890625
    cfg = desk_cfg(K=100, m=240)     # PAPER_CONFIG
    assert de.threshold_search(cfg, np.ones(10), tol_db=0.05) \
        == 1.0302734375


def test_threshold_monotone_in_snr(desk_threshold):
    cfg, g, th = desk_threshold
    flags = [de.de_converges(cfg, g, C.db_to_linear(th + d))
             for d in np.linspace(-2.0, 2.0, 20)]
    assert flags == sorted(flags)


def test_threshold_unreachable():
    # 100 actives: DE fails even at the 40 dB cap, so no SNR works
    cfg = desk_cfg()
    g = np.ones(100)
    assert de.threshold_search(cfg, g) == float("inf")


def test_threshold_floor(monkeypatch):
    # DE converging at every SNR tried gives no threshold: -inf, as the
    # 40 dB cap gives +inf, not the last bracket end (-70 dB, never tried)
    tried = []

    def always(cfg, gains, gamma):
        tried.append(gamma)
        return True

    monkeypatch.setattr(de, "de_converges", always)
    assert de.threshold_search(desk_cfg(), np.ones(3)) == float("-inf")
    assert 10.0 * math.log10(min(tried)) == pytest.approx(-60.0)


@pytest.mark.parametrize("tol_db", [math.nan, math.inf, 0.0, -0.05])
def test_threshold_rejects_bad_tol(monkeypatch, tol_db):
    # with nan the bisection never runs and returns the bracket's midpoint,
    # with 0 it never ends; the rule below converges from -7.3 dB up and
    # fails the test, not hangs it, if the search runs on
    tried = []

    def rule(cfg, gains, gamma):
        tried.append(gamma)
        assert len(tried) < 200
        return gamma >= 10.0 ** -0.73

    monkeypatch.setattr(de, "de_converges", rule)
    with pytest.raises(C.ConfigError, match="tol_db"):
        de.threshold_search(desk_cfg(), np.ones(3), tol_db=tol_db)


@pytest.mark.parametrize("gains", [[], [math.nan] * 3, [math.inf] * 3,
                                   [-1.0] * 3, [1e154] * 3, [10 ** 400] * 3,
                                   [[1.0, 1.0]], ["one"]],
                         ids=["empty", "nan", "inf", "negative", "1e154",
                              "int-beyond-float", "2-D", "str"])
@pytest.mark.parametrize("run", [
    lambda g: de.run_de(desk_cfg(), g),
    lambda g: de.de_converges(desk_cfg(), g, 1.0),
    lambda g: de.threshold_search(desk_cfg(), g),
    lambda g: de.write_de_trace(desk_cfg(), g, [0.0], os.devnull, 0.0),
], ids=["run_de", "de_converges", "threshold_search", "write_de_trace"])
def test_de_rejects_bad_active_gains(run, gains):
    # the library path checks gains as validate_config does: 1e154 raised
    # an overflow warning, nan gave an all-nan MI and [] numpy's zero-size
    # error; MAX_AMPLITUDE itself runs (test_config::test_amplitude_bound)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(C.ConfigError, match="^gains"):
            run(gains)


def _gh_j(s, nodes, weights):
    if s <= 0:
        return 0.0
    xi = s * s / 2.0 + s * nodes
    val = np.sum(weights * np.logaddexp(0.0, -xi))
    return 1.0 - val / math.sqrt(2 * math.pi) / math.log(2.0)


def test_single_user_threshold_vs_standalone_ldpc_de():
    # independent standalone code-threshold oracle built on Gauss-Hermite
    # quadrature; the large T makes residual self-interference negligible
    cfg = C.SystemConfig(K=1, p_a=1.0, m=240, code_rate=0.6, T=256000,
                         prior_mean=1.0, prior_var=1e-9)
    ed = C.racf_mean_degree(cfg.racf)
    lam = cfg.T * ed / cfg.N
    prof = de.check_degree_profile(cfg.N, cfg.m, cfg.d_v)
    nodes, weights = np.polynomial.hermite_e.hermegauss(96)

    # inverse J by interpolation in a dense table of the same quadrature,
    # kept to its strictly increasing part
    s_tab = np.linspace(0.0, 40.0, 40001)
    xi = s_tab[:, None] ** 2 / 2.0 + s_tab[:, None] * nodes
    j_tab = 1.0 - (np.logaddexp(0.0, -xi) @ weights
                   / math.sqrt(2 * math.pi) / math.log(2.0))
    j_tab[0] = 0.0
    keep = j_tab > np.maximum.accumulate(np.r_[-1.0, j_tab[:-1]])
    s_tab, j_tab = s_tab[keep], j_tab[keep]

    def jinv(I):
        return float(np.interp(I, j_tab, s_tab))

    def code_converges(mu_ch):
        mu_cv = 0.0
        for _ in range(2000):
            mu_vc = mu_ch + (cfg.d_v - 1) * mu_cv
            i_vc = _gh_j(math.sqrt(2 * mu_vc), nodes, weights)
            i_cv = sum(f * (1 - _gh_j(math.sqrt(dc - 1)
                                      * jinv(min(1 - i_vc, 1 - 1e-12)),
                                      nodes, weights))
                       for dc, f in zip(*prof))
            mu_cv = jinv(min(i_cv, 1 - 1e-12)) ** 2 / 2
            if _gh_j(math.sqrt(2 * (mu_ch + cfg.d_v * mu_cv)),
                     nodes, weights) > 1 - 1e-4:
                return True
        return False

    lo, hi = 1.0, 1e5
    while not code_converges(2 * lam / lo):
        lo /= 4
    while code_converges(2 * lam / hi):
        hi *= 4
    for _ in range(40):
        mid = math.sqrt(lo * hi)
        if code_converges(2 * lam / mid):
            lo = mid
        else:
            hi = mid
    gamma_oracle_db = 10 * math.log10(ed / math.sqrt(lo * hi))

    th = de.threshold_search(cfg, [1.0], tol_db=0.02)
    assert th == pytest.approx(gamma_oracle_db, abs=0.1)


def test_de_trace_csv(tmp_path):
    cfg = desk_cfg()
    out = tmp_path / "de.csv"
    de.write_de_trace(cfg, np.ones(3), [-4.0], out, threshold_db=-7.7)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "gamma_db,iteration,user,mi,xi_h,xi_sigma"
    first = lines[1].split(",")
    assert float(first[0]) == -4.0 and first[2] == "0"
    assert lines[-1].startswith("# gamma_th_db,")


# ---------------------------------------------------------------------------
# golden digests: DE output pinned bit for bit

def _trace_digest(trace):
    h = hashlib.sha256()
    for st in trace:
        h.update(np.int64(st.iteration).tobytes())
        for arr in (st.mi, st.xi_h, st.mu_c2v, st.xi_s):
            h.update(np.asarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


_DESK = desk_cfg()
_PAPER = desk_cfg(K=100, m=240)

# the kernels every golden digest in tests/ was recorded with: the numerics
# fingerprint of tests/numerics.py and the numpy version. numpy 2.4.6 with
# SIMD found X86_V3 X86_V4 AVX512_ICL AVX512_SPR reads 594736f351d102d4;
# at X86_V3 alone (NPY_ENABLE_CPU_FEATURES="X86_V3") it reads
# 1f9ffc6f58ecf6f4, and the digests do not hold
NUMERICS_FINGERPRINT = "594736f351d102d4"
NUMERICS_NUMPY = "2.4.6"

_GOLDEN_POINTS = [
    (_DESK, np.ones(3), -8.5, "1ee4bc1261863de3"),
    (_DESK, np.ones(3), -7.0, "55360da8d7bc59a5"),
    (_DESK, np.ones(3), 2.0, "cebd1c0cdc5ced85"),
    (_PAPER, np.ones(10), 0.0, "b49124579b632d1a"),
    (_PAPER, np.ones(10), 1.0, "20761853dafcd17c"),
    (_PAPER, np.ones(10), 6.0, "17780ff0ef8030a9"),
    (_DESK, np.array([1.0, 0.8, 1.0, 1.0, 0.8]), 0.0, "963c1e7661aae285"),
]
_GOLDEN_IDS = ["desk-8.5", "desk-7", "desk+2", "paper0", "paper+1",
               "paper+6", "mixed0"]


def test_numerics_fingerprint():
    # other kernels fail here, naming what they are, before the digests
    # below fail without saying why
    assert numerics.fingerprint() == NUMERICS_FINGERPRINT, (
        f"{numerics.describe()}; the golden digests hold the bits of "
        f"fingerprint {NUMERICS_FINGERPRINT} with numpy {NUMERICS_NUMPY}")


@pytest.mark.parametrize("cfg,gains,gdb,digest", _GOLDEN_POINTS,
                         ids=_GOLDEN_IDS)
def test_run_de_golden_digest(cfg, gains, gdb, digest):
    # every snapshot's bytes; a change to the DE arithmetic, its evaluation
    # order or its stop rule moves them (recorded with the kernels of
    # NUMERICS_FINGERPRINT and scipy 1.17)
    cfg_w = cfg.with_noise_variance(
        C.noise_variance_for_snr(cfg, C.db_to_linear(gdb), gains))
    trace = list(de.states(cfg_w, gains))
    assert _trace_digest(trace) == digest


@pytest.mark.parametrize("cfg,gains,gdb,digest", _GOLDEN_POINTS,
                         ids=_GOLDEN_IDS)
def test_check_table_keeps_the_composed_trajectory(cfg, gains, gdb, digest,
                                                   monkeypatch):
    # the tabled check update takes the DE through as many states as the
    # composed form did, with MI within 1e-6 (measured 1.8e-8)
    cfg_w = cfg.with_noise_variance(
        C.noise_variance_for_snr(cfg, C.db_to_linear(gdb), gains))
    tabled = list(de.states(cfg_w, gains))
    monkeypatch.setattr(de, "l2", composed_l2)
    composed = list(de.states(cfg_w, gains))
    assert len(tabled) == len(composed)
    assert max(np.abs(a.mi - b.mi).max()
               for a, b in zip(tabled, composed)) <= 1e-6


@pytest.mark.parametrize("cfg,gains,threshold_db", [
    (_DESK, np.ones(3), -7.755126953125),
    (_PAPER, np.ones(10), 1.019287109375),
], ids=["desk", "paper"])
def test_threshold_fine_tolerance_pinned(cfg, gains, threshold_db):
    # the composed check update's bisection results at tol_db = 0.01, which
    # the tabled one reaches too
    assert de.threshold_search(cfg, gains, tol_db=0.01) == threshold_db


@pytest.mark.parametrize("cfg,gains,gdb", [
    (_DESK, np.ones(3), -7.0),
    (_PAPER, np.ones(10), 1.0),
    (_DESK, np.array([1.0, 0.8, 1.0, 1.0, 0.8]), 0.0),
], ids=["desk-7", "paper+1", "mixed0"])
def test_run_de_is_the_last_state(cfg, gains, gdb, monkeypatch):
    # run_de runs de.states to its end, one module mi_step per step, and
    # returns its last state bit for bit
    cfg_w = cfg.with_noise_variance(
        C.noise_variance_for_snr(cfg, C.db_to_linear(gdb), gains))
    trace = list(de.states(cfg_w, gains))
    calls = []
    step = de.mi_step

    def counted(*args):
        calls.append(args[0].iteration)
        return step(*args)

    monkeypatch.setattr(de, "mi_step", counted)
    final = de.run_de(cfg_w, gains)
    assert calls == list(range(len(trace) - 1))
    assert _trace_digest([final]) == _trace_digest(trace[-1:])


def test_mi_step_golden_digest():
    # a direct call on per-user rows that share a gain
    cfg = desk_cfg(noise_variance=0.3)
    st = de.DeState(mi=np.array([0.1, 0.5, 0.9, 0.5]),
                    xi_h=np.array([0.5, 0.05, 1e-4, 0.2]),
                    mu_c2v=np.array([0.2, 2.0, 9.0, 1.0]), xi_s=0.4)
    got = de.mi_step(st, cfg, np.ones(4))
    assert _trace_digest([got]) == "a8fac5d2a22ecdbf"


def test_de_trace_csv_golden_digest(tmp_path):
    out = tmp_path / "de.csv"
    de.write_de_trace(_DESK, np.ones(3), [-8.5, -4.0], out,
                      threshold_db=-7.7587890625)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()[:16]
    assert digest == "e44593fc53ddb932"
