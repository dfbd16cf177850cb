import dataclasses

import numpy as np
import pytest

from gfrma import config as C
from gfrma import ldpc as L
from gfrma import pattern as P
from gfrma import phy


def small_cfg(**kw):
    base = dict(K=10, p_a=0.3, m=12, code_rate=0.6, T=300, system_seed=21)
    base.update(kw)
    return C.SystemConfig(**base)


def test_activity_bernoulli_extremes():
    cfg = small_cfg(activity_mode="bernoulli", p_a=1.0)
    assert phy.sample_activity(cfg, 1).all()
    cfg = small_cfg(activity_mode="bernoulli", p_a=1e-300)
    assert not phy.sample_activity(cfg, 1).any()


def test_activity_fixed_count():
    cfg = small_cfg(K=100, p_a=0.1)
    for seed in range(20):
        assert phy.sample_activity(cfg, seed).sum() == 10


def test_activity_deterministic():
    cfg = small_cfg()
    a = phy.sample_activity(cfg, 55)
    b = phy.sample_activity(cfg, 55)
    assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def setup():
    cfg = small_cfg()
    pc = L.construct_parity_check(cfg.m, cfg.code_rate, cfg.d_v,
                                  cfg.system_seed)
    graph = P.build_access_graph(cfg)
    return cfg, pc, graph


def test_superpose_matches_per_re_sums(setup):
    cfg, pc, graph = setup
    truth = phy.make_ground_truth(cfg, pc, trial_index=0)
    y = phy.superpose(cfg, truth, graph)
    assert len(y) == cfg.T
    for t in (0, 5, 100):
        acc = 0.0
        for k in np.flatnonzero(truth.active):
            d = P.derive_draw(cfg.system_seed, k, t, cfg.racf, cfg.N)
            acc += truth.gains[k] * truth.symbols[k, list(d.symbols)].sum()
        assert y[t] == pytest.approx(acc + truth.noise[t], abs=1e-12)


def test_inactive_users_silent(setup):
    cfg, pc, graph = setup
    truth = phy.make_ground_truth(cfg, pc, trial_index=1)
    assert np.all(truth.gains[~truth.active] == 0)
    assert not truth.info_bits[~truth.active].any()
    assert not truth.symbols[~truth.active].any()
    # zeroing all actives and noise gives an all-zero block
    truth2 = dataclasses.replace(
        truth, gains=np.zeros(cfg.K), noise=np.zeros(cfg.T))
    assert not phy.superpose(cfg, truth2, graph).any()


@pytest.mark.parametrize("mode,p_a", [
    ("fixed", 0.3), ("bernoulli", 0.5), ("bernoulli", 1e-300)])
def test_ground_truth_matches_per_user_draws(setup, mode, p_a):
    # the bits of each active user, drawn and encoded one user at a time
    _, pc, _ = setup
    cfg = small_cfg(activity_mode=mode, p_a=p_a)
    for trial in range(5):
        truth = phy.make_ground_truth(cfg, pc, trial)
        seed = P.mix(cfg.system_seed, trial)
        rng = np.random.default_rng(P.mix(seed, phy._TAG_BITS))
        info = np.zeros((cfg.K, cfg.m), dtype=np.uint8)
        symbols = np.zeros((cfg.K, cfg.N))
        for k in np.flatnonzero(truth.active):
            info[k] = rng.integers(0, 2, cfg.m)
            symbols[k] = L.bits_to_symbols(L.encode(info[k], pc))
        assert np.array_equal(truth.info_bits, info)
        assert np.array_equal(truth.symbols, symbols)


def test_superposition_linearity(setup):
    cfg, pc, graph = setup
    truth = phy.make_ground_truth(cfg, pc, trial_index=2)
    truth = dataclasses.replace(truth, noise=np.zeros(cfg.T))
    y_all = phy.superpose(cfg, truth, graph)
    acc = np.zeros(cfg.T)
    for k in np.flatnonzero(truth.active):
        solo = dataclasses.replace(
            truth, gains=np.where(np.arange(cfg.K) == k, truth.gains, 0.0))
        acc += phy.superpose(cfg, solo, graph)
    assert np.allclose(y_all, acc, atol=1e-12)


def test_empirical_signal_power():
    # per-RE signal power ~= sum over actives of E[d] h^2, within 3 sigma
    cfg = small_cfg(K=6, p_a=0.5, T=2000, noise_variance=1e-12)
    pc = L.construct_parity_check(cfg.m, cfg.code_rate, cfg.d_v, 3)
    graph = P.build_access_graph(cfg)
    powers = []
    expected = []
    for trial in range(20):
        truth = phy.make_ground_truth(cfg, pc, trial)
        truth = dataclasses.replace(truth, noise=np.zeros(cfg.T))
        y = phy.superpose(cfg, truth, graph)
        powers.append(np.mean(y * y))
        ed = C.racf_mean_degree(cfg.racf)
        expected.append(ed * np.sum(truth.gains ** 2))
    diff = np.mean(powers) - np.mean(expected)
    # rough scale of the estimator's std over T*trials REs
    sem = np.std(powers) / np.sqrt(len(powers))
    assert abs(diff) < 3 * max(sem, 0.01)


def test_noise_statistics():
    cfg = small_cfg(T=20000, noise_variance=0.5)
    pc = L.construct_parity_check(cfg.m, cfg.code_rate, cfg.d_v, 3)
    truth = phy.make_ground_truth(cfg, pc, 0)
    assert abs(truth.noise.mean()) < 3 * np.sqrt(0.5 / cfg.T)
    assert abs(truth.noise.var() - 0.5) < 0.05
