import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from gfrma import config as C
from gfrma import harness as H
from gfrma import ldpc as L
from gfrma import pattern as P


def small_cfg(**kw):
    base = dict(K=6, p_a=0.3, m=120, code_rate=0.6, T=1500,
                noise_variance=0.1, system_seed=3)
    base.update(kw)
    return C.SystemConfig(**base)


def small_spec(**kw):
    base = dict(cfg=small_cfg(), snr_db_grid=(-2.0, 2.0), trials=10,
                master_seed=5)
    base.update(kw)
    return H.ExperimentSpec(**base)


def test_spec_validation():
    small_spec().validate()
    with pytest.raises(C.ConfigError, match="trials"):
        small_spec(trials=0).validate()
    with pytest.raises(ValueError, match="non-empty"):
        small_spec(snr_db_grid=()).validate()
    with pytest.raises(C.ConfigError, match="mode"):
        small_spec(mode="psychic").validate()
    for workers in (0, -3, 1.5, True, np.True_):
        with pytest.raises(C.ConfigError, match="workers"):
            small_spec(workers=workers).validate()
    for trials in (1.5, True, np.True_):
        with pytest.raises(C.ConfigError, match="trials"):
            small_spec(trials=trials).validate()
    # NaN, and dB values whose linear SNR overflows to inf or underflows to 0
    for grid in ((0.0, float("nan")), (4000.0,), (-4000.0,)):
        with pytest.raises(ValueError, match="finite"):
            small_spec(snr_db_grid=grid).validate()
    for seed in (1.5, float("nan"), "1", -1, True, np.True_):
        with pytest.raises(C.ConfigError, match="master_seed"):
            small_spec(master_seed=seed).validate()


def test_run_trial_deterministic():
    cfg = small_cfg()
    pc = L.construct_parity_check(cfg.m, cfg.code_rate, cfg.d_v,
                                  cfg.system_seed)
    graph = P.build_access_graph(cfg)
    t1, o1 = H.run_trial(cfg, pc, graph, 4)
    t2, o2 = H.run_trial(cfg, pc, graph, 4)
    assert np.array_equal(t1.active, t2.active)
    assert np.array_equal(t1.noise, t2.noise)
    assert np.array_equal(o1.q, o2.q)
    assert np.array_equal(o1.decoded_bits, o2.decoded_bits)
    assert o1.iterations == o2.iterations
    # different trial index gives different noise
    t3, _ = H.run_trial(cfg, pc, graph, 5)
    assert not np.array_equal(t1.noise, t3.noise)


def test_genie_noiseless_trials():
    # one active user; T dense enough that almost every symbol is observed
    cfg = small_cfg(K=10, p_a=0.1, T=6400, noise_variance=1e-12)
    pc = L.construct_parity_check(cfg.m, cfg.code_rate, cfg.d_v,
                                  cfg.system_seed)
    graph = P.build_access_graph(cfg)
    for trial in range(10):
        truth, out = H.run_trial(cfg, pc, graph, trial, mode="genie-csi")
        stats = H.trial_stats(cfg, truth, out)
        assert stats[0] == 1 and stats[1] == 0      # one active, no errors


def test_trial_stats_accounting():
    cfg = small_cfg()
    pc = L.construct_parity_check(cfg.m, cfg.code_rate, cfg.d_v,
                                  cfg.system_seed)
    graph = P.build_access_graph(cfg)
    truth, out = H.run_trial(cfg, pc, graph, 0)
    (n_active, block_err, bit_err, n_bits, misses, false_alarms,
     n_inactive) = H.trial_stats(cfg, truth, out)
    assert n_active + n_inactive == cfg.K
    assert n_bits == n_active * cfg.m
    assert misses <= block_err <= n_active        # misses are block errors
    assert 0 <= false_alarms <= n_inactive
    assert bit_err <= n_bits


def _trial_stats_per_user(cfg, truth, outcome):
    """The per-user loop trial_stats replaced; kept as its oracle."""
    active = truth.active
    n_active = int(active.sum())
    declared = outcome.declared
    ok_bits = outcome.decoded_bits == truth.info_bits
    block_err = 0
    bit_err = 0
    for k in np.flatnonzero(active):
        good = declared[k] and bool(ok_bits[k].all())
        block_err += not good
        if declared[k]:
            bit_err += int((~ok_bits[k]).sum())
        else:
            bit_err += cfg.m
    misses = int((active & ~declared).sum())
    false_alarms = int((~active & declared).sum())
    return (n_active, block_err, bit_err, n_active * cfg.m, misses,
            false_alarms, int((~active).sum()))


def test_trial_stats_matches_per_user_loop():
    cfg = small_cfg(K=8, m=10)
    rng = np.random.default_rng(4)
    info = rng.integers(0, 2, (8, 10)).astype(np.uint8)
    active = np.array([1, 1, 1, 1, 0, 0, 0, 1], dtype=bool)
    info[~active] = 0
    decoded = info.copy()
    decoded[1, [0, 3, 7]] ^= 1      # declared active user, 3 wrong bits
    decoded[2] ^= 1                 # undeclared active user, bits ignored
    decoded[3, 4] ^= 1              # declared active user, 1 wrong bit
    decoded[5, 2] = 1               # false alarm with a nonzero word
    declared = np.array([1, 1, 0, 1, 0, 1, 0, 1], dtype=bool)
    truth = SimpleNamespace(active=active, info_bits=info)
    cases = [(declared, decoded), (np.zeros(8, bool), decoded),
             (np.ones(8, bool), info)]
    for dec, bits in cases:
        out = SimpleNamespace(declared=dec, decoded_bits=bits)
        got = H.trial_stats(cfg, truth, out)
        assert got == _trial_stats_per_user(cfg, truth, out)
        assert all(type(v) is int for v in got)
    out = SimpleNamespace(declared=declared, decoded_bits=decoded)
    assert H.trial_stats(cfg, truth, out) == (5, 3, 14, 50, 1, 1, 3)
    none = SimpleNamespace(active=np.zeros(8, bool),
                           info_bits=np.zeros_like(info))
    out = SimpleNamespace(declared=np.zeros(8, bool), decoded_bits=info)
    assert H.trial_stats(cfg, none, out) == (0, 0, 0, 0, 0, 0, 8)


def test_wilson_halfwidth():
    assert np.isnan(H.wilson_halfwidth(0, 0))
    assert H.wilson_halfwidth(0, 10) > 0
    # sqrt(n) scaling: quadrupling n roughly halves the width
    w1 = H.wilson_halfwidth(50, 100)
    w4 = H.wilson_halfwidth(200, 400)
    assert w4 == pytest.approx(w1 / 2, rel=0.2)


def test_monte_carlo_zero_active_census():
    cfg = small_cfg(activity_mode="bernoulli", p_a=1e-12)
    res = H.monte_carlo(small_spec(cfg=cfg, snr_db_grid=(0.0,), trials=5))
    (p,) = res.points
    assert np.isnan(p.bler) and np.isnan(p.miss_rate)
    assert 0.0 <= p.false_alarm_rate <= 1.0


def test_monte_carlo_rates_in_range():
    res = H.monte_carlo(small_spec())
    for p in res.points:
        assert 0.0 <= p.bler <= 1.0
        assert 0.0 <= p.ber <= 1.0
        assert 0.0 <= p.miss_rate <= p.bler
        assert 0.0 <= p.false_alarm_rate <= 1.0
        assert 1.0 <= p.mean_iterations <= small_cfg().max_iterations


def test_sweep_csv_schema_and_determinism(tmp_path):
    spec = small_spec(trials=6)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    H.snr_sweep_report(H.monte_carlo(spec), a)
    H.snr_sweep_report(H.monte_carlo(spec), b)
    text = a.read_text()
    lines = text.split("\n")
    assert lines[0] == ("snr_db,trials,bler,ber,miss_rate,false_alarm_rate,"
                        "mean_iterations,bler_ci95")
    assert len(lines) == 2 + len(spec.snr_db_grid)   # header + rows + EOF
    assert "\r" not in text
    assert a.read_bytes() == b.read_bytes()


def test_workers_do_not_change_results(tmp_path):
    # two points: each point's config must reach the pool's workers
    spec1 = small_spec(trials=8, snr_db_grid=(-4.0, 4.0))
    spec2 = dataclasses.replace(spec1, workers=2)
    a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
    H.snr_sweep_report(H.monte_carlo(spec1), a)
    H.snr_sweep_report(H.monte_carlo(spec2), b)
    assert a.read_bytes() == b.read_bytes()


def test_attach_de_and_report(tmp_path):
    spec = small_spec(trials=4, snr_db_grid=(-6.0, 0.0, 6.0))
    res = H.attach_de(H.monte_carlo(spec), spec)
    assert len(res.de_mi) == 3
    assert all(0.0 <= v <= 1.0 for v in res.de_mi)
    assert res.de_mi == sorted(res.de_mi)           # non-decreasing in SNR
    out = tmp_path / "de.csv"
    H.snr_sweep_report(res, out)
    lines = out.read_text().strip().split("\n")
    assert lines[0].endswith(",de_mi")
    assert len(lines[1].split(",")) == 9


def test_profiles_are_valid():
    C.validate_config(H.DESK_CONFIG)
    C.validate_config(H.PAPER_CONFIG)
    assert H.PAPER_CONFIG.N == 400
    assert int(np.ceil(H.PAPER_CONFIG.K * H.PAPER_CONFIG.p_a)) == 10
    assert len(H.expected_active_gains(H.DESK_CONFIG)) == 3
