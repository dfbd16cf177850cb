import dataclasses
import gc
import json
import multiprocessing
import weakref
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


@pytest.mark.parametrize("grid", [
    ("1",), ("-5",), "5", ((0.0,),), (True,), (np.True_,), (10 ** 400,),
    [None]], ids=["str", "negative-str", "bare-str", "nested", "bool",
                  "np.bool_", "10**400", "None"])
def test_snr_grid_checked_before_conversion(grid):
    # numpy read the strings and the nested grid as numbers, True as 1.0,
    # and 10**400 raised OverflowError
    with pytest.raises(C.ConfigError, match=r"^snr_db_grid\b"):
        small_spec(snr_db_grid=grid).validate()


def test_snr_grid_may_be_a_list():
    small_spec(snr_db_grid=[-2, 2.0]).validate()


def test_workers_bounded():
    # validation only: no pool is started at these values
    assert H.MAX_WORKERS >= 8
    small_spec(workers=H.MAX_WORKERS).validate()
    for workers in (H.MAX_WORKERS + 1, 10 ** 6):
        with pytest.raises(C.ConfigError, match=r"^workers\b"):
            small_spec(workers=workers).validate()


def test_pool_has_no_more_processes_than_tasks(monkeypatch):
    started = []

    class InProcessPool:
        """Records the process count asked for; runs the tasks here."""

        def __init__(self, processes, initializer, initargs):
            started.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks):
            return [fn(*task) for task in tasks]

    monkeypatch.setattr(H.multiprocessing, "Pool", InProcessPool)
    spec = small_spec(trials=2, snr_db_grid=(0.0,), workers=8)
    H.monte_carlo(spec)
    assert started == [2]
    # one task runs in this process
    H.monte_carlo(dataclasses.replace(spec, trials=1))
    assert started == [2]


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


def test_run_trial_rejects_unknown_mode():
    # a misspelt mode ran a grant-free decode
    cfg = small_cfg()
    pc = L.construct_parity_check(cfg.m, cfg.code_rate, cfg.d_v,
                                  cfg.system_seed)
    graph = P.build_access_graph(cfg)
    with pytest.raises(C.ConfigError, match="mode 'genie'"):
        H.run_trial(cfg, pc, graph, 0, mode="genie")


def test_genie_noiseless_trials():
    # one active user; T dense enough that almost every symbol is observed
    cfg = small_cfg(K=10, p_a=0.1, T=6400, noise_variance=1e-12)
    pc = L.construct_parity_check(cfg.m, cfg.code_rate, cfg.d_v,
                                  cfg.system_seed)
    graph = P.build_access_graph(cfg)
    for trial in range(10):
        truth, out = H.run_trial(cfg, pc, graph, trial, mode="genie-csi")
        rec = H.trial_stats(cfg, truth, out)
        # one active user, no errors
        assert rec["active"].sum() == 1 and not rec["bit_errors"].any()


def test_trial_stats_accounting():
    cfg = small_cfg()
    pc = L.construct_parity_check(cfg.m, cfg.code_rate, cfg.d_v,
                                  cfg.system_seed)
    graph = P.build_access_graph(cfg)
    truth, out = H.run_trial(cfg, pc, graph, 0)
    rec = H.trial_stats(cfg, truth, out)
    active, declared, errors = rec["active"], rec["declared"], rec["bit_errors"]
    assert active.shape == declared.shape == errors.shape == (cfg.K,)
    n_active = int(active.sum())
    misses = int((active & ~declared).sum())
    assert misses <= np.count_nonzero(errors) <= n_active  # misses are errors
    assert 0 <= int((declared & ~active).sum()) <= cfg.K - n_active
    assert not errors[~active].any()
    assert np.all(errors[active & ~declared] == cfg.m)
    assert errors.sum() <= n_active * cfg.m
    assert rec["iterations"] == out.iterations
    assert rec["stop"] == out.converged


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


def _point_from_counts(snr_db, trials, counts, iter_sum):
    """The PointResult that per-trial counters summed over a point give:
    counts is (active blocks, block errors, bit errors, info bits, misses,
    false alarms, inactive users), as _trial_stats_per_user returns."""
    (n_active, block_err, bit_err, n_bits, misses, false_alarms,
     n_inactive) = counts
    return H.PointResult(
        snr_db, trials, H._rate(block_err, n_active), H._rate(bit_err, n_bits),
        H._rate(misses, n_active), H._rate(false_alarms, n_inactive),
        iter_sum / trials, H.wilson_halfwidth(block_err, n_active))


def _assert_same_point(got, want):
    """Equal fields, NaN equal to NaN; every field JSON-dumps as a number."""
    np.testing.assert_equal(dataclasses.astuple(got),
                            dataclasses.astuple(want))
    assert type(got.trials) is int
    json.dumps(dataclasses.asdict(got))


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

    def point(truth, out):
        # one trial's record through the reduction monte_carlo uses
        rec = H.trial_stats(cfg, truth, out)
        return H._point_result(0.0, rec[None], cfg.m)

    def outcome(dec, bits):
        return SimpleNamespace(declared=dec, decoded_bits=bits, iterations=7,
                               converged="stalled")

    for dec, bits in cases:
        out = outcome(dec, bits)
        _assert_same_point(point(truth, out), _point_from_counts(
            0.0, 1, _trial_stats_per_user(cfg, truth, out), 7))
    out = outcome(declared, decoded)
    rec = H.trial_stats(cfg, truth, out)
    assert rec["bit_errors"].tolist() == [0, 3, 10, 1, 0, 0, 0, 0]
    assert rec["iterations"] == 7 and rec["stop"] == "stalled"
    _assert_same_point(point(truth, out),
                       _point_from_counts(0.0, 1, (5, 3, 14, 50, 1, 1, 3), 7))
    none = SimpleNamespace(active=np.zeros(8, bool),
                           info_bits=np.zeros_like(info))
    out = outcome(np.zeros(8, bool), info)
    _assert_same_point(point(none, out),
                       _point_from_counts(0.0, 1, (0, 0, 0, 0, 0, 0, 8), 7))


@pytest.mark.parametrize("mode", H.MODES)
def test_records_are_the_trials_outcomes(mode):
    spec = small_spec(trials=4, mode=mode)
    res = H.monte_carlo(spec)
    assert res.records.shape == (len(spec.snr_db_grid), spec.trials)
    base = spec.base
    pc = L.construct_parity_check(base.m, base.code_rate, base.d_v,
                                  base.system_seed)
    graph = P.build_access_graph(base)
    for cfg, row, p in zip(H._point_configs(base, spec.snr_db_grid),
                           res.records, res.points):
        counts, iter_sum = np.zeros(7, dtype=int), 0
        for trial, rec in enumerate(row):
            truth, out = H.run_trial(cfg, pc, graph, trial, mode)
            assert rec["iterations"] == out.iterations
            assert rec["stop"] == out.converged
            assert np.array_equal(rec["active"], truth.active)
            assert np.array_equal(rec["declared"], out.declared)
            counts += _trial_stats_per_user(cfg, truth, out)
            iter_sum += out.iterations
        _assert_same_point(p, _point_from_counts(p.snr_db, spec.trials,
                                                 tuple(counts), iter_sum))


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


def test_serial_sweep_holds_no_graph_after_it_returns(monkeypatch):
    # the serial path kept (pc, graph, mode) in module state until the
    # next sweep; only a pool's initializer may set it
    refs = []

    def build(cfg):
        graph = P.build_access_graph(cfg)
        refs.append(weakref.ref(graph))
        return graph

    monkeypatch.setattr(H, "build_access_graph", build)
    H.monte_carlo(small_spec(trials=1, snr_db_grid=(0.0,)))
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None


def test_workers_do_not_change_results(tmp_path):
    # two points: each point's config must reach the pool's workers
    spec1 = small_spec(trials=8, snr_db_grid=(-4.0, 4.0))
    spec2 = dataclasses.replace(spec1, workers=2)
    a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
    r1, r2 = H.monte_carlo(spec1), H.monte_carlo(spec2)
    H.snr_sweep_report(r1, a)
    H.snr_sweep_report(r2, b)
    assert a.read_bytes() == b.read_bytes()
    assert np.array_equal(r1.records, r2.records)    # stop reasons included
    # the pool is gone once monte_carlo returns
    assert multiprocessing.active_children() == []


def test_master_seed_overrides_cfg_seed():
    spec = small_spec()             # cfg at system_seed 3, master_seed 5
    assert spec.base == dataclasses.replace(spec.cfg, system_seed=5)


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


def test_attach_de_follows_the_result_points():
    # DE runs at the result's points, whatever grid the spec holds
    spec = small_spec(trials=1, snr_db_grid=(-6.0, 0.0, 6.0))
    res = H.monte_carlo(spec)
    other = dataclasses.replace(spec, snr_db_grid=(2.0,))
    got = H.attach_de(res, other).de_mi
    assert len(got) == len(res.points)
    assert got == H.attach_de(res, spec).de_mi


def test_profiles_are_valid():
    C.validate_config(H.DESK_CONFIG)
    C.validate_config(H.PAPER_CONFIG)
    assert H.PAPER_CONFIG.N == 400
    assert H.PAPER_CONFIG.n_active == 10
    assert H.DESK_CONFIG.n_active == 3
    assert len(H.expected_active_gains(H.DESK_CONFIG)) == 3
