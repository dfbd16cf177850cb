"""End-to-end acceptance gate.

One test per criterion; each prints a single summary line. The Monte Carlo
sweeps reuse module-scoped fixtures so the expensive desk-scale runs happen
once.
"""
import dataclasses
import math
import os

import numpy as np
import pytest
from scipy import stats

from gfrma import de
from gfrma import harness as H
from gfrma import ldpc as L
from gfrma import pattern as P

import oracles as O

DESK = H.DESK_CONFIG
SWEEP_GRID = (-7.5, -7.0, -6.5, -6.0, -5.5, -5.0)
SWEEP_TRIALS = 50
# criterion 9 holds results byte-identical across worker counts
WORKERS = min(2, os.cpu_count() or 1)


@pytest.fixture(scope="module")
def desk_threshold_db():
    return de.threshold_search(DESK, H.expected_active_gains(DESK),
                               tol_db=0.05)


def _sweep(mode):
    spec = H.ExperimentSpec(DESK, SWEEP_GRID, trials=SWEEP_TRIALS,
                            mode=mode, master_seed=1, workers=WORKERS)
    return H.monte_carlo(spec).points


@pytest.fixture(scope="module")
def grant_free_sweep():
    return _sweep("grant-free")


@pytest.fixture(scope="module")
def registration_sweep():
    return _sweep("registration")


def _crossing_snr(points, level):
    """Interpolated SNR where BLER first drops below `level`."""
    snr = np.array([p.snr_db for p in points])
    bler = np.array([p.bler for p in points])
    below = np.flatnonzero(bler < level)
    if len(below) == 0:
        return float("inf")
    i = below[0]
    if i == 0:
        return snr[0]
    # linear interpolation between the straddling grid points
    f = (bler[i - 1] - level) / (bler[i - 1] - bler[i])
    return float(snr[i - 1] + f * (snr[i] - snr[i - 1]))


def test_criterion_01_formula_exactness():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        mu_h = rng.uniform(0.2, 2.0)
        xi_h = rng.uniform(0.0, 2.0)
        y = rng.normal(0, 2)
        mu_i = rng.normal(0, 1)
        xi_i = rng.uniform(0.0, 3.0)
        xi_w = rng.uniform(0.1, 2.0)
        # channel-to-symbol LLR
        ref = 2.0 * mu_h * (y - mu_i) / (xi_h + xi_i + xi_w)
        ref = max(min(ref, 30.0), -30.0)
        assert abs(O.ren_to_vn(mu_h, xi_h, y, mu_i, xi_i, xi_w) - ref) < 1e-12
        # symbol total
        msgs = rng.normal(0, 3, rng.integers(0, 6))
        assert abs(O.vn_total(msgs) - math.fsum(msgs)) < 1e-12
        # per-edge channel estimate in mean/variance form, then fused
        Lv = rng.uniform(-8, 8)
        w, wm = O.channel_edge_estimate(Lv, y, mu_i, xi_i, xi_w)
        th = math.tanh(Lv / 2.0)
        if abs(th) > 1e-9:
            mu_est = (y - mu_i) / th
            xi_est = (xi_i + xi_w) / (th * th)
            assert abs(w - 1.0 / xi_est) < 1e-12
            assert abs(wm - mu_est / xi_est) < 1e-12
        mu_f, xi_f = O.usn_combine([(w, wm)], 1.0, 10.0)
        prec = w + 0.1
        assert abs(xi_f - 1.0 / prec) < 1e-12
        assert abs(mu_f - (wm + 0.1) / prec) < 1e-12
        # activity posterior against density-based evaluation
        p_a = rng.uniform(0.05, 0.95)
        pm, pv = rng.uniform(0.5, 2.0), rng.uniform(0.5, 5.0)
        mh, xh = rng.normal(0.5, 1.0), rng.uniform(0.1, 5.0)
        num = p_a * stats.norm.pdf(mh, pm, math.sqrt(pv))
        den = num + (1 - p_a) * stats.norm.pdf(mh, 0.0, math.sqrt(xh))
        ref_q = min(max(num / den, 1e-12), 1 - 1e-12)
        assert abs(O.activity_posterior(mh, xh, pm, pv, p_a) - ref_q) < 1e-12
    print("criterion 1 PASS: scalar formulas exact on 1000 random inputs")


def test_criterion_02_oracle_equivalence():
    import itertools
    rng = np.random.default_rng(102)
    # enumeration oracle for the interference moments
    llrs = [0.0, 1.0, -1.0, np.inf, -np.inf]
    for _ in range(200):
        n = rng.integers(1, 4)
        contribs = [(float(rng.choice([0.0, 0.5, 1.0])),
                     float(rng.uniform(0.2, 2.0)), 0.0,
                     float(llrs[rng.integers(len(llrs))]))
                    for _ in range(n)]
        terms = []
        for q, mh, _, lv in contribs:
            p1 = (1.0 / (1.0 + math.exp(-lv)) if np.isfinite(lv)
                  else float(lv > 0))
            terms.append([(q * p1, mh), (q * (1 - p1), -mh), (1 - q, 0.0)])
        mean = second = 0.0
        for combo in itertools.product(*terms):
            p = np.prod([c[0] for c in combo])
            s = sum(c[1] for c in combo)
            mean += p * s
            second += p * s * s
        mu, var = O.interference_moments(contribs)
        assert abs(mu - mean) < 1e-12
        assert abs(var - (second - mean * mean)) < 1e-12
    # grid oracle for the Gaussian fusion
    grid = np.linspace(-30, 30, 600001)
    dx = grid[1] - grid[0]
    for _ in range(100):
        n = rng.integers(0, 5)
        means = rng.normal(0.5, 1.0, n)
        vs = rng.uniform(0.3, 4.0, n)
        pm, pv = rng.normal(1.0, 0.5), rng.uniform(0.5, 8.0)
        mu, xi = O.usn_combine([(1 / v, m / v) for m, v in zip(means, vs)],
                               pm, pv)
        logpdf = -(grid - pm) ** 2 / (2 * pv)
        for m, v in zip(means, vs):
            logpdf = logpdf - (grid - m) ** 2 / (2 * v)
        pdf = np.exp(logpdf - logpdf.max())
        pdf /= pdf.sum() * dx
        mean_ref = np.sum(grid * pdf) * dx
        var_ref = np.sum((grid - mean_ref) ** 2 * pdf) * dx
        assert abs(mu - mean_ref) < 1e-6 and abs(xi - var_ref) < 1e-6
    print("criterion 2 PASS: enumeration and grid oracles match")


def test_criterion_03_genie_noiseless():
    cfg = dataclasses.replace(DESK, K=10, p_a=0.1, noise_variance=1e-12)
    pc = L.construct_parity_check(cfg.m, cfg.code_rate, cfg.d_v,
                                  cfg.system_seed)
    graph = P.build_access_graph(cfg)
    block_errors = 0
    for trial in range(100):
        truth, out = H.run_trial(cfg, pc, graph, trial, mode="genie-csi")
        rec = H.trial_stats(cfg, truth, out)
        block_errors += int(np.count_nonzero(rec["bit_errors"]))
    assert block_errors == 0
    print("criterion 3 PASS: genie-csi noiseless BLER = 0 over 100 trials")


def test_criterion_04_de_vs_monte_carlo(grant_free_sweep, desk_threshold_db):
    crossing = _crossing_snr(grant_free_sweep, 0.5)
    gap = crossing - desk_threshold_db
    assert abs(gap) <= 1.5
    print(f"criterion 4 PASS: BLER-0.5 crossing {crossing:.2f} dB vs "
          f"threshold {desk_threshold_db:.2f} dB (gap {gap:+.2f} dB)")


def test_criterion_05_grant_free_vs_registration(grant_free_sweep,
                                                 registration_sweep):
    reg_snr = _crossing_snr(registration_sweep, 0.1)
    gf_snr = _crossing_snr(grant_free_sweep, 0.1)
    gap_db = gf_snr - reg_snr
    # grant-free BLER at the registration 0.1-crossing SNR
    snr = np.array([p.snr_db for p in grant_free_sweep])
    bler = np.array([p.bler for p in grant_free_sweep])
    gf_at_reg = float(np.interp(reg_snr, snr, bler))
    assert gf_at_reg <= 0.3
    assert gap_db <= 1.0
    print(f"criterion 5 PASS: grant-free BLER {gf_at_reg:.3f} at "
          f"registration's 0.1 point; horizontal gap {gap_db:+.2f} dB")


def test_criterion_06_activity_detection(desk_threshold_db):
    snr_db = desk_threshold_db + 3.0
    spec = H.ExperimentSpec(DESK, (snr_db,), trials=80, master_seed=2,
                            workers=WORKERS)
    (p,) = H.monte_carlo(spec).points
    user_trials = spec.trials * DESK.K
    assert user_trials >= 2000
    assert p.miss_rate <= 1e-2
    assert p.false_alarm_rate <= 1e-2
    print(f"criterion 6 PASS: miss {p.miss_rate:.4f}, false alarm "
          f"{p.false_alarm_rate:.4f} over {user_trials} user-trials")


def test_criterion_07_ldpc_component():
    pc = L.construct_parity_check(240, 0.6, 3, seed=7)
    rng = np.random.default_rng(107)
    ebn0 = 10 ** (6.0 / 10)
    sigma2 = 1.0 / (2 * 0.6 * ebn0)
    errors = bits = 0
    while bits < 100000:
        info = rng.integers(0, 2, pc.m).astype(np.uint8)
        cw = L.encode(info, pc)
        y = L.bits_to_symbols(cw) + rng.normal(0, math.sqrt(sigma2), pc.n)
        hard, _, _ = L.bp_decode(pc, 2 * y / sigma2, max_iter=50)
        errors += int(np.sum(hard[:pc.m] != info))
        bits += pc.m
    ber = errors / bits
    assert ber < 1e-4
    print(f"criterion 7 PASS: LDPC BER {ber:.2e} over {bits} bits at "
          f"Eb/N0 = 6 dB")


def test_criterion_08_numerics():
    worst = max(abs(de.j_inverse(de.j_function(x)) - x)
                for x in np.linspace(0.01, 10.0, 101))
    assert worst < 1e-6
    rng = np.random.default_rng(108)
    for trial in range(5):
        cfg = DESK.with_noise_variance(float(rng.uniform(0.05, 0.5)))
        g = rng.uniform(0.6, 1.4, 2)
        st = de.DeState(mi=rng.uniform(0, 0.9, 2),
                        xi_h=rng.uniform(0.01, 1.0, 2),
                        mu_c2v=rng.uniform(0, 1.5, 2),
                        xi_s=float(rng.uniform(0.1, 1.0)))
        nxt = de.mi_step(st, cfg, g)
        mean, sem = O.mi_step_monte_carlo(st, cfg, g, rng, 1_000_000)
        assert np.all(np.abs(nxt.mi - mean) < 3 * sem + 1e-6)
    print(f"criterion 8 PASS: J round-trip worst error {worst:.2e}; "
          f"mi_step within 3 sigma of Monte Carlo at 5 states")


def test_criterion_09_determinism(tmp_path):
    spec = H.ExperimentSpec(DESK, (-5.0,), trials=10, master_seed=4)
    outputs = []
    for workers in (1, 1, 8):
        s = dataclasses.replace(spec, workers=workers)
        path = tmp_path / f"run_{len(outputs)}.csv"
        H.snr_sweep_report(H.monte_carlo(s), path)
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    print("criterion 9 PASS: byte-identical CSV across reruns and "
          "worker counts 1 and 8")


def test_criterion_10_paper_scale_smoke():
    cfg = H.PAPER_CONFIG
    gains = H.expected_active_gains(cfg)
    th_db = de.threshold_search(cfg, gains, tol_db=0.1)
    snr_db = th_db + 4.0
    spec = H.ExperimentSpec(cfg, (snr_db,), trials=20, master_seed=6,
                            workers=WORKERS)
    (p,) = H.monte_carlo(spec).points
    assert p.bler < 0.5
    print(f"criterion 10 PASS: full-scale config BLER {p.bler:.3f} over "
          f"20 trials at {snr_db:.2f} dB (threshold {th_db:.2f} dB)")
