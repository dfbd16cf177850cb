import dataclasses

import numpy as np
import pytest

from gfrma import config as C
from gfrma.harness import DESK_CONFIG


def paper_like_config(**kw):
    base = dict(K=100, p_a=0.1, m=240, code_rate=0.6, T=6400)
    base.update(kw)
    return C.SystemConfig(**base)


def test_validate_paper_config():
    cfg = C.validate_config(paper_like_config())
    assert cfg.N == 400


def test_racf_sum_violation():
    racf = C.Racf((0.5, 0.4))
    with pytest.raises(C.ConfigError, match="sums to 0.9"):
        C.validate_config(paper_like_config(racf=racf))


def test_non_integer_n():
    with pytest.raises(C.ConfigError, match="non-integer"):
        C.validate_config(paper_like_config(m=240, code_rate=0.7))


def test_validate_idempotent():
    cfg = paper_like_config()
    assert C.validate_config(C.validate_config(cfg)) is cfg


def test_racf_mean_degree():
    assert C.racf_mean_degree(C.Racf((1.0,))) == 0.0
    assert C.racf_mean_degree(C.DEFAULT_RACF) == pytest.approx(0.14, abs=1e-15)
    assert C.racf_mean_degree(C.Racf((0.0, 1.0))) == 1.0


def test_racf_mean_degree_linear():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.random(4)
        a = C.racf_mean_degree(C.Racf(tuple(p)))
        b = C.racf_mean_degree(C.Racf(tuple(2 * p)))
        assert b == pytest.approx(2 * a, rel=1e-12)


def test_throughput():
    assert C.throughput(paper_like_config()) == pytest.approx(0.375)
    # one bit per RE
    cfg = C.SystemConfig(K=1, p_a=1.0, m=120, code_rate=0.6, T=120)
    assert C.throughput(cfg) == 1.0


def test_avg_snr():
    # the average per-RE SNR is E[d] * sum(h^2) / xi_w, with E[d] = 0.14
    cfg = paper_like_config()
    assert C.noise_variance_for_snr(cfg, 1.0, [1.0]) == pytest.approx(0.14)
    assert C.noise_variance_for_snr(cfg, 2.0, [1.0, 1.0]) \
        == pytest.approx(0.14)
    with pytest.raises(C.ConfigError, match="no active signal power"):
        C.noise_variance_for_snr(cfg, 1.0, [])


def test_noise_variance_for_snr():
    cfg = paper_like_config()
    assert C.noise_variance_for_snr(cfg, 1.0, [1.0]) == pytest.approx(0.14)
    assert C.noise_variance_for_snr(cfg, 2.0, [1.0]) == pytest.approx(0.07)
    for gamma in (0.0, float("nan"), float("inf")):
        with pytest.raises(C.ConfigError):
            C.noise_variance_for_snr(cfg, gamma, [1.0])


def test_snr_round_trip_property():
    rng = np.random.default_rng(1)
    cfg = paper_like_config()
    for _ in range(50):
        gains = rng.uniform(0.1, 3.0, rng.integers(1, 6))
        gamma = rng.uniform(0.01, 100.0)
        xi = C.noise_variance_for_snr(cfg, gamma, gains)
        back = C.racf_mean_degree(cfg.racf) * np.sum(gains ** 2) / xi
        assert back == pytest.approx(gamma, abs=1e-12 * max(1, gamma))


def test_d_max_exceeding_n_rejected():
    racf = C.Racf.from_dict({0: 0.5, 500: 0.5})
    with pytest.raises(C.ConfigError, match="d_max"):
        C.validate_config(paper_like_config(racf=racf))


def test_d_v_exceeding_parity_checks_rejected():
    # DESK has N - m = 80 checks
    n_checks = DESK_CONFIG.N - DESK_CONFIG.m
    cfg = dataclasses.replace(DESK_CONFIG, d_v=n_checks)
    assert C.validate_config(cfg) is cfg
    for d_v in (n_checks + 1, 100):
        with pytest.raises(C.ConfigError, match="d_v"):
            C.validate_config(dataclasses.replace(DESK_CONFIG, d_v=d_v))


def test_config_file_round_trip(tmp_path):
    p = tmp_path / "sys.cfg"
    p.write_text(
        "# experiment setup\n"
        "K = 100\n"
        "p_a = 0.1\n"
        "m = 240\n"
        "code_rate = 0.6\n"
        "T = 6400\n"
        "racf = 0:0.90,1:0.06,2:0.04\n"
        "prior_mean = 1\n"
        "prior_var = 10\n"
        "noise_variance = 0.2\n"
        "system_seed = 7\n"
    )
    cfg = C.read_config_file(p)
    assert cfg.K == 100 and cfg.N == 400 and cfg.system_seed == 7
    assert cfg.racf == C.DEFAULT_RACF
    assert cfg.prior == C.ChannelPrior(1.0, 10.0)


def test_config_file_one_prior_field_keeps_default_other(tmp_path):
    p = tmp_path / "sys.cfg"
    p.write_text("prior_var = 4\n")
    assert C.read_config_file(p).prior == C.ChannelPrior(
        C.ChannelPrior().mean, 4.0)
    p.write_text("prior_mean = 2\n")
    assert C.read_config_file(p).prior == C.ChannelPrior(
        2.0, C.ChannelPrior().var)


@pytest.mark.parametrize("racf,match", [
    ("0:0.5,1:0.5,-1:0.5", "negative"),
    ("0:0.2,1:0.3,1:0.8", "twice"),
])
def test_config_file_bad_racf_degree(tmp_path, racf, match):
    p = tmp_path / "bad.cfg"
    p.write_text(f"racf = {racf}\n")
    with pytest.raises(C.ConfigError, match=match):
        C.read_config_file(p)


@pytest.mark.parametrize("line,match", [
    ("K = 3.5", r"bad\.cfg:2: K: .*'3\.5'"),
    ("racf = 0:0.5,1", r"bad\.cfg:2: racf: .*degree:probability.*'1'"),
], ids=["non-integer-K", "racf-pair-without-colon"])
def test_config_file_parse_error_names_line_and_key(tmp_path, line, match):
    p = tmp_path / "bad.cfg"
    p.write_text(f"# header\n{line}\n")
    with pytest.raises(C.ConfigError, match=match):
        C.read_config_file(p)


def test_config_file_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("bogus = 3\n")
    with pytest.raises(C.ConfigError, match="unknown config keys"):
        C.read_config_file(p)


def test_config_file_prior_is_not_a_key(tmp_path):
    # the prior is read as prior_mean / prior_var, never as a bare value
    p = tmp_path / "bad.cfg"
    p.write_text("prior = 3\n")
    with pytest.raises(C.ConfigError, match=r"unknown.*\['prior'\]"):
        C.read_config_file(p)


def test_config_file_repeated_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("K = 30\n# again\nK = 31\n")
    with pytest.raises(C.ConfigError, match=r"bad\.cfg:3: K: given twice"):
        C.read_config_file(p)


def test_metrics():
    cfg = paper_like_config(noise_variance=0.14)
    assert C.throughput(cfg) == pytest.approx(0.375)
    assert C.noise_variance_for_snr(cfg, 1.0, [1.0]) == pytest.approx(0.14)


@pytest.mark.parametrize("field,value", [
    ("noise_variance", float("nan")),
    ("noise_variance", float("inf")),
    ("prior", C.ChannelPrior(1.0, float("nan"))),
    ("prior", C.ChannelPrior(float("inf"), 10.0)),
    ("gains", (float("nan"),) + (1.0,) * 99),
    ("racf", C.Racf((0.9, float("nan"), 0.04))),
    ("max_iterations", 2.5),
    ("d_v", 2.5),
    ("system_seed", 1.5),
    ("system_seed", -1),
])
def test_non_finite_or_non_integer_rejected(field, value):
    with pytest.raises(C.ConfigError):
        C.validate_config(paper_like_config(**{field: value}))


@pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "np.bool_"])
@pytest.mark.parametrize("field", ["K", "m", "T", "max_iterations", "d_v",
                                   "system_seed"])
def test_bool_is_not_an_integer(field, value):
    # True would otherwise pass as 1, and K = True reach np.ones
    with pytest.raises(C.ConfigError, match=rf"^{field}\b"):
        C.validate_config(paper_like_config(**{field: value}))
