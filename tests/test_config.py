import dataclasses
import warnings

import numpy as np
import pytest

from gfrma import config as C
from gfrma import de
from gfrma import harness as H
from gfrma.harness import DESK_CONFIG


# Test ids spell racf, prior_mean and prior_var as racf.probs, prior.mean
# and prior.var, the ids these cases have always been reported under
CASE_IDS = {"racf": "racf.probs", "prior_mean": "prior.mean",
            "prior_var": "prior.var"}


def case_id(field):
    return CASE_IDS.get(field, field)


def paper_like_config(**kw):
    base = dict(K=100, p_a=0.1, m=240, code_rate=0.6, T=6400)
    base.update(kw)
    return C.SystemConfig(**base)


def test_validate_paper_config():
    cfg = C.validate_config(paper_like_config())
    assert cfg.N == 400


def test_racf_sum_violation():
    with pytest.raises(C.ConfigError, match=r"^racf sums to 0\.9\b"):
        C.validate_config(paper_like_config(racf=(0.5, 0.4)))


def test_non_integer_n():
    with pytest.raises(C.ConfigError, match="non-integer"):
        C.validate_config(paper_like_config(m=240, code_rate=0.7))


def test_validate_idempotent():
    cfg = paper_like_config()
    assert C.validate_config(C.validate_config(cfg)) is cfg


def test_racf_mean_degree():
    assert C.racf_mean_degree((1.0,)) == 0.0
    assert C.racf_mean_degree(C.DEFAULT_RACF) == pytest.approx(0.14, abs=1e-15)
    assert C.racf_mean_degree((0.0, 1.0)) == 1.0


def test_racf_mean_degree_linear():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.random(4)
        a = C.racf_mean_degree(tuple(p))
        b = C.racf_mean_degree(tuple(2 * p))
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
    racf = (0.5,) + (0.0,) * 499 + (0.5,)
    with pytest.raises(C.ConfigError, match="d_max = 500"):
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
    assert (cfg.prior_mean, cfg.prior_var) == (1.0, 10.0)


def test_config_file_one_prior_field_keeps_default_other(tmp_path):
    p = tmp_path / "sys.cfg"
    default = C.SystemConfig()
    p.write_text("prior_var = 4\n")
    cfg = C.read_config_file(p)
    assert (cfg.prior_mean, cfg.prior_var) == (default.prior_mean, 4.0)
    p.write_text("prior_mean = 2\n")
    cfg = C.read_config_file(p)
    assert (cfg.prior_mean, cfg.prior_var) == (2.0, default.prior_var)


def test_config_file_racf_degree_not_given_is_zero(tmp_path):
    p = tmp_path / "sys.cfg"
    p.write_text("racf = 2:0.1,0:0.9\n")
    assert C.read_config_file(p).racf == (0.9, 0.0, 0.1)


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


@pytest.mark.parametrize("line,match", [
    ("prior_mean = 1e200", r"^prior_mean 1e\+200 is not"),
    ("racf = 0:0.5,1:0.6", r"^racf sums to 1\.1\b"),
], ids=["prior_mean", "racf"])
def test_config_file_error_names_the_key(tmp_path, line, match):
    # each message leads with the key the file gives
    p = tmp_path / "bad.cfg"
    p.write_text(f"{line}\n")
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
    # ids as for CASE_IDS: the ids these two cases have been reported under
    pytest.param("prior_var", float("nan"), id="prior-value2"),
    pytest.param("prior_mean", float("inf"), id="prior-value3"),
    ("gains", (float("nan"),) + (1.0,) * 99),
    ("racf", (0.9, float("nan"), 0.04)),
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


@pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "np.bool_"])
@pytest.mark.parametrize("field", ["p_a", "code_rate", "noise_variance",
                                   "activity_threshold", "prior_mean",
                                   "prior_var"], ids=case_id)
def test_bool_is_not_a_real(field, value):
    # p_a = True would otherwise make every user active
    with pytest.raises(C.ConfigError, match=rf"^{field}\b"):
        C.validate_config(paper_like_config(**{field: value}))


@pytest.mark.parametrize("field,value", [
    ("gains", (True,) * 30),
    ("gains", (1.0,) * 29 + (np.True_,)),
    ("racf", (False, False, True)),
    ("racf", (0.0, 0.0, np.True_)),
], ids=["gains-bool", "gains-np.bool_", "racf-bool", "racf-np.bool_"])
def test_bool_is_not_a_tuple_entry(field, value):
    # the float conversion would read True as gain or probability 1.0
    with pytest.raises(C.ConfigError, match=rf"^{field}\b"):
        C.validate_config(dataclasses.replace(DESK_CONFIG, **{field: value}))


def test_racf_probs_must_be_a_tuple():
    # a list validated, then failed in DE's cached per-code constants
    with pytest.raises(C.ConfigError, match="tuple"):
        C.validate_config(paper_like_config(racf=[0.90, 0.06, 0.04]))


@pytest.mark.parametrize("K,p_a,n_active", [
    (100, 0.07, 7), (25, 0.28, 7), (50, 0.14, 7),   # K * p_a is 7 + 1e-15
    (6, 0.3, 2), (3, 0.5, 2), (6, 1e-12, 1),       # a fraction rounds up
])
def test_n_active(K, p_a, n_active):
    assert C.SystemConfig(K=K, p_a=p_a).n_active == n_active


@pytest.mark.parametrize("field", ["gains", "prior_mean"], ids=case_id)
def test_amplitude_bound(field):
    # a validated amplitude must run without overflow; 1e154 overflowed
    def cfg_at(v):
        if field == "gains":
            return dataclasses.replace(DESK_CONFIG, gains=(v,) * DESK_CONFIG.K)
        return dataclasses.replace(DESK_CONFIG, prior_mean=v)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # ints beyond float range raised OverflowError in the conversion
        for v in (1e154, -1e154, float(np.nextafter(C.MAX_AMPLITUDE, np.inf)),
                  10 ** 400, -10 ** 400):
            with pytest.raises(C.ConfigError, match=rf"^{field}\b"):
                C.validate_config(cfg_at(v))
        cfg = C.validate_config(cfg_at(C.MAX_AMPLITUDE))
        H.monte_carlo(H.ExperimentSpec(cfg, (-8.0, -6.0), trials=2))
        de.threshold_search(cfg, H.expected_active_gains(cfg))


# Every field of config.FIELDS and harness.SPEC_FIELDS: written out, so that the bad-class test also runs on
# code without those tables, and checked against them by
# test_bad_class_cases_cover_every_field.
CONFIG_NAMES = ["K", "p_a", "m", "code_rate", "T", "racf",
                 "prior_mean", "prior_var", "gains", "noise_variance",
                 "system_seed", "max_iterations", "activity_threshold",
                 "d_v", "activity_mode"]
SPEC_NAMES = ["trials", "workers", "master_seed", "mode"]

BAD = {"bool": True, "np.bool_": np.True_, "nan": float("nan"),
       "inf": float("inf"), "-inf": float("-inf"), "10**400": 10 ** 400,
       "negative": -1, "zero": 0, "string": "1", "container": [1]}
# the classes that are valid values of a field; gains and racf get each
# bad value as an entry, and a wrong container of their own
VALID = {"system_seed": {"zero"}, "master_seed": {"zero"},
         "prior_mean": {"zero", "negative"}, "gains": {"zero"},
         "racf": {"zero"}}
CONTAINER = {"gains": [[1.0] * DESK_CONFIG.K], "racf": [0.9, 0.06, 0.04]}


def with_bad(field, kind):
    """The value of field in DESK_CONFIG with the bad class kind in it."""
    if kind == "container" and field in CONTAINER:
        return CONTAINER[field]
    if field == "gains":
        return (BAD[kind],) * DESK_CONFIG.K
    if field == "racf":
        return (0.9, 0.1, BAD[kind])
    return BAD[kind]


def validate_with(field, v):
    """validate_config or ExperimentSpec.validate with field set to v."""
    if field in SPEC_NAMES:
        return H.ExperimentSpec(DESK_CONFIG, (0.0,), **{field: v}).validate()
    return C.validate_config(dataclasses.replace(DESK_CONFIG, **{field: v}))


BAD_CASES = [(field, kind) for field in CONFIG_NAMES + SPEC_NAMES
             for kind in BAD if kind not in VALID.get(field, ())]


@pytest.mark.parametrize("field,kind", BAD_CASES,
                         ids=[f"{case_id(f)}-{k}" for f, k in BAD_CASES])
def test_every_field_rejects_every_bad_class(field, kind):
    # validation only: no graph is built and no trial runs at these values
    with pytest.raises(C.ConfigError, match=rf"^{field}\b"):
        validate_with(field, with_bad(field, kind))


def test_bad_class_cases_cover_every_field():
    assert CONFIG_NAMES == list(C.FIELDS)
    assert SPEC_NAMES == list(H.SPEC_FIELDS)
    # the classes left out are valid, placed as with_bad places them
    for field, kinds in VALID.items():
        for kind in kinds:
            validate_with(field, with_bad(field, kind))


@pytest.mark.parametrize("probs", [(10 ** 400, 0.0, 0.0),
                                   (0.9, 0.1, 10 ** 400)])
def test_racf_int_beyond_float_range(probs):
    # the float conversion raised OverflowError before any check
    with pytest.raises(C.ConfigError, match=r"^racf\b"):
        C.validate_config(paper_like_config(racf=probs))


def write_config_file(cfg, path):
    """Write every config-file key of cfg; gains = None (every gain 1.0)
    has no file form, so it is left out."""
    lines = []
    for key in C.FIELDS:
        v = getattr(cfg, key)
        if key == "racf":
            v = ",".join(f"{d}:{p!r}" for d, p in enumerate(v))
        elif key == "gains" and v is not None:
            v = ",".join(map(repr, v))
        if v is not None:
            lines.append(f"{key} = {v}\n")
    path.write_text("".join(lines))


NON_DEFAULT = C.SystemConfig(
    K=20, p_a=0.15, m=96, code_rate=0.8, T=1000,
    racf=(0.85, 0.1, 0.0, 0.05), prior_mean=-0.5, prior_var=2.5,
    gains=tuple(0.5 + 0.1 * k for k in range(20)), noise_variance=0.37,
    system_seed=2 ** 64 - 1, max_iterations=7, activity_threshold=0.3,
    d_v=4, activity_mode="bernoulli")


@pytest.mark.parametrize("cfg", [H.PAPER_CONFIG, NON_DEFAULT],
                         ids=["paper", "non-default"])
def test_config_file_round_trip_every_key(tmp_path, cfg):
    # the file keys cover every SystemConfig field
    assert set(C.FIELDS) == {f.name for f in dataclasses.fields(C.SystemConfig)}
    p = tmp_path / "every.cfg"
    write_config_file(C.validate_config(cfg), p)
    assert C.read_config_file(p) == cfg


def test_non_default_config_differs_in_every_field():
    default = C.SystemConfig()
    for name in CONFIG_NAMES:
        assert getattr(NON_DEFAULT, name) != getattr(default, name), name
