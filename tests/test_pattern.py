import hashlib

import numpy as np
import pytest

from gfrma import config as C
from gfrma import pattern as P


def test_degenerate_racf_empty_draw():
    racf = (1.0,)
    for k, t in [(0, 0), (3, 17), (99, 6399)]:
        d = P.derive_draw(42, k, t, racf, 400)
        assert d.degree == 0 and d.symbols == ()


def test_draw_is_pure():
    racf = C.DEFAULT_RACF
    a = P.derive_draw(7, 5, 123, racf, 200)
    b = P.derive_draw(7, 5, 123, racf, 200)
    assert a == b


def test_draw_subset_valid():
    racf = (0.0, 0.0, 0.0, 0.0, 1.0)   # always degree 4
    for t in range(200):
        d = P.derive_draw(3, 1, t, racf, 10)
        assert d.degree == 4
        assert len(set(d.symbols)) == 4
        assert all(0 <= j < 10 for j in d.symbols)


def test_degree_frequencies_match_racf():
    # empirical frequency of d=1 over many draws, 3-sigma binomial band;
    # the graph arrays are the derive_draw draws of every (user, RE)
    cfg = small_cfg(K=1000, T=1000, system_seed=99, m=30)   # N = 50
    g = P.build_access_graph(cfg)
    n = cfg.K * cfg.T
    count = np.count_nonzero(
        np.bincount(g.edge_user * cfg.T + g.edge_re, minlength=n) == 1)
    p = 0.06
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(count / n - p) < 3 * sigma


def test_subset_uniformity():
    # each symbol index should be selected equally often
    N = 8
    n = 20000
    g = P.build_access_graph(small_cfg(K=1, T=n, system_seed=5, m=4,
                                       code_rate=0.5,
                                       racf=(0.0, 1.0)))
    assert g.N == N and g.n_edges == n
    counts = np.bincount(g.edge_sym, minlength=N)
    expected = n / N
    assert np.all(np.abs(counts - expected) < 5 * np.sqrt(expected))


def small_cfg(**kw):
    base = dict(K=20, p_a=0.1, m=12, code_rate=0.6, T=500, system_seed=13)
    base.update(kw)
    return C.SystemConfig(**base)


def test_single_edge_graph():
    cfg = small_cfg(K=1, T=1, racf=(0.0, 1.0), m=3, code_rate=0.75)
    g = P.build_access_graph(cfg)
    assert g.n_edges == 1
    assert g.edge_user.tolist() == [0] and g.edge_re.tolist() == [0]
    draw = P.derive_draw(cfg.system_seed, 0, 0, cfg.racf, cfg.N)
    assert g.edge_sym.tolist() == list(draw.symbols)


def test_empty_graph():
    cfg = small_cfg(racf=(1.0,))
    g = P.build_access_graph(cfg)
    assert g.n_edges == 0


def test_three_view_consistency():
    cfg = small_cfg()
    g = P.build_access_graph(cfg)
    edges = np.stack([g.edge_user, g.edge_sym, g.edge_re], axis=1)
    assert len(np.unique(edges, axis=0)) == g.n_edges   # no duplicate edges


@pytest.mark.parametrize("cfg", [
    small_cfg(),
    small_cfg(K=47, T=3000),
    # T = 4: most users draw no edge at all
    small_cfg(K=30, T=4),
], ids=["small", "partial-block", "sparse"])
def test_edges_grouped_by_user(cfg):
    # the receiver expands per-user values onto edges by np.repeat over
    # user_edge_counts, which holds only while edge_user is non-decreasing
    g = P.build_access_graph(cfg)
    rng = np.random.default_rng(8)
    x = rng.normal(size=cfg.K)
    for mask in (rng.random(cfg.K) < 0.5, np.zeros(cfg.K, dtype=bool),
                 np.ones(cfg.K, dtype=bool)):
        sub = g.restricted_to(mask)
        keep = mask[g.edge_user]
        for got, col in zip((sub.edge_user, sub.edge_sym, sub.edge_re),
                            (g.edge_user, g.edge_sym, g.edge_re)):
            assert np.array_equal(got, col[keep])
        for graph in (g, sub):
            assert np.all(np.diff(graph.edge_user) >= 0)
            assert np.array_equal(np.repeat(x, graph.user_edge_counts),
                                  x[graph.edge_user])
            assert np.array_equal(graph.has_edges,
                                  graph.user_edge_counts > 0)


def test_edge_count_concentration():
    cfg = small_cfg(K=30, m=120, T=2000)
    g = P.build_access_graph(cfg)
    expected = cfg.K * cfg.T * C.racf_mean_degree(cfg.racf)
    assert abs(g.n_edges - expected) / expected < 0.05


def test_expected_edges_per_user():
    # T * E[d]: the mean number of (symbol, RE) edges per user
    def per_user(cfg):
        return cfg.T * C.racf_mean_degree(cfg.racf)

    assert per_user(small_cfg(T=6400)) == pytest.approx(896.0)
    assert per_user(small_cfg(racf=(1.0,))) == 0.0
    assert per_user(small_cfg(T=1, racf=(0.0, 1.0))) == 1.0


def test_re_occupancy_distribution():
    # |M(t)| histogram vs the K-fold convolution of the degree pmf
    from scipy import stats
    cfg = small_cfg(K=20, T=4000)
    g = P.build_access_graph(cfg)
    occ = np.bincount(g.edge_re, minlength=cfg.T)
    pmf = np.array([1.0])
    for _ in range(cfg.K):
        pmf = np.convolve(pmf, np.asarray(cfg.racf))
    counts = np.bincount(occ, minlength=len(pmf))[:len(pmf)]
    expected = pmf * cfg.T
    # merge the tail so all expected bins are >= 5
    cut = np.argmax(np.cumsum(expected[::-1]) >= 5)
    cut = len(expected) - cut
    obs = np.append(counts[:cut - 1], counts[cut - 1:].sum())
    exp = np.append(expected[:cut - 1], expected[cut - 1:].sum())
    _, pval = stats.chisquare(obs, exp * obs.sum() / exp.sum())
    assert pval > 0.001


def test_graph_dump_format(tmp_path):
    cfg = small_cfg(K=3, T=50)
    g = P.build_access_graph(cfg)
    out = tmp_path / "graph.txt"
    P.dump_graph(g, out)
    lines = out.read_text().strip().split("\n")
    assert len(lines) == g.n_edges
    k, j, t = map(int, lines[0].split())
    assert k >= 1 and j >= 1 and t >= 1       # 1-based

    # receiver rebuilding from the same seed gets identical adjacency
    g2 = P.build_access_graph(cfg)
    out2 = tmp_path / "graph2.txt"
    P.dump_graph(g2, out2)
    assert out.read_bytes() == out2.read_bytes()


def _scalar_graph(cfg):
    """The derive_draw loop over every (user, RE): the reference edge list."""
    users, syms, res = [], [], []
    for k in range(cfg.K):
        for t in range(cfg.T):
            draw = P.derive_draw(cfg.system_seed, k, t, cfg.racf, cfg.N)
            for j in draw.symbols:
                users.append(k)
                syms.append(j)
                res.append(t)
    return users, syms, res


@pytest.mark.parametrize("cfg", [
    # d_max = 4 over N = 5: Fisher-Yates swaps collide
    small_cfg(K=7, m=3, T=300, racf=(0.2, 0.1, 0.1, 0.2, 0.4)),
    # 65536 // 3000 = 21 users per block: K = 47 leaves a short last block
    small_cfg(K=47, T=3000),
    # T > 32768: every block holds a single user
    small_cfg(K=3, m=3, T=40000, racf=(0.5, 0.2, 0.3)),
    # seeds outside [0, 2^64) wrap as in mix()
    small_cfg(K=4, T=700, system_seed=-5),
    small_cfg(K=4, T=700, system_seed=2**64 + 13),
    # probs[0] == 0: every RE is drawn
    small_cfg(K=4, T=300, racf=(0.0, 0.7, 0.3)),
    small_cfg(K=3, m=3, T=300, racf=(0.0, 0.0, 0.5, 0.5)),
    # a valid RACf whose cumsum ends at 1 - 2^-53
    small_cfg(K=4, T=700, racf=(0.7, 0.2, 0.1)),
    # cumsum ends at 0.95 (not a valid RACf): the draws past it take d_max,
    # as derive_draw's fallback does
    small_cfg(K=4, T=700, racf=(0.5, 0.25, 0.2)),
], ids=["collisions", "partial-block", "one-user-blocks", "negative-seed",
        "wide-seed", "no-degree-0", "min-degree-2", "cumsum-below-1",
        "cumsum-short"])
def test_graph_matches_scalar_draws(cfg):
    g = P.build_access_graph(cfg)
    for got, want in zip((g.edge_user, g.edge_sym, g.edge_re),
                         _scalar_graph(cfg)):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


def test_desk_graph_dump_digest(tmp_path):
    # sha256 of the dump written by the scalar derive_draw build
    from gfrma.harness import DESK_CONFIG
    out = tmp_path / "desk.txt"
    P.dump_graph(P.build_access_graph(DESK_CONFIG), out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "fae486220b70f4a134d2ef7566df81bc8d59e9fc42dbdc49eacb830fcdfd2073")
