import hashlib
import json

import numpy as np
import pytest

from gfrma import harness as H
from gfrma import ldpc as L

import oracles as O


@pytest.fixture(scope="module")
def pc400():
    return L.construct_parity_check(240, 0.6, 3, seed=7)


def test_construction_shape(pc400):
    assert pc400.n == 400 and pc400.n_checks == 160
    assert sum(len(c) for c in pc400.chk_vars) == 1200
    assert [c[:2] for c in pc400.layout.classes] == [(7, 80), (8, 80)]
    assert np.all(np.bincount(pc400.layout.edge_var, minlength=400) == 3)


def test_no_duplicate_edges(pc400):
    for vs in pc400.chk_vars:
        assert len(set(vs)) == len(vs)


def test_minimal_code():
    pc = L.construct_parity_check(2, 0.5, 2, seed=1)
    assert pc.n == 4 and pc.n_checks == 2
    assert np.all(np.bincount(pc.layout.edge_var, minlength=4) == 2)


def test_construction_deterministic():
    a = L.construct_parity_check(60, 0.6, 3, seed=5)
    b = L.construct_parity_check(60, 0.6, 3, seed=5)
    assert a.chk_vars == b.chk_vars


def _dense_h(pc):
    H = np.zeros((pc.n_checks, pc.n), dtype=np.uint8)
    for c, vs in enumerate(pc.chk_vars):
        H[c, vs] = 1
    return H


def test_encode_systematic_and_valid(pc400):
    rng = np.random.default_rng(0)
    H = _dense_h(pc400)
    for _ in range(20):
        info = rng.integers(0, 2, pc400.m).astype(np.uint8)
        cw = L.encode(info, pc400)
        assert np.array_equal(cw[:pc400.m], info)
        assert not np.any(H @ cw % 2)


def test_encode_zero_and_linearity(pc400):
    z = L.encode(np.zeros(pc400.m, dtype=np.uint8), pc400)
    assert not z.any()
    rng = np.random.default_rng(3)
    a = rng.integers(0, 2, pc400.m).astype(np.uint8)
    b = rng.integers(0, 2, pc400.m).astype(np.uint8)
    assert np.array_equal(L.encode(a, pc400) ^ L.encode(b, pc400),
                          L.encode(a ^ b, pc400))


def test_encode_batch_matches_rows(pc400):
    rng = np.random.default_rng(5)
    info = rng.integers(0, 2, (2, 3, pc400.m)).astype(np.uint8)
    batch = L.encode(info, pc400)
    assert batch.shape == (2, 3, pc400.n) and batch.dtype == np.uint8
    for idx in np.ndindex(2, 3):
        assert np.array_equal(batch[idx], L.encode(info[idx], pc400))
    empty = L.encode(np.zeros((0, pc400.m), dtype=np.uint8), pc400)
    assert empty.shape == (0, pc400.n)
    for bad in (np.zeros(pc400.m - 1), np.zeros((2, pc400.m + 1)),
                np.zeros((pc400.m, 2)), 0):
        with pytest.raises(ValueError, match="info bits"):
            L.encode(bad, pc400)


def test_syndrome(pc400):
    assert L.syndrome_ok(np.zeros(pc400.n, dtype=np.uint8), pc400)
    cw = L.encode(np.ones(pc400.m, dtype=np.uint8), pc400)
    assert L.syndrome_ok(cw, pc400)
    bad = cw.copy()
    bad[37] ^= 1
    assert not L.syndrome_ok(bad, pc400)


def test_syndrome_random_words(pc400):
    rng = np.random.default_rng(9)
    hits = sum(L.syndrome_ok(rng.integers(0, 2, pc400.n), pc400)
               for _ in range(100))
    assert hits == 0          # chance ~2^-160 per word


def test_syndrome_batch_matches_rows(pc400):
    rng = np.random.default_rng(11)
    cw = L.encode(rng.integers(0, 2, pc400.m).astype(np.uint8), pc400)
    flipped = cw.copy()
    flipped[5] ^= 1
    words = np.stack([cw, flipped, np.zeros(pc400.n, dtype=np.uint8),
                      rng.integers(0, 2, pc400.n).astype(np.uint8)])
    batch = L.syndrome_ok(words, pc400)
    assert batch.shape == (4,)
    assert batch.tolist() == [bool(L.syndrome_ok(w, pc400)) for w in words]
    H = _dense_h(pc400).astype(int)
    assert batch.tolist() == [not (H @ w % 2).any() for w in words]
    assert batch.tolist() == [True, False, True, False]


def _flood_iterations(pc, Lch, iterations=3):
    """(c2v, total) after `iterations` floods from zero messages, for Lch
    of shape (n, ...), the batch axes last."""
    c2v = np.zeros((len(pc.layout.edge_var),) + Lch.shape[1:])
    c2v_sum = np.zeros(Lch.shape)
    for _ in range(iterations):
        c2v, c2v_sum, total = L.flood(Lch, c2v, c2v_sum, pc)
    return c2v, total


def _assert_columns_flood_alone(pc, Lch):
    """Each column of a batched flood equals its lone flood bit for bit."""
    c2v_b, total_b = _flood_iterations(pc, Lch)
    for k in range(Lch.shape[1]):
        c2v_k, total_k = _flood_iterations(pc, Lch[:, k])
        assert c2v_b[:, k].tobytes() == c2v_k.tobytes()
        assert total_b[:, k].tobytes() == total_k.tobytes()


def test_flood_batch_matches_rows(pc400):
    rng = np.random.default_rng(12)
    _assert_columns_flood_alone(pc400, rng.normal(0, 3, (pc400.n, 2)))
    # batches of the PAPER code the size of one, a few and all of its
    # users, with the exact zeros of symbols on no RE (about 11% there)
    cfg = H.PAPER_CONFIG
    pc = L.construct_parity_check(cfg.m, cfg.code_rate, cfg.d_v,
                                  cfg.system_seed)
    for rows in (1, 3, 100):
        Lch = rng.normal(0, 3, (pc.n, rows))
        Lch[rng.random(Lch.shape) < 0.11] = 0.0
        _assert_columns_flood_alone(pc, Lch)


def test_flood_keeps_zero_row_at_positive_zero(pc400):
    # the receiver floods only the users with edges: a user without edges
    # has an Lch column of +0.0, which must stay +0.0 in every output
    rng = np.random.default_rng(13)
    Lch = rng.normal(0, 3, (pc400.n, 3))
    Lch[:, 1] = 0.0
    c2v_b, total_b = _flood_iterations(pc400, Lch)
    for out in (c2v_b[:, 1], total_b[:, 1]):
        assert np.all(out == 0.0) and not np.signbit(out).any()
    _assert_columns_flood_alone(pc400, Lch)


def test_input_contracts(pc400):
    # check_messages only reads v2c; flood only reads Lch and c2v_sum, and
    # builds the variable-to-check messages in the c2v array it is handed
    rng = np.random.default_rng(14)
    lay = pc400.layout
    Lch = rng.normal(0, 3, (pc400.n, 2))
    Lch[::9] = 0.0                    # exact zeros reach the check update
    c2v, c2v_sum = L.flood(Lch, np.zeros((len(lay.edge_var), 2)),
                           np.zeros(Lch.shape), pc400)[:2]
    v2c = (Lch + c2v_sum)[lay.edge_var] - c2v
    assert (v2c == 0).any()
    v2c_bytes = v2c.tobytes()
    want = L.check_messages(v2c, lay)
    assert v2c.tobytes() == v2c_bytes
    # given an out array, the messages go there and v2c is still only read
    out = np.full_like(v2c, np.nan)
    assert L.check_messages(v2c, lay, out=out) is out
    assert out.tobytes() == want.tobytes()
    assert v2c.tobytes() == v2c_bytes
    read_only = (Lch, c2v_sum)
    before = [a.tobytes() for a in read_only]
    outputs = L.flood(Lch, c2v, c2v_sum, pc400)
    assert [a.tobytes() for a in read_only] == before
    assert c2v.tobytes() == v2c_bytes
    for out in outputs:
        assert not any(np.shares_memory(out, a) for a in read_only + (c2v,))


def _check_order(pc):
    """The layout index of every edge, check by check and, within a check,
    slot by slot: the order of pc.chk_vars."""
    at = {}
    for d, n_d, off in pc.layout.classes:
        chks = [c for c, vs in enumerate(pc.chk_vars) if len(vs) == d]
        assert len(chks) == n_d
        for i, c in enumerate(chks):
            at[c] = [off + j * n_d + i for j in range(d)]
    return np.array([e for c in range(pc.n_checks) for e in at[c]])


def test_layout_built_once(pc400):
    assert pc400.layout is pc400.layout
    lay = pc400.layout
    # one class per check degree, in ascending degree, whose (d, n_d)
    # blocks tile the edges in turn
    degs = [len(vs) for vs in pc400.chk_vars]
    assert [d for d, _, _ in lay.classes] == sorted(set(degs))
    off = 0
    for d, n_d, start in lay.classes:
        assert start == off and n_d == degs.count(d)
        off += d * n_d
    assert off == len(lay.edge_var) == sum(degs)
    # slot j of a class's c-th check holds that check's j-th variable, and
    # every edge is some check's slot exactly once
    order = _check_order(pc400)
    assert sorted(order.tolist()) == list(range(len(lay.edge_var)))
    assert lay.edge_var[order].tolist() == [v for vs in pc400.chk_vars
                                            for v in vs]
    blocks = lay.blocks(np.arange(len(lay.edge_var)))
    for (d, n_d, off), blk in zip(lay.classes, blocks):
        assert blk.shape == (d, n_d)
        assert blk[:, 0].tolist() == [off + j * n_d for j in range(d)]
    # column v lists v's d_v = 3 edges, in check order
    assert lay.var_edges.shape == (3, pc400.n)
    for v in range(pc400.n):
        want = [e for e in order if lay.edge_var[e] == v]
        assert lay.var_edges[:, v].tolist() == want


def _bincount_var_sum(c2v, pc):
    """Sum of edge messages of shape (E, ...) per variable by one bincount
    over the edges in check order: the reference for flood's variable sum."""
    lay = pc.layout
    order = _check_order(pc)
    batch = c2v.shape[1:]
    rows = int(np.prod(batch))
    bins = (lay.edge_var[order][:, None] * rows + np.arange(rows)).ravel()
    return np.bincount(bins, weights=c2v[order].ravel(),
                       minlength=pc.n * rows).reshape((pc.n,) + batch)


@pytest.mark.parametrize("shape", [(), (3,), (2, 4)],
                         ids=["1d", "batch3", "batch2x4"])
def test_var_sum_matches_bincount(pc400, shape):
    # flood's c2v_sum must equal the bincount sum of its c2v bit for bit.
    # With zero channel LLRs and sums, flood's check input is -c2v_prev
    # exactly, so v2c is chosen freely; zeros among it make the check
    # update emit +0.0 and -0.0
    rng = np.random.default_rng(8)
    n_edges = len(pc400.layout.edge_var)
    zeros = np.zeros((pc400.n,) + shape)
    all_neg_zero = 0
    for trial in range(20):
        v2c = rng.normal(0, 6, (n_edges,) + shape)
        v2c[rng.random(n_edges) < 0.1 * (trial % 5)] = 0.0
        c2v, c2v_sum, _ = L.flood(zeros, -v2c, zeros, pc400)
        want = _bincount_var_sum(c2v, pc400)
        assert c2v_sum.tobytes() == want.tobytes()
        # variables whose 3 messages are all -0.0, which bincount sums
        # from +0.0 to +0.0
        neg_zero = ((c2v == 0) & np.signbit(c2v)).astype(float)
        all_neg_zero += int(np.sum(_bincount_var_sum(neg_zero, pc400) == 3))
    assert all_neg_zero > 0


def test_cn_update_values():
    assert O.cn_update([0.0, 4.2]) == 0.0
    big = O.cn_update([1e9, 1e9])
    assert big == pytest.approx(2 * np.arctanh(np.tanh(15.0) ** 2))
    expected = 2 * np.arctanh(np.tanh(1.0) * np.tanh(-1.5))
    assert O.cn_update([2.0, -3.0]) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(-1.6935, abs=1e-4)


def test_vn_update():
    assert O.vn_update(1.0, [0.5, -0.25]) == pytest.approx(1.25)
    assert O.vn_update(0.0, []) == 0.0
    assert O.vn_update(-2.5, []) == -2.5


def test_check_messages_matches_scalar():
    rng = np.random.default_rng(4)
    for trial in range(80):
        # from degree 9 on, the log sum takes numpy's pairwise branch
        deg = rng.integers(2, 21)
        llrs = rng.normal(0, 4, deg)
        # zero inputs: none, one, or two or more (every output then 0)
        n_zero = (0, 1, 2, int(deg))[trial % 4]
        llrs[rng.choice(deg, n_zero, replace=False)] = 0.0
        lay = L.ParityCheck(deg, 0, [list(range(deg))]).layout
        out = L.check_messages(llrs, lay)
        for i in range(deg):
            ref = O.cn_update(np.delete(llrs, i))
            assert out[i] == pytest.approx(ref, abs=1e-9)
        if n_zero >= 2:
            assert np.all(out == 0.0)
        if n_zero == deg:
            assert not np.signbit(out).any()


def _check_messages_counting(v2c, ptr, deg):
    """Integer-count form of the check update over edges of shape (..., E)
    in check order, check c holding the deg[c] edges from ptr[c]: the
    bit-exact reference for L.check_messages. Log magnitudes are summed by
    np.add.reduceat, zero inputs and negative signs are counted per check
    and the leave-one-out parity taken modulo 2."""
    t = np.tanh(np.clip(v2c, -L.LLR_CLAMP, L.LLR_CLAMP) / 2.0)
    absr = np.abs(t)
    iszero = absr < 1e-300
    logt = np.where(iszero, 0.0, np.log(np.where(iszero, 1.0, absr)))
    neg = ((t < 0) & ~iszero).astype(np.int64)
    sum_log = np.add.reduceat(logt, ptr, axis=-1)
    n_zero = np.add.reduceat(iszero.astype(np.int64), ptr, axis=-1)
    n_neg = np.add.reduceat(neg, ptr, axis=-1)
    sum_log = np.repeat(sum_log, deg, axis=-1)
    n_zero = np.repeat(n_zero, deg, axis=-1)
    n_neg = np.repeat(n_neg, deg, axis=-1)
    other_zero = n_zero - iszero
    mag = np.exp(sum_log - logt)
    mag = np.where(other_zero > 0, 0.0, np.minimum(mag, L._TANH_CLAMP))
    sign = 1.0 - 2.0 * ((n_neg - neg) % 2)
    return 2.0 * np.arctanh(sign * mag)


# inputs the check update must treat exactly: signed zeros, subnormals whose
# |tanh| is below 1e-300 (counted as zeros), values just above that bound,
# and values at and beyond the clamp
_EDGE_VALUES = np.array([0.0, -0.0, 1e-310, -1e-310, 5e-324, -5e-324,
                         3e-300, -3e-300, 30.0, -30.0, 31.0, -31.0, 1e9,
                         -1e9, np.inf, -np.inf, 60.0, -45.0])


@pytest.mark.parametrize("shape", [(), (3,), (2, 4)],
                         ids=["1d", "batch3", "batch2x4"])
def test_check_messages_matches_counting_form(shape):
    # check degrees 2-20: from 9 on, the log sum takes numpy's pairwise
    # branch
    rng = np.random.default_rng(21)
    deg = rng.integers(2, 21, 40)
    n_edges = int(deg.sum())
    ptr = np.concatenate([[0], np.cumsum(deg[:-1])])
    # variable e is check-order edge e, so edge_var takes a check-order
    # array to the layout's order
    lay = L.ParityCheck(n_edges, 0, [list(range(p, p + d))
                                     for p, d in zip(ptr, deg)]).layout
    to_layout = lay.edge_var
    for trial in range(60):
        v2c = rng.normal(0, 6, shape + (n_edges,))
        if trial % 6:
            # per check: no, one, or two or more special values, which are
            # exact zeros in every third check
            flat = v2c.reshape(-1, v2c.shape[-1])
            for row in flat:
                for c, d in enumerate(deg):
                    k = rng.integers(0, min(d, 4) + 1)
                    at = ptr[c] + rng.choice(d, k, replace=False)
                    pool = _EDGE_VALUES[:2] if c % 3 == 0 else _EDGE_VALUES
                    row[at] = rng.choice(pool, k)
        want = np.moveaxis(_check_messages_counting(v2c, ptr, deg)
                           [..., to_layout], -1, 0)
        got = L.check_messages(np.moveaxis(v2c[..., to_layout], -1, 0), lay)
        assert got.shape == want.shape
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def test_noiseless_decode(pc400):
    rng = np.random.default_rng(5)
    info = rng.integers(0, 2, pc400.m).astype(np.uint8)
    cw = L.encode(info, pc400)
    llrs = L.LLR_CLAMP * L.bits_to_symbols(cw)
    hard, ok, iters = L.bp_decode(pc400, llrs, max_iter=1)
    assert ok and np.array_equal(hard, cw)


@pytest.mark.parametrize("max_iter", [0, -1])
def test_bp_decode_needs_an_iteration(pc400, max_iter):
    with pytest.raises(ValueError, match="max_iter"):
        L.bp_decode(pc400, np.zeros(pc400.n), max_iter=max_iter)


def test_awgn_decode_sanity(pc400):
    # moderately clean channel: a small-sample version of the BER gate
    rng = np.random.default_rng(6)
    ebn0 = 10 ** (6.0 / 10)
    sigma2 = 1.0 / (2 * 0.6 * ebn0)
    errors = 0
    bits = 0
    for _ in range(50):
        info = rng.integers(0, 2, pc400.m).astype(np.uint8)
        cw = L.encode(info, pc400)
        y = L.bits_to_symbols(cw) + rng.normal(0, np.sqrt(sigma2), pc400.n)
        hard, ok, _ = L.bp_decode(pc400, 2 * y / sigma2, max_iter=50)
        errors += int(np.sum(hard[:pc400.m] != info))
        bits += pc400.m
    assert errors / bits < 1e-3


def _scalar_peg(n, n_checks, d_v, rng):
    """Set-based BFS form of the PEG placement: the reference for
    L._peg_edges. Returns per-check variable lists."""
    chk_deg = np.zeros(n_checks, dtype=int)
    chk_vars = [[] for _ in range(n_checks)]
    var_chks = [[] for _ in range(n)]
    for v in range(n):
        for _ in range(d_v):
            dist = np.full(n_checks, np.inf)
            seen_v = {v}
            frontier = list(var_chks[v])
            depth = 0
            for c in frontier:
                dist[c] = depth
            while frontier:
                depth += 1
                nxt = set()
                for c in frontier:
                    for v2 in chk_vars[c]:
                        if v2 not in seen_v:
                            seen_v.add(v2)
                            for c2 in var_chks[v2]:
                                if not np.isfinite(dist[c2]):
                                    nxt.add(c2)
                for c2 in nxt:
                    dist[c2] = depth
                frontier = list(nxt)
            cand = np.flatnonzero(chk_deg == chk_deg[
                np.setdiff1d(np.arange(n_checks), var_chks[v])].min())
            cand = np.setdiff1d(cand, var_chks[v])
            far = cand[dist[cand] == dist[cand].max()]
            c = int(far[rng.integers(len(far))])
            chk_deg[c] += 1
            chk_vars[c].append(v)
            var_chks[v].append(c)
    return chk_vars


@pytest.mark.parametrize("n, n_checks, d_v, seed", [
    (100, 40, 3, 5), (40, 20, 2, 9), (120, 48, 4, 2), (30, 12, 3, 0),
    (6, 3, 3, 4),        # d_v == n_checks: every check on every variable
    (4, 2, 2, 0),        # the smallest code
    (50, 20, 5, 3), (60, 24, 6, 1),
    (12, 6, 3, 1),       # rank 5 of 6 checks
])
def test_peg_matches_scalar_bfs(n, n_checks, d_v, seed):
    H = L._peg_edges(n, n_checks, d_v, np.random.default_rng(seed))
    want = _scalar_peg(n, n_checks, d_v, np.random.default_rng(seed))
    assert [np.flatnonzero(row).tolist() for row in H] == want


@pytest.mark.parametrize("m, seed, digest", [
    (60, 5, "bc63ec0f171f6c54867a9bd8bc5bde3a1d74da06616d4e018e8342a318c0033c"),
    (120, 1,
     "303d56310c9ee8f56d961279cf2e2cf87fcc1fd296c0f7168adb39c4e43327d7"),
    (240, 7,
     "68543886d9d1bee990aa75cd0bf690a92aa2e1d81dfda4f2bdad314b734e792f"),
], ids=["m60-seed5", "m120-seed1", "m240-seed7"])
def test_code_digest(m, seed, digest):
    # sha256 of json.dumps(chk_vars) from the set-based BFS construction
    pc = L.construct_parity_check(m, 0.6, 3, seed)
    assert hashlib.sha256(
        json.dumps(pc.chk_vars).encode()).hexdigest() == digest
