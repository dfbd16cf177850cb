"""Regular LDPC code: construction, systematic encoding, BP primitives.

Construction is progressive-edge-growth flavoured: each new edge goes to a
check of minimal current degree (keeping check degrees within one of each
other), preferring checks as far as possible from the variable's current
subtree so short cycles only appear when unavoidable. The distance search
is a BFS over the check graph (two checks adjacent when they share a
variable) held as Python-int bitsets; its levels equal those of the
variable-check BFS, because a variable first seen at depth j has all its
checks reached by depth j, so reaching it again adds no check.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
# numpy loads np.random on first use; imported here, the first code
# build or trial does not pay for that import
from numpy.random import default_rng

LLR_CLAMP = 30.0
# largest |tanh(L/2)| representable under the clamp
_TANH_CLAMP = np.tanh(LLR_CLAMP / 2.0)


@dataclass
class ParityCheck:
    """Sparse parity-check matrix with encoder side-structures.

    Columns are ordered so that the first m positions are systematic
    (information) bits and the last n_checks positions carry parity.
    """

    n: int
    m: int
    chk_vars: list            # per-check list of variable indices
    _enc: np.ndarray = field(repr=False, default=None)  # (rank, m) GF(2)
    _n_pinned: int = 0        # surplus free positions pinned to 0 (rank < n-m)

    @property
    def n_checks(self):
        return self.n - self.m

    @cached_property
    def layout(self) -> EdgeLayout:
        """Flat edge layout for vectorized message passing, built once."""
        return EdgeLayout.from_code(self)


def _gf2_rref(H):
    """Reduced row echelon form over GF(2); returns (R, pivot_columns)."""
    M = H.copy()
    n_rows, n_cols = M.shape
    piv_cols = []
    row = 0
    for col in range(n_cols):
        if row >= n_rows:
            break
        r = row + int(np.argmax(M[row:, col]))
        if not M[r, col]:
            continue
        if r != row:
            M[[row, r]] = M[[r, row]]
        others = np.flatnonzero(M[:, col])
        others = others[others != row]
        M[others] ^= M[row]
        piv_cols.append(col)
        row += 1
    return M, piv_cols


def _peg_edges(n, n_checks, d_v, rng):
    """Place n*d_v edges; returns the (n_checks, n) bool incidence matrix.

    Checks are bits of Python ints: adj[c] holds the checks that share a
    variable with c, bucket[d] the checks of degree d and own the checks
    already on v. The candidates are the minimum-degree checks not on v,
    and the pick is uniform among the farthest of them (_farthest).
    """
    H = np.zeros((n_checks, n), dtype=bool)
    adj = [0] * n_checks
    bucket = [(1 << n_checks) - 1]
    for v in range(n):
        own, chks = 0, []
        for _ in range(d_v):
            # uniformity first: only checks at the minimum degree over the
            # checks not on v, excluding those on v
            d = 0
            while not bucket[d] & ~own:
                d += 1
            far = _farthest(adj, own, bucket[d] & ~own)
            # the k-th candidate in ascending check order
            for _ in range(rng.integers(far.bit_count())):
                far &= far - 1
            bit = far & -far
            c = bit.bit_length() - 1
            bucket[d] ^= bit
            if len(bucket) == d + 1:
                bucket.append(0)
            bucket[d + 1] |= bit
            adj[c] |= own
            for ci in chks:
                adj[ci] |= bit
            chks.append(c)
            own |= bit
            H[c, v] = True
    return H


def _farthest(adj, own, cand):
    """The candidates farthest from own: unreached ones, else the deepest.

    BFS over the check graph adj, level by level from own, stopping once
    every candidate is reached; with no candidate left unreached, the last
    level holds the deepest ones.
    """
    reached = frontier = own
    while frontier and cand & ~reached:
        nxt = 0
        f = frontier
        while f:
            c = f.bit_length() - 1
            nxt |= adj[c]
            f ^= 1 << c
        frontier = nxt & ~reached
        reached |= frontier
    return (cand & ~reached) or (frontier & cand)


def construct_parity_check(m, code_rate, d_v, seed) -> ParityCheck:
    """Build a (d_v)-regular code of length N = m/code_rate.

    Deterministic in seed. Rank deficiency in the parity-check matrix is
    absorbed by pinning the surplus free positions to zero in the encoder.
    """
    n_exact = m / code_rate
    n = int(round(n_exact))
    if abs(n - n_exact) > 1e-9:
        raise ValueError(f"m/code_rate = {n_exact:.6g} is not an integer")
    n_checks = n - m
    if d_v < 2 or d_v > n_checks:
        raise ValueError(f"infeasible variable degree d_v = {d_v}")
    rng = default_rng(seed)
    H = _peg_edges(n, n_checks, d_v, rng).astype(np.uint8)
    # permute columns so free variables come first (info positions), pivot
    # variables last (parity); rank deficiency just widens the free block,
    # whose surplus positions the encoder pins to 0.
    R, piv_cols = _gf2_rref(H)
    rank = len(piv_cols)
    is_free = np.ones(n, dtype=bool)
    is_free[piv_cols] = False
    free_cols = np.flatnonzero(is_free)
    perm = np.concatenate([free_cols, piv_cols]).astype(int)
    # pivot expressions over the first m (info) free columns
    enc = R[:rank][:, free_cols[:m]].astype(np.uint8)
    n_pinned = n - rank - m
    chk_vars = [np.flatnonzero(row).tolist() for row in H[:, perm]]
    return ParityCheck(n, m, chk_vars, enc, n_pinned)


def encode(info_bits, pc: ParityCheck):
    """Systematic encode: codeword = [info | parity], H @ c = 0 over GF(2).

    Takes info bits of shape (..., m): one word, or one word per row of a
    batch. uint8 wrap-around keeps the parity of each sum.
    """
    b = np.asarray(info_bits, dtype=np.uint8)
    if b.shape[-1:] != (pc.m,):
        raise ValueError(f"expected {pc.m} info bits, got {b.shape}")
    parity = (b @ pc._enc.T) % 2
    return np.concatenate([b, np.zeros(b.shape[:-1] + (pc._n_pinned,),
                                       dtype=np.uint8), parity], axis=-1)


def bits_to_symbols(bits):
    """Map bit 0 -> +1, bit 1 -> -1."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=float)


def syndrome_ok(hard_bits, pc: ParityCheck):
    """True where every check is satisfied, for hard bits of shape (..., n).

    Returns a bool of shape (...): a scalar for one word, one flag per row
    for a batch. uint8 wrap-around keeps the parity of each check sum.
    """
    b = np.asarray(hard_bits, dtype=np.uint8)
    lay = pc.layout
    parity = np.add.reduceat(b[..., lay.edge_var], lay.chk_ptr, axis=-1) & 1
    return ~parity.any(axis=-1)


def check_messages(v2c, lay: EdgeLayout):
    """Leave-one-out check update for a flat edge array grouped by check.

    v2c has shape (..., E) with edges in the order of the layout, sorted by
    check; it is read, never written. Returns the outgoing c2v messages as a
    new array of the same shape. Matches cn_update edge by edge, with exact
    handling of zero inputs (tanh = 0 annihilates the product on every
    other edge).

    Magnitudes are summed in the log domain and signs multiplied as +/-1.0,
    which is exact. An input with |tanh| < 1e-300 counts as a zero: it
    takes log 1 = 0 and sign +1, and every other edge of its check gets
    magnitude 0; that bookkeeping runs only when the batch holds a zero.
    Besides v2c, at most three arrays of its size are live at once.
    """
    t = np.tanh(np.clip(v2c, -LLR_CLAMP, LLR_CLAMP) / 2.0)
    # sign out of place: numpy 2.4's in-place sign takes ~5x as long
    sign = np.sign(t)
    mag = np.abs(t, out=t)
    iszero = mag < 1e-300
    has_zero = iszero.any()
    if has_zero:
        mag[iszero] = 1.0
        sign[iszero] = 1.0
    # mag holds log|t| until it is replaced by the leave-one-out magnitude
    np.log(mag, out=mag)
    sum_log = np.add.reduceat(mag, lay.chk_ptr, axis=-1)
    sign_prod = np.multiply.reduceat(sign, lay.chk_ptr, axis=-1)
    # expand per-check aggregates back onto edges; the leave-one-out sign
    # is the check's sign product times the edge's own sign
    np.subtract(np.repeat(sum_log, lay.chk_deg, axis=-1), mag, out=mag)
    np.exp(mag, out=mag)
    np.minimum(mag, _TANH_CLAMP, out=mag)
    if has_zero:
        _silence_zero_checks(mag, iszero, lay)
    sign *= np.repeat(sign_prod, lay.chk_deg, axis=-1)
    out = np.multiply(sign, mag, out=mag)
    np.arctanh(out, out=out)
    return np.multiply(2.0, out, out=out)


def _silence_zero_checks(mag, iszero, lay: EdgeLayout):
    """Set mag to 0 on every edge of a check that holds a zero input other
    than the edge itself.

    Zeros are rare, so only their checks are visited, one edge offset at a
    time: at is the flat index of that edge of each zero's check. The index
    arrays are as long as the zeros and end with the call.
    """
    z = np.flatnonzero(iszero)
    col = z % mag.shape[-1]
    chk = np.searchsorted(lay.chk_ptr, col, side="right") - 1
    deg = lay.chk_deg[chk]
    start = z - col + lay.chk_ptr[chk]
    for offset in range(deg.max()):
        at = start + offset
        np.put(mag, at[(offset < deg) & (at != z)], 0.0)


@dataclass
class EdgeLayout:
    """Flat edge indexing of a ParityCheck for vectorized message passing."""

    edge_var: np.ndarray   # variable of each edge (sorted by check)
    chk_ptr: np.ndarray    # reduceat offsets per check
    chk_deg: np.ndarray    # edges per check, to expand per-check values
    var_edges: np.ndarray  # (d_v, n): column v lists v's edges in check order

    @classmethod
    def from_code(cls, pc: ParityCheck):
        edge_var = np.concatenate(pc.chk_vars)
        deg = np.array([len(c) for c in pc.chk_vars])
        # the code is d_v-regular, so every variable has the same edge count
        var_edges = np.argsort(edge_var, kind="stable").reshape(pc.n, -1).T
        return cls(edge_var, np.cumsum(deg) - deg, deg, var_edges)


def flood(Lch, c2v, c2v_sum, pc: ParityCheck):
    """One flooding sum-product iteration over a leading batch axis.

    Lch holds channel LLRs of shape (..., n), c2v the check-to-variable
    messages of shape (..., E) in layout order and c2v_sum their sum per
    variable, as the previous call returned it (zeros with zero c2v).
    Returns the new (c2v, c2v_sum) and the posterior LLRs of shape (..., n),
    each a new array.

    The c2v array handed in is overwritten with the variable-to-check
    messages, so a caller rebinds c2v to the returned one and keeps no
    other use of the old. Lch and c2v_sum are only read.

    A row of Lch that is exactly +0.0, with zero messages, stays +0.0 in
    every output: each check has degree >= 2, so every edge has another
    zero input and gets a zero message.
    """
    lay = pc.layout
    v2c = np.subtract((Lch + c2v_sum)[..., lay.edge_var], c2v, out=c2v)
    c2v = check_messages(v2c, lay)
    # each variable's d_v messages, added in check order
    c2v_sum = np.take(c2v, lay.var_edges, axis=-1).sum(axis=-2)
    return c2v, c2v_sum, Lch + c2v_sum


def bp_decode(pc: ParityCheck, channel_llrs, max_iter=50):
    """Flooding sum-product decoder; returns (hard_bits, ok, iterations)."""
    if max_iter < 1:
        raise ValueError(f"max_iter = {max_iter} must be >= 1")
    Lch = np.asarray(channel_llrs, dtype=float)
    c2v = np.zeros(len(pc.layout.edge_var))
    c2v_sum = np.zeros(pc.n)
    for it in range(1, max_iter + 1):
        c2v, c2v_sum, total = flood(Lch, c2v, c2v_sum, pc)
        hard = (total < 0).astype(np.uint8)
        if syndrome_ok(hard, pc):
            return hard, True, it
    return hard, False, max_iter

