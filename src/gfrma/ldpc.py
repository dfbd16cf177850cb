"""Regular LDPC code: construction, systematic encoding, BP primitives.

Construction is progressive-edge-growth flavoured: each new edge goes to a
check of minimal current degree (keeping check degrees within one of each
other), preferring checks as far as possible from the variable's current
subtree so short cycles only appear when unavoidable. The distance search
is a BFS over the check graph (two checks adjacent when they share a
variable) held as Python-int bitsets; its levels equal those of the
variable-check BFS, because a variable first seen at depth j has all its
checks reached by depth j, so reaching it again adds no check.

Message passing (flood, check_messages) runs over the code's slot-major
EdgeLayout, batch axes last: the checks of one degree d form a (d, n_d)
block of edges, so a check update is d contiguous vector operations per
class. syndrome_ok reads the same layout from hard bits of shape (..., n),
batch axes first.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
# numpy loads np.random on first use; imported here, the first code
# build or trial does not pay for that import
from numpy.random import default_rng

from . import lanes

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
        """Slot-major edge layout for vectorized message passing, built
        once, on first use."""
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
    for a batch. A check's parity is the XOR over its slots.
    """
    b = np.asarray(hard_bits, dtype=np.uint8)
    lay = pc.layout
    bits = b[..., lay.edge_var]
    fail = np.zeros(b.shape[:-1], dtype=bool)
    for d, n_d, off in lay.classes:
        blk = bits[..., off:off + d * n_d].reshape(b.shape[:-1] + (d, n_d))
        fail |= np.bitwise_xor.reduce(blk, axis=-2).any(axis=-1)
    return ~fail


def check_messages(v2c, lay: EdgeLayout, out=None):
    """Leave-one-out check update for an edge array in layout order.

    v2c has shape (E, ...) with edges in the slot-major order of the layout
    and any batch axes last; it is read, never written. Returns the
    outgoing c2v messages in out, a float array of v2c's shape that shares
    no memory with it, or else in a new array. Matches cn_update edge by
    edge, with exact handling of zero inputs (tanh = 0 annihilates the
    product on every other edge).

    Magnitudes are summed in the log domain, each check's log sum equal to
    a reduceat over its edges bit for bit (_segment_sum): up to degree 8 a
    running sum slot by slot over contiguous (n_d, ...) blocks, beyond by
    np.add.reduceat over a copy holding each check's slots together. Signs
    are sign bits: an edge's outgoing sign is the parity of the others'
    sign bits, the XOR of its own with its check's, applied as +/-1.0,
    which is exact. An input with |tanh| < 1e-300 counts as a zero: it
    takes log 1 = 0 and sign +1, and every other edge of its check gets
    magnitude 0, by a per-check zero count and one multiply by a mask per
    class that run only when the batch holds a zero.

    A large batch (lanes.two_lanes) is updated in two runs of check-degree
    classes at once (EdgeLayout.halves), the second on the lanes module's
    worker thread; every check is independent, so the bits are the same.
    """
    if lay.halves and lanes.two_lanes(v2c.size):
        if out is None:
            out = np.empty(v2c.shape)
        lanes.each(lambda half: _check_update(v2c[half[0]], half[1],
                                              out[half[0]]), lay.halves)
        return out
    return _check_update(v2c, lay.classes, out)


def _check_update(v2c, classes, out):
    """check_messages on one thread, over the check classes `classes` of
    the edges of v2c, into out (None for a new array)."""
    # np.clip's bounds, in two ufunc calls that cost less than its wrapper
    t = np.maximum(v2c, -LLR_CLAMP, out=out)
    np.minimum(t, LLR_CLAMP, out=t)
    t *= 0.5
    np.tanh(t, out=t)
    neg = np.signbit(t)
    mag = np.abs(t, out=t)
    iszero = mag < 1e-300
    has_zero = iszero.any()
    if has_zero:
        mag[iszero] = 1.0
        np.greater(neg, iszero, out=neg)    # neg and not zero
    # mag holds log|t| until it is replaced by the leave-one-out magnitude,
    # and neg the edge's sign bit until it is replaced by the outgoing one
    np.log(mag, out=mag)
    for mag_c, neg_c in zip(_blocks(mag, classes), _blocks(neg, classes)):
        np.subtract(_segment_sum(mag_c), mag_c, out=mag_c)
        neg_c ^= np.bitwise_xor.reduce(neg_c, axis=0)
    np.exp(mag, out=mag)
    np.minimum(mag, _TANH_CLAMP, out=mag)
    if has_zero:
        _silence_zero_checks(mag, iszero, classes)
    # sign = 1 - 2 neg, as +/-1.0
    sign = np.multiply(neg, -2.0)
    sign += 1.0
    out = np.multiply(sign, mag, out=mag)
    np.arctanh(out, out=out)
    return np.multiply(2.0, out, out=out)


def _silence_zero_checks(mag, iszero, classes):
    """Set mag to 0 on every edge of a check that holds a zero input other
    than the edge itself: per class, each check's zero count over its
    slots, then mag times whether the count is at most the edge's own."""
    for mag_c, zero_c in zip(_blocks(mag, classes),
                             _blocks(iszero.view(np.uint8), classes)):
        # a count never exceeds d, so it fits the smallest type holding d
        count = np.add.reduce(zero_c, axis=0,
                              dtype=np.min_scalar_type(len(zero_c)))
        # mag is finite and >= 0, so times False it is +0.0, as a masked
        # write of 0.0 would give; np.putmask took 7x as long at PAPER
        np.multiply(mag_c, count <= zero_c, out=mag_c)


def _segment_sum(x):
    """Sum over the slot axis of a (d, ...) block, bit for bit as
    np.add.reduceat sums a segment: x[0] + (x[1] + ... + x[d-1]), the rest
    by numpy's pairwise summation, which below 8 terms is a running sum."""
    d = len(x)
    if d <= 8:
        rest = np.add.reduce(x[1:], axis=0)
        return np.add(x[0], rest, out=rest)
    # each check's d slots as one contiguous segment
    segs = np.ascontiguousarray(np.moveaxis(x, 0, -1)).reshape(-1)
    return np.add.reduceat(segs, np.arange(0, segs.size, d)).reshape(
        x.shape[1:])


@dataclass
class EdgeLayout:
    """Slot-major edge indexing of a ParityCheck for vectorized message
    passing.

    Checks are grouped into classes by degree d, in ascending d, each
    class's checks in check order. Class (d, n_d, offset) owns the edges
    offset .. offset + d * n_d - 1 as a (d, n_d) block: slot j of the
    class's c-th check is edge offset + j * n_d + c, where slot j is the
    check's j-th variable in chk_vars. An edge array of shape (E, ...)
    thus gives each slot of a class one contiguous (n_d, ...) block.
    """

    edge_var: np.ndarray   # variable of each edge
    classes: tuple         # (d, n_d, offset) per check-degree class
    var_edges: np.ndarray  # (d_v, n): column v lists v's edges in check order

    @classmethod
    def from_code(cls, pc: ParityCheck):
        deg = np.array([len(c) for c in pc.chk_vars])
        classes, edge_var, edge_chk, off = [], [], [], 0
        for d in sorted(set(deg.tolist())):
            chks = np.flatnonzero(deg == d)
            block = np.array([pc.chk_vars[c] for c in chks]).T
            edge_var.append(block.ravel())
            edge_chk.append(np.tile(chks, d))
            classes.append((d, len(chks), off))
            off += block.size
        edge_var = np.concatenate(edge_var)
        # each variable's edges in check order; the code is d_v-regular, so
        # every variable has the same edge count
        order = np.lexsort((np.concatenate(edge_chk), edge_var))
        return cls(edge_var, tuple(classes), order.reshape(pc.n, -1).T)

    @cached_property
    def halves(self):
        """The classes as two runs of adjacent classes, cut at the class
        boundary nearest the middle edge: per run, its edge rows and its
        classes with offsets from the run's first edge. Empty with one
        class."""
        if len(self.classes) < 2:
            return ()
        n_edges = len(self.edge_var)
        k = min(range(1, len(self.classes)),
                key=lambda i: abs(2 * self.classes[i][2] - n_edges))
        cut = self.classes[k][2]
        return ((slice(0, cut), self.classes[:k]),
                (slice(cut, n_edges),
                 tuple((d, n_d, off - cut)
                       for d, n_d, off in self.classes[k:])))


def _blocks(arr, classes):
    """Per class of `classes` (an EdgeLayout's, or a run of them), the
    (d, n_d, ...) view of an (E, ...) edge array."""
    return [arr[off:off + d * n_d].reshape((d, n_d) + arr.shape[1:])
            for d, n_d, off in classes]


def flood(Lch, c2v, c2v_sum, pc: ParityCheck):
    """One flooding sum-product iteration over a trailing batch axis.

    Lch holds channel LLRs of shape (n, ...), c2v the check-to-variable
    messages of shape (E, ...) in layout order and c2v_sum their sum per
    variable, as the previous call returned it (zeros with zero c2v): the
    batch axes come last, so each slot of a check class is one contiguous
    block. Returns the new (c2v, c2v_sum) and the posterior LLRs of shape
    (n, ...), each a new array.

    The c2v array handed in is overwritten with the variable-to-check
    messages, so a caller rebinds c2v to the returned one and keeps no
    other use of the old. Lch and c2v_sum are only read.

    A column of Lch that is exactly +0.0, with zero messages, stays +0.0 in
    every output: each check has degree >= 2, so every edge has another
    zero input and gets a zero message.
    """
    lay = pc.layout
    # A large batch runs its edge-wise steps in check_messages' two runs
    # of check classes and its variable-wise steps in two variable ranges,
    # each pair at once (lanes.each), so that each thread's edges stay on
    # its CPU
    if lay.halves and lanes.two_lanes(c2v.size):
        edge_parts = [rows for rows, _ in lay.halves]
        var_parts = [slice(0, pc.n // 2), slice(pc.n // 2, pc.n)]
    else:
        edge_parts = var_parts = [slice(None)]
    Lsum = Lch + c2v_sum
    gathered = np.empty(c2v.shape)

    def to_checks(rows):
        # mode "clip" writes to out unbuffered; every index is in range
        g = Lsum.take(lay.edge_var[rows], axis=0, out=gathered[rows],
                      mode="clip")
        np.subtract(g, c2v[rows], out=c2v[rows])

    lanes.each(to_checks, edge_parts)
    del Lsum
    # the new messages take over the gathered array
    c2v = check_messages(c2v, lay, out=gathered)
    c2v_sum = np.empty(Lch.shape)

    def variable_sums(rows):
        # each variable's d_v messages, added in check order
        c2v.take(lay.var_edges[:, rows], axis=0).sum(axis=0,
                                                     out=c2v_sum[rows])

    lanes.each(variable_sums, var_parts)
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

