"""Pseudo-random access patterns and the tripartite access graph.

Every draw is a pure function of (system_seed, user, re): both the user and
the receiver rebuild exactly the same pattern from the shared seed, which is
what lets the receiver identify users without any registration handshake.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import SystemConfig

_MASK = (1 << 64) - 1
# SplitMix64 increment and multipliers
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def splitmix64(z: int) -> int:
    """SplitMix64 finalizer: a 64-bit avalanche mixer."""
    z = (z + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK
    return z ^ (z >> 31)


def mix(*words) -> int:
    """Chain-mix a tuple of integers into one 64-bit value."""
    h = 0
    for w in words:
        h = splitmix64((h ^ int(w)) & _MASK)
    return h


def _u01(seed, counter):
    return splitmix64((seed + counter) & _MASK) / 2.0**64


@dataclass(frozen=True)
class PatternDraw:
    """One user's action on one RE: degree d and the selected symbol indices.

    symbols are 0-based internally; external dumps are 1-based.
    """

    degree: int
    symbols: tuple

    def __post_init__(self):
        assert len(self.symbols) == self.degree


def derive_draw(system_seed, user, re, racf, N) -> PatternDraw:
    """Counter-based draw of (degree, symbol subset) for (user, re).

    Degree by inverse CDF over the RACf; subset by partial Fisher-Yates over
    0..N-1, fed by successive SplitMix64 outputs. Stateless: any (user, re)
    pair is computable without generating predecessors.
    """
    stream = mix(system_seed, user, re)
    u = _u01(stream, 0)
    acc = 0.0
    degree = len(racf) - 1
    for d, p in enumerate(racf):
        acc += p
        if u < acc:
            degree = d
            break
    degree = min(degree, N)
    if degree == 0:
        return PatternDraw(0, ())
    # sparse partial Fisher-Yates: O(degree) memory
    repl = {}
    out = []
    for i in range(degree):
        r = i + int(_u01(stream, 1 + i) * (N - i))
        out.append(repl.get(r, r))
        repl[r] = repl.get(i, i)
    return PatternDraw(degree, tuple(out))


@dataclass(frozen=True)
class AccessGraph:
    """Edge set of the tripartite (user-symbol)-RE graph, as flat arrays.

    One entry per edge: user index, symbol index within the user's codeword,
    and RE index (all 0-based). Edges are grouped by user: edge_user is
    non-decreasing, so np.repeat(x, user_edge_counts) expands a per-user
    array x onto the edges, as x[edge_user] would. build_access_graph emits
    edges in that order, and restricted_to keeps it.
    """

    K: int
    N: int
    T: int
    edge_user: np.ndarray
    edge_sym: np.ndarray   # within-user symbol index, 0..N-1
    edge_re: np.ndarray

    @property
    def n_edges(self):
        return len(self.edge_user)

    @cached_property
    def user_edge_counts(self):
        """Per user: the number of edges, the length of the user's run of
        consecutive edges."""
        return np.bincount(self.edge_user, minlength=self.K)

    @cached_property
    def has_edges(self):
        """Per user: True if the user has at least one edge."""
        return self.user_edge_counts > 0

    def restricted_to(self, users):
        """The subgraph of the edges of the users where the bool mask
        `users` is True, in their order here."""
        keep = users[self.edge_user]
        return AccessGraph(self.K, self.N, self.T, self.edge_user[keep],
                           self.edge_sym[keep], self.edge_re[keep])

    @cached_property
    def edge_live_sym(self):
        """Each edge's flat index into an (N, n_live) array that holds one
        column per user with edges (n_live of them): symbol * n_live +
        (rank of the user among them)."""
        rank = np.cumsum(self.has_edges) - 1
        n_live = np.count_nonzero(self.has_edges)
        return self.edge_sym * n_live + rank[self.edge_user]


# draws generated per block of users in build_access_graph; bounds the
# size of the temporaries at large T
_BLOCK_DRAWS = 1 << 16


def _splitmix64_array(z):
    """splitmix64 over a uint64 array, in place (wrapping); returns z."""
    z += np.uint64(_GOLDEN)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MUL1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MUL2)
    z ^= z >> np.uint64(31)
    return z


def _u01_array(stream, counter):
    """_u01 over a uint64 array of streams."""
    return _splitmix64_array(stream + np.uint64(counter)) / 2.0**64


def _draw_block(seed_hash, users, T, racf, N):
    """derive_draw for every (user, re) of a user block, as edge arrays.

    Edges come out ordered by user, then RE, then pick, as the scalar loop
    emits them.
    """
    h_user = _splitmix64_array(np.uint64(seed_hash)
                               ^ users.astype(np.uint64))
    stream = _splitmix64_array(
        (h_user[:, None] ^ np.arange(T, dtype=np.uint64)[None, :]).ravel())
    # first d with u < acc, acc the running sum of probs, as in derive_draw;
    # a draw with u < acc[0] has degree 0, so only the others are searched
    acc = np.cumsum(racf)
    u = _u01_array(stream, 0)
    rows = np.flatnonzero(u >= acc[0])
    stream, u = stream[rows], u[rows]
    degree = np.minimum(np.searchsorted(acc, u, side="right"),
                        min(len(racf) - 1, N))
    # partial Fisher-Yates, round i over the rows still drawing; the
    # replacement dict is a key and a value column per round, and a later
    # write to a key shadows the earlier ones
    width = int(degree.max(initial=0))
    out = np.zeros((len(rows), width), dtype=np.int64)
    keys = np.full((len(rows), width), -1, dtype=np.int64)
    vals = np.zeros((len(rows), width), dtype=np.int64)

    def lookup(sel, key, i):
        found = key.copy()
        for j in range(i):
            hit = keys[sel, j] == key
            found[hit] = vals[sel, j][hit]
        return found

    for i in range(width):
        sel = np.flatnonzero(degree > i)
        r = i + (_u01_array(stream[sel], 1 + i) * (N - i)).astype(np.int64)
        out[sel, i] = lookup(sel, r, i)
        vals[sel, i] = lookup(sel, np.full(len(sel), i, dtype=np.int64), i)
        keys[sel, i] = r
    picked = np.arange(width) < degree[:, None]
    return (np.repeat(users[rows // T], degree), out[picked],
            np.repeat(rows % T, degree))


def build_access_graph(cfg: SystemConfig) -> AccessGraph:
    """Materialize every user's pattern over all T REs into one edge list.

    Array form of derive_draw over every (user, re), edge for edge the
    same; users are drawn in blocks of about _BLOCK_DRAWS draws.
    """
    seed_hash = splitmix64(int(cfg.system_seed) & _MASK)
    step = max(1, _BLOCK_DRAWS // cfg.T)
    parts = [_draw_block(seed_hash, np.arange(k, min(k + step, cfg.K)),
                         cfg.T, cfg.racf, cfg.N)
             for k in range(0, cfg.K, step)]
    users, syms, res = (np.concatenate(col) for col in zip(*parts))
    return AccessGraph(cfg.K, cfg.N, cfg.T, users, syms, res)


def dump_graph(graph: AccessGraph, path):
    """Write one `k j t` line per edge, 1-based, for differential testing."""
    order = np.lexsort((graph.edge_re, graph.edge_sym, graph.edge_user))
    with open(path, "w") as f:
        for i in order:
            f.write(f"{graph.edge_user[i] + 1} {graph.edge_sym[i] + 1} "
                    f"{graph.edge_re[i] + 1}\n")
