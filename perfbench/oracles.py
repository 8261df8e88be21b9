"""Checks for the benchmark's outputs that share no code path with the library.

Each check reads the data a library call returned and compares it with a
value computed here from the dense input: plain numpy (or Python-integer)
arithmetic, never a library kernel.  The one exception is input
certification, which uses the library's oracle-grade `field.rank` on a
single block, outside every timed region.
"""

from __future__ import annotations

import dataclasses

import numpy as np

_INT64_BOUND = 1 << 63
FREIVALDS_VECTORS = 2   # random vectors per product check


def mulmod(A: np.ndarray, X: np.ndarray, p: int) -> np.ndarray:
    """Exact (A @ X) mod p, summing in chunks small enough for int64."""
    step = max(1, (_INT64_BOUND - p) // (p - 1) ** 2)
    k = A.shape[-1]
    acc = (A[..., :step] @ X[:step]) % p
    for lo in range(step, k, step):
        acc = (acc + A[..., lo:lo + step] @ X[lo:lo + step]) % p
    return acc


def lowrank(rng: np.random.Generator, n: int, s: int, p: int) -> np.ndarray:
    """X @ Y mod p for random n x s and s x n factors."""
    X = rng.integers(0, p, (n, s), dtype=np.int64)
    Y = rng.integers(0, p, (s, n), dtype=np.int64)
    return mulmod(X, Y, p)


def certified_qs(rng: np.random.Generator, n: int, s: int, p: int, rank) -> np.ndarray:
    """Random n x n matrix whose lower and upper quasiseparable orders are exactly s.

    Masking a rank-s product to a strict triangle bounds the order by s;
    one k x (n - k) block of rank s (checked with `rank`) attains it.
    """
    k = n // 2
    while True:
        low = np.tril(lowrank(rng, n, s, p), -1)
        up = np.triu(lowrank(rng, n, s, p), 1)
        M = low + up + np.diag(rng.integers(0, p, n, dtype=np.int64))
        # Leading k x (n-k) blocks of J*strict_lower(M) and strict_upper(M)*J.
        if rank(M[n - k:, :n - k][::-1], p) == s and rank(M[:k, k:][:, ::-1], p) == s:
            return M


# ---------------------------------------------------------------------------
# applying a generator to a vector, from its stored data alone


def _left_apply(n: int, Lcols: np.ndarray, Urows: np.ndarray, x: np.ndarray,
                p: int) -> np.ndarray:
    """y = Left(Lcols @ Urows) x, where Left keeps entries with a + c <= n - 2."""
    if Lcols.shape[1] == 0:
        return np.zeros(n, dtype=np.int64)
    prefix = np.cumsum((Urows * x) % p, axis=1) % p       # r x n, prefix over c
    cut = n - 2 - np.arange(n)                             # last column row a may use
    G = np.zeros((Urows.shape[0], n), dtype=np.int64)
    G[:, cut >= 0] = prefix[:, cut[cut >= 0]]
    return ((Lcols * G.T) % p).sum(axis=1) % p


def _bruhat_apply(g, x: np.ndarray, p: int) -> np.ndarray:
    n, r = g.n, len(g.pivots)
    Lcols = np.zeros((n, r), dtype=np.int64)
    Urows = np.zeros((r, n), dtype=np.int64)
    for k, ((i, j), lseg, useg) in enumerate(zip(g.pivots, g.lower_segs, g.upper_segs)):
        Lcols[i:i + len(lseg), k] = lseg
        Urows[k, j:j + len(useg)] = useg
    return _left_apply(n, Lcols, Urows, x, p)


def _echelon_columns(c, p: int) -> dict:
    """Column (original index -> n-vector) of one compressed echelon side."""
    C = np.zeros((c.n, c.r), dtype=np.int64)
    S = np.zeros((c.n, c.r), dtype=np.int64)
    starts = np.cumsum([0] + list(c.block_rows))
    col = 0
    for b, blk in enumerate(c.diag_blocks):
        C[starts[b]:starts[b + 1], col:col + blk.shape[1]] = blk
        col += blk.shape[1]
    for b, blk in enumerate(c.sub_blocks, start=1):
        cj = (b - 1) * c.s
        S[starts[b]:starts[b + 1], cj:cj + blk.shape[1]] = blk
    for target, source in reversed(c.moves):
        S[:, source] = (S[:, source] + S[:, target]) % p
        S[:, target] = 0
    C = (C + S) % p
    return {int(orig): C[:, q] for q, orig in enumerate(c.ech_cols)}


def _compact_apply(cb, x: np.ndarray, p: int) -> np.ndarray:
    lower = _echelon_columns(cb.lower, p)     # column j of L
    upper = _echelon_columns(cb.upper, p)     # column i of U^T, i.e. row i of U
    n, r = cb.n, len(cb.pivots)
    Lcols = np.zeros((n, r), dtype=np.int64)
    Urows = np.zeros((r, n), dtype=np.int64)
    for k, (i, j) in enumerate(cb.pivots):
        Lcols[:, k] = lower[j]
        Urows[k] = upper[i]
    return _left_apply(n, Lcols, Urows, x, p)


def _tree_apply(node, x: np.ndarray, p: int) -> np.ndarray:
    if not hasattr(node, "pluq"):
        return mulmod(node.block, x, p)
    d = node.pluq
    h = d.L.shape[0]
    # The node's top-left block is Pm (L U) Qm with Pm[img[j], j] = 1.
    t = np.empty(h, dtype=np.int64)
    t[d.Q.img] = x[:h]
    t = mulmod(d.L, mulmod(d.U, t, p), p)
    top = np.empty(h, dtype=np.int64)
    top[d.P.img] = t
    top = (top + _tree_apply(node.top_right, x[h:], p)) % p
    return np.concatenate([top, _tree_apply(node.bottom_left, x[:h], p)])


def rep_apply(rep, x: np.ndarray, p: int) -> np.ndarray:
    """Left triangular matrix a generator represents, times x."""
    if hasattr(rep, "root"):
        xp = np.zeros(rep.size, dtype=np.int64)
        xp[:rep.n] = x
        return _tree_apply(rep.root, xp, p)[:rep.n]
    if hasattr(rep, "lower_segs"):
        return _bruhat_apply(rep, x, p)
    return _compact_apply(rep, x, p)


def qs_apply(Q, x: np.ndarray, p: int) -> np.ndarray:
    """M x for M = J rep(lower) + diag + rep(upper) J, from the generator data."""
    low = rep_apply(Q.lower, x, p)[::-1]
    up = rep_apply(Q.upper, x[::-1].copy(), p)
    return (low + up + Q.diag * x) % p


# ---------------------------------------------------------------------------
# products and structural equality


def freivalds_vectors(rng: np.random.Generator, A: np.ndarray, B: np.ndarray, p: int):
    """Random V (n x FREIVALDS_VECTORS) and A (B V) mod p, both as Python-integer arrays."""
    V = rng.integers(0, p, (B.shape[1], FREIVALDS_VECTORS), dtype=np.int64).astype(object)
    return V, (A.astype(object) @ ((B.astype(object) @ V) % p)) % p


def freivalds_ok(C: np.ndarray, V, ABV, p: int) -> bool:
    """C V == A B V in Python integers, exact at any word-size p."""
    C = np.asarray(C)
    if C.shape != (V.shape[0], V.shape[0]):
        return False
    return bool(((C.astype(object) @ V) % p == ABV).all())


def same(a, b) -> bool:
    """Exact structural equality of library results (arrays, dataclasses, objects)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.shape == b.shape and bool(np.array_equal(a, b)))
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(same(u, v) for u, v in zip(a, b)))
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same(a[key], b[key]) for key in a))
    if hasattr(a, "__dict__"):
        return type(a) is type(b) and same(vars(a), vars(b))
    return bool(a == b)
