"""Shared test helpers: independent dense oracles and instance builders."""

import numpy as np

from quasisep import PrimeField, rank


def schoolbook_mul(A, B, field):
    """Triple-loop product, independent of the library kernels."""
    m, k = A.shape
    n = B.shape[1]
    C = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
        for j in range(n):
            acc = 0
            for t in range(k):
                acc += int(A[i, t]) * int(B[t, j])
            C[i, j] = acc % field.p
    return C


def dense_matvec(A, x, field):
    y = np.zeros(A.shape[0], dtype=np.int64)
    for i in range(A.shape[0]):
        acc = 0
        for j in range(A.shape[1]):
            acc += int(A[i, j]) * int(x[j])
        y[i] = acc % field.p
    return y


def inv_matrix(A, field):
    """Gauss-Jordan inverse; raises ZeroDivisionError if singular."""
    p = field.p
    n = A.shape[0]
    W = np.hstack([A % p, np.eye(n, dtype=np.int64)])
    for j in range(n):
        nz = np.nonzero(W[j:, j])[0]
        if nz.size == 0:
            raise ZeroDivisionError("singular matrix")
        i = j + int(nz[0])
        if i != j:
            W[[j, i]] = W[[i, j]]
        W[j] = (W[j] * field.inv(int(W[j, j]))) % p
        for r in range(n):
            if r != j and W[r, j]:
                W[r] = (W[r] - W[r, j] * W[j]) % p
    return W[:, n:]


def random_invertible_tridiagonal(n, seed, field):
    """Irreducible tridiagonal (nonzero off-diagonals), retried until invertible."""
    rng = np.random.default_rng(seed)
    p = field.p
    while True:
        T = np.zeros((n, n), dtype=np.int64)
        T[np.arange(n), np.arange(n)] = rng.integers(0, p, n)
        T[np.arange(n - 1) + 1, np.arange(n - 1)] = rng.integers(1, p, n - 1)
        T[np.arange(n - 1), np.arange(n - 1) + 1] = rng.integers(1, p, n - 1)
        try:
            return T, inv_matrix(T, field)
        except ZeroDivisionError:
            continue


def superdiagonal_above_antidiagonal(n):
    """Ones at (i, n-i) 1-based: rank n-1 but quasiseparable order 1."""
    A = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        A[i, n - 2 - i] = 1
    return A


def high_rank_left_triangular(n, s0, band, seed, field):
    """Left triangular instance whose rank far exceeds its order.

    A masked rank-s0 product supplies long pivot segments near the top
    left; random bands just above the anti-diagonal add ~n pivots with
    short segments, driving the rank toward n while the order stays near
    s0 + band.  These are the instances whose echelon compression needs
    many block columns and chained column moves.
    """
    rng = np.random.default_rng(seed)
    p = field.p
    X = rng.integers(0, p, (n, s0), dtype=np.int64)
    Y = rng.integers(0, p, (s0, n), dtype=np.int64)
    A = (X @ Y) % p
    idx = np.arange(n)
    A = np.where(np.add.outer(idx, idx) <= n - 2, A, 0)
    for w in range(band):
        d = n - 2 - w
        for i in range(max(0, d - n + 1), min(n, d + 1)):
            j = d - i
            if 0 <= j < n:
                A[i, j] = rng.integers(0, p)
    return A % p


def structured_corpus(fields, sizes):
    """(field, A) over the high-rank, banded and tridiagonal families.

    High-rank: a masked rank-2 product plus two bands at the anti-diagonal;
    banded: three bands alone; tridiagonal: both reversed triangles of an
    invertible tridiagonal matrix (rank n-1, order 1).
    """
    for f in fields:
        for n in sizes:
            yield f, high_rank_left_triangular(n, 2, 2, n, f)
            yield f, high_rank_left_triangular(n, 0, 3, n + 1, f)
            T, _ = random_invertible_tridiagonal(n, n + 2, f)
            yield f, np.tril(T, -1)[::-1].copy()
            yield f, np.triu(T, 1)[:, ::-1].copy()


def split_tree_storage(A, field, leaf_size=4):
    """Stored count of the tree that splits every block wider than
    leaf_size: 2hr - r**2 per node of rank r on its h x h block, and the
    left-region slots of each leaf."""
    def walk(B, c):
        a, b = B.shape
        if max(a, b) <= leaf_size:
            return int((np.add.outer(np.arange(a), np.arange(b)) <= c).sum())
        h = (c + 2) // 2
        r = rank(B[:h, :h], field)
        return 2 * h * r - r * r + walk(B[:h, h:], c - h) + walk(B[h:, :h], c - h)
    return walk(np.asarray(A) % field.p, A.shape[0] - 2)


# sizes around one and two elimination base blocks, and one past them
BASE_SIZES = (31, 32, 33, 63, 64, 65, 100)

F65521 = PrimeField(65521)
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F2147483647 = PrimeField(2**31 - 1)
