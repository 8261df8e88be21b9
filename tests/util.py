"""Shared test helpers: independent dense oracles and instance builders."""

import numpy as np
from hypothesis import strategies as st

from quasisep import (BruhatGenerator, PrimeField, TreeGenerator, left_part,
                      pluq_rpm, random_left_triangular, rank)
from quasisep.field import _INT64_MAX, region_mask, residues
from quasisep.generators import TreeLeaf, TreeNode
from quasisep.structops import _bruhat_slots


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


def is_prime_trial(n):
    """Trial division: the primality oracle for `field._is_prime`."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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


def one_based(rpm):
    """Pivots of a RankProfileMatrix as 1-based (row, column) pairs."""
    return [(i + 1, j + 1) for i, j in rpm.pivots]


def permutation_matrix(P):
    """The 0/1 matrix of a Permutation: a 1 at (P.img[j], j)."""
    n = len(P)
    M = np.zeros((n, n), dtype=np.int64)
    M[P.img, np.arange(n)] = 1
    return M


def dense_factor(g, upper=False):
    """The n x n L (or U) of a Bruhat generator, from its segments: pivot
    (i, j) holds column j of L from row i on, and row i of U from column j on."""
    F = np.zeros((g.n, g.n), dtype=np.int64)
    for (i, j), lseg, useg in zip(g.pivots, g.lower_segs, g.upper_segs):
        if upper:
            F[i, j:j + len(useg)] = useg
        else:
            F[i:i + len(lseg), j] = lseg
    return F


def bruhat_column_walk(g, X, counter=None):
    """Left(L E^T U) X for a reduced n x k block X, one column at a time:
    the reference for the block walk `structops._bruhat_walk`.

    Column c restarts the running sum of each slot whose holder changes
    there (a pivot enters, or the slot falls free), adds U[c] (x) X[c] to the sums, reduced, and row n-2-c is
    L[c] . sums; where w (p-1)**2 would overflow int64 each product is
    reduced before the sum.  It counts k multiplications and additions
    per stored nonzero, as the block walk does.
    """
    n, k = X.shape
    p = g.field.p
    if counter is not None:
        nnz = k * (g.nnz_lower() + g.nnz_upper())
        counter.muls += nnz
        counter.adds += nnz
    U, L, own = _bruhat_slots(g)
    w = U.shape[1]
    Y = np.zeros((n, k), dtype=np.int64)
    if not w:
        return Y
    S = np.zeros((w, k), dtype=np.int64)
    T = np.empty((w, k), dtype=np.int64)
    exact = w * (p - 1) ** 2 <= _INT64_MAX
    for c in range(n - 1):
        S[own[c] != (own[c - 1] if c else -1)] = 0
        np.multiply(U[c, :, None], X[c], out=T)
        S += T
        S %= p
        if exact:
            np.dot(L[c], S, out=Y[n - 2 - c])
        else:
            np.multiply(L[c, :, None], S, out=T)
            T %= p
            T.sum(axis=0, out=Y[n - 2 - c])
    Y %= p
    return Y


def bruhat_triple(n, pivots, field, seed):
    """A BruhatGenerator with the given left-region pivots (distinct rows
    and columns) and random segments, each lower one led by 1."""
    rng = np.random.default_rng(seed)
    pivots = sorted(pivots)
    lens = [n - 1 - i - j for i, j in pivots]
    lower = [np.concatenate(([1], rng.integers(0, field.p, m - 1))).astype(np.int64)
             for m in lens]
    upper = [np.concatenate((rng.integers(1, field.p, 1), rng.integers(0, field.p, m - 1)))
             for m in lens]
    g = BruhatGenerator(n, field, pivots, np.concatenate([np.zeros(0, np.int64), *lower]),
                        np.concatenate([np.zeros(0, np.int64), *upper]))
    g.validate()
    return g


def decode_compact_side(c):
    """The dense L (or U, for the transposed side) that one COMPACT side
    encodes, read as the README's format describes it.

    Block row b spans k_b rows.  Column q of D_b holds echelon column q's
    entries in block row b; column a of S_(b+1), for a in block column b,
    holds entries in block row b + 1 of the column that a's relocation
    chain starts from.  After every block is placed, each relocated column
    hands what it holds back to its source, highest target first, so a
    chain unwinds one link at a time.  Echelon column q is column
    perm[q] of L, or of U^T on the transposed side.
    """
    n, s, r = c.n, c.s, len(c.src_map)
    bounds = np.cumsum([0] + list(c.block_rows))
    own = np.zeros((n, r), dtype=np.int64)       # what each D column holds
    parked = np.zeros((n, r), dtype=np.int64)    # what each S column holds
    first = 0
    for b, D in enumerate(c.diag_blocks):
        own[bounds[b]:bounds[b + 1], first:first + D.shape[1]] = D
        first += D.shape[1]
    for b, S in enumerate(c.sub_blocks):         # S_(b+2), under block column b
        parked[bounds[b + 1]:bounds[b + 2], b * s:b * s + S.shape[1]] = S
    for a in range(r - 1, -1, -1):
        source = int(c.src_map[a])
        if source != a:
            parked[:, source] += parked[:, a]
            parked[:, a] = 0
    out = np.zeros((n, n), dtype=np.int64)
    out[:, c.perm.img[:r]] = own + parked
    return out.T if c.transposed else out


def random_invertible_tridiagonal(n, seed, field):
    """Irreducible tridiagonal (nonzero off-diagonals), retried until invertible."""
    rng = np.random.default_rng(seed)
    p = field.p
    while True:
        T = np.zeros((n, n), dtype=np.int64)
        T[np.arange(n), np.arange(n)] = rng.integers(0, p, n)
        i = np.arange(max(n - 1, 0))
        T[i + 1, i] = rng.integers(1, p, len(i))
        T[i, i + 1] = rng.integers(1, p, len(i))
        try:
            return T, inv_matrix(T, field)
        except ZeroDivisionError:
            continue


def band_matrix(n, w, seed, field):
    """n x n with random nonzero entries on its 2w + 1 central diagonals:
    tridiagonal at w = 1; both strict triangles have order w and rank n - 1."""
    rng = np.random.default_rng(seed)
    i = np.arange(n)
    near = np.abs(i[:, None] - i[None]) <= w
    return np.where(near, rng.integers(1, field.p, (n, n), dtype=np.int64), 0)


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


def per_node_tree(A, field, leaf_size=4):
    """The tree by the per-node rule, top down: every split block is
    factored by `pluq_rpm`, and one whose h x h block has full rank and
    whose children are leaves is replaced by one leaf of its whole block."""
    def leaf(B, c):
        return TreeLeaf(np.where(region_mask(*B.shape, c), residues(B, field), 0))

    def build(B, c):
        if max(B.shape) <= leaf_size:
            return leaf(B, c)
        h = (c + 2) // 2
        node = TreeNode(pluq_rpm(B[:h, :h], field),
                        build(B[:h, h:], c - h), build(B[h:, :h], c - h))
        if node.pluq.r == h and isinstance(node.top_right, TreeLeaf) \
                and isinstance(node.bottom_left, TreeLeaf):
            return leaf(B, c)
        return node

    n = A.shape[0]
    return TreeGenerator(n, build(A, n - 2), field, leaf_size)


# sizes around one and two elimination base blocks, and one past them
BASE_SIZES = (31, 32, 33, 63, 64, 65, 100)

F65521 = PrimeField(65521)
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F2147483647 = PrimeField(2**31 - 1)

EDGE_FIELDS = (F2, F3, F65521, F2147483647)
FAMILIES = ("random", "banded", "tridiagonal", "sparse", "corner", "zero")


@st.composite
def instances(draw):
    """(field, A) for an n x n left triangular A, n <= 70, from one family,
    at the small primes and at both ends of the modulus range."""
    f = draw(st.sampled_from(EDGE_FIELDS))
    n = draw(st.integers(0, 70))
    family = draw(st.sampled_from(FAMILIES))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    if family == "random":
        A = random_left_triangular(n, draw(st.integers(0, max(0, n - 1))), seed, f)
    elif family == "banded":
        A = high_rank_left_triangular(n, 0, draw(st.integers(1, 4)), seed, f)
    elif family == "tridiagonal":   # J times the strict lower part of one
        i = np.arange(max(n - 1, 0))
        A = np.zeros((n, n), dtype=np.int64)
        A[n - 2 - i, i] = rng.integers(1, f.p, len(i))
    elif family == "sparse":
        A = left_part(np.where(rng.random((n, n)) < 0.1,
                               rng.integers(0, f.p, (n, n), dtype=np.int64), 0))
    elif family == "corner":      # a rank-k block in the top-left corner
        m = draw(st.integers(0, n))
        A = np.zeros((n, n), dtype=np.int64)
        A[:m, :m] = random_left_triangular(m, draw(st.integers(0, max(0, m - 1))), seed, f)
        A = left_part(A)
    else:
        A = np.zeros((n, n), dtype=np.int64)
    return f, A
