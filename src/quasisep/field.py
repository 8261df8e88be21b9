"""Word-size prime fields, dense matrix kernels and permutations.

Matrices are numpy int64 arrays holding canonical residues in [0, p).
Every kernel reduces mod p eagerly so all intermediates stay below 2**63.
Row/column indices are 0-based throughout the code; the docstrings spell
out the 1-based convention where a definition is usually stated that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

WORD_BOUND = 1 << 31
_INT64_MAX = (1 << 63) - 1
_FLOAT_EXACT = 1 << 53     # float64 holds every integer below this exactly
_FLOAT_MIN_WORK = 4096     # m*k*n where the float64 path starts to win


@lru_cache(maxsize=64)
def _is_prime(p: int) -> bool:
    """Trial division below 2**16, where it takes at most 128 divisions
    and allocates less than one modular power; above it, deterministic
    Miller-Rabin: the bases 2, 7 and 61 decide every p < 4,759,123,141,
    which covers the word range below 2**31.  The verdicts of the last
    few moduli are cached, since every `PrimeField` call asks again."""
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    if p < 1 << 16:
        d = 3
        while d * d <= p:
            if p % d == 0:
                return False
            d += 2
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 7, 61):
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field Z/pZ for a prime p with 2 <= p < 2**31."""

    def __init__(self, p: int):
        p = int(p)
        if not 2 <= p < WORD_BOUND:
            raise ValueError(f"modulus must lie in [2, 2**31), got {p}")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)


@dataclass
class OpCounter:
    """Explicit field-operation tally; passed by the caller, never global."""

    adds: int = 0
    muls: int = 0
    invs: int = 0

    def count_matmul(self, m: int, k: int, n: int) -> None:
        """Classical m*k*n product counts."""
        self.muls += m * k * n
        self.adds += m * n * max(k - 1, 0)


class Permutation:
    """Permutation of {0..n-1}, as the 0/1 matrix with a 1 at (img[j], j)."""

    def __init__(self, img):
        img = np.asarray(img, dtype=np.int64)
        if img.ndim != 1:
            raise ValueError("permutation image must be a 1-d array")
        n = img.shape[0]
        if n and (np.sort(img) != np.arange(n)).any():
            raise ValueError("permutation image is not a bijection")
        self.img = img

    def __len__(self) -> int:
        return self.img.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and np.array_equal(self.img, other.img)

    def __repr__(self) -> str:
        return f"Permutation({self.img.tolist()})"

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self.img)
        inv[self.img] = np.arange(len(self), dtype=np.int64)
        return Permutation(inv)

    # In every helper below, self plays the role of its permutation matrix M.

    def apply_rows(self, A: np.ndarray) -> np.ndarray:
        """M @ A."""
        out = np.empty_like(A)
        out[self.img] = A
        return out

    def apply_rows_inv(self, A: np.ndarray) -> np.ndarray:
        """M.T @ A."""
        return A[self.img]

    def apply_cols(self, A: np.ndarray) -> np.ndarray:
        """A @ M."""
        return A[:, self.img]

    def apply_cols_inv(self, A: np.ndarray) -> np.ndarray:
        """A @ M.T."""
        out = np.empty_like(A)
        out[:, self.img] = A
        return out


def mat(field: PrimeField, rows) -> np.ndarray:
    """Build a reduced int64 matrix from nested lists (test/CLI convenience)."""
    return np.array(rows, dtype=np.int64) % field.p


def residues(A, field: PrimeField) -> np.ndarray:
    """A as int64 residues in [0, p): A itself when it already holds them
    (checked by its min and max), else a reduced copy.  Callers that may
    be handed A itself only read it."""
    A = np.asarray(A)
    if A.dtype == np.int64 and (A.size == 0 or (A.min() >= 0 and A.max() < field.p)):
        return A
    return np.asarray(A, dtype=np.int64) % field.p


def random_matrix(rng: np.random.Generator, m: int, n: int, field: PrimeField) -> np.ndarray:
    return rng.integers(0, field.p, size=(m, n), dtype=np.int64)


def mat_mul(A: np.ndarray, B: np.ndarray, field: PrimeField,
            counter: OpCounter | None = None, *,
            C: np.ndarray | None = None) -> np.ndarray:
    """Exact product of reduced operands with classical operation counts;
    with a reduced C, the Schur update (C - A B) mod p as a new array, C
    unwritten and m n more additions counted.  Stacked N x m x k and
    N x k x n operands (and an N x m x n C) give the N products of their
    slices, each made and counted as the 2-d product of its own shape.

    When every dot product stays below 2**53, k * (p-1)**2 < 2**53, each
    partial sum is an integer that float64 holds exactly in any summation
    order, so the product runs in float64 BLAS and is converted back to
    int64 before the reduction (the approach of FFLAS-FFPACK).  C is
    subtracted before that conversion, still exactly, since every value
    lies in (-k (p-1)**2, p), so the update costs one reduction.  Where
    k (p-1)**2 >= 2**53, `_limb_product` cuts the smaller operand into
    limbs narrow enough for every limb product to be exact in float64 and
    hands back an array congruent to A B, finished the same way.
    Products below _FLOAT_MIN_WORK multiplications, and those with one
    column or one inner index, stay on int64: there converting the
    operands costs as much as the product.  So does k (p-1) >= 2**53,
    where not even one-bit limbs would be exact: over four million inner
    indices near the 2**31 bound.  On the int64 path accumulation,
    started from C, is chunked so that partial sums never exceed int64
    range, which matters only for moduli close to the 2**31 bound.
    """
    sa, sb = A.shape, B.shape
    if len(sa) != len(sb) or len(sa) not in (2, 3):
        raise ValueError("mat_mul expects two 2-d or two stacked 3-d operands")
    if sa[:-2] != sb[:-2] or sa[-1] != sb[-2]:
        raise ValueError(f"dimension mismatch: {sa} x {sb}")
    p = field.p
    m = sa[-2]
    k, n = sb[-2:]
    shape = sa[:-1] + (n,)
    if C is not None and C.shape != shape:
        raise ValueError(f"C has shape {C.shape}, the product {shape}")
    if counter is not None:
        N = sa[0] if len(sa) == 3 else 1
        counter.count_matmul(N * m, k, n)
        if C is not None and k:
            counter.adds += N * m * n
    if k == 0 or 0 in shape:
        return np.zeros(shape, dtype=np.int64) if C is None else C % p
    if n > 1 and k > 1 and m * k * n >= _FLOAT_MIN_WORK and k * (p - 1) < _FLOAT_EXACT:
        if k * (p - 1) ** 2 < _FLOAT_EXACT:
            R = A.astype(np.float64) @ B.astype(np.float64)
        else:
            R = _limb_product(A, B, p)
        if C is not None:
            np.subtract(C, R, out=R)
        R = R.astype(np.int64, copy=False)
        R %= p
        return R
    step = max(1, (_INT64_MAX - p) // ((p - 1) ** 2))
    if k <= step:
        return (A @ B) % p if C is None else (C - A @ B) % p
    if C is None:
        acc = np.zeros(shape, dtype=np.int64)
    else:
        acc, A = C, -A
    for lo in range(0, k, step):
        acc = (acc + A[..., lo:lo + step] @ B[..., lo:lo + step, :]) % p
    return acc


def _limb_product(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """`mat_mul`'s float64 product for k (p-1)**2 >= 2**53 > k (p-1):
    an array congruent to A B mod p, float64 below 2**53 or int64 below
    2**62, so that the caller finishes it as a plain float64 product.

    The smaller operand X is cut into l limbs of b bits with `>>` and `&`,
    X = sum_i X_i 2**(b i); Y is the other.  The powers 2**(b i) are
    joined on the smaller side, so that no temporary is larger than both
    the output and the float64 copy of an operand that a plain product
    makes:
    - when the l-fold operands fit in the output, on Y: X Y is congruent
      to sum_i X_i ((2**(b i) Y) mod p), one GEMM with inner dimension
      l k, exact for b the largest with l k (2**b - 1)(p-1) < 2**53;
    - otherwise on the output: one GEMM per limb into one float64
      buffer, against Y converted once, exact for b the largest with
      k (2**b - 1)(p-1) < 2**53, and joined from the top limb down by
      Horner's rule in int64, acc = (acc mod p) 2**b + R_i, which stays
      below 2**31 2**b + 2**53 < 2**62.
    The first case is the one of few inner indices and a large output,
    where it spares the output l - 1 reductions.  Its b stays >= 1: b = 0
    would need k > 2**17, and the operands' l-fold size is then below the
    output's only for outputs of over 2**38 entries.
    """
    k, n = B.shape[-2:]
    bits = (p - 1).bit_length()
    b = ((_FLOAT_EXACT - 1) // (k * (p - 1)) + 1).bit_length() - 1
    limbs = -(-bits // b)
    mask = (1 << b) - 1
    left = A.size <= B.size
    if limbs * (A.size + B.size) <= A.size // k * n:
        while limbs * k * mask * (p - 1) >= _FLOAT_EXACT:
            b -= 1
            limbs, mask = -(-bits // b), (1 << b) - 1
        shift = b * np.arange(limbs)
        As, Bs = A[..., None, :], B[..., None, :, :]
        if left:
            As = (As >> shift[:, None]) & mask
            Bs = (Bs << shift[:, None, None]) % p
        else:
            As = (As << shift[:, None]) % p
            Bs = (Bs >> shift[:, None, None]) & mask
        As = As.reshape(A.shape[:-1] + (-1,)).astype(np.float64)
        Bs = Bs.reshape(B.shape[:-2] + (-1, n)).astype(np.float64)
        return As @ Bs
    X, Y = (A, B) if left else (B, A)
    Y = Y.astype(np.float64)
    R = acc = None
    for i in reversed(range(limbs)):
        L = ((X >> (b * i)) & mask).astype(np.float64)
        R = np.matmul(L, Y, out=R) if left else np.matmul(Y, L, out=R)
        if acc is None:
            acc = R.astype(np.int64)
            continue
        acc %= p
        acc <<= b
        np.add(acc, R, out=acc, dtype=np.int64, casting="unsafe")
    return acc


def mat_vec(A: np.ndarray, x: np.ndarray, field: PrimeField,
            counter: OpCounter | None = None) -> np.ndarray:
    """A x mod p for any integer A and x: both are reduced first, since
    `mat_mul` is exact on residues only."""
    x = residues(x, field)
    return mat_mul(residues(A, field), x.reshape(-1, 1), field, counter).ravel()


def trsm_unit_lower(L: np.ndarray, B: np.ndarray, field: PrimeField,
                    counter: OpCounter | None = None) -> np.ndarray:
    """Solve L @ X = B for unit lower triangular L (forward substitution)."""
    r = L.shape[0]
    if L.shape != (r, r):
        raise ValueError("L must be square")
    if B.shape[0] != r:
        raise ValueError("dimension mismatch in trsm_unit_lower")
    if r and ((L.diagonal() != 1).any() or np.triu(L, 1).any()):
        raise ValueError("L is not unit lower triangular")
    return _lower_solve(L, B, field, counter)


def _lower_solve(L: np.ndarray, B: np.ndarray, field: PrimeField,
                 counter: OpCounter | None) -> np.ndarray:
    """`trsm_unit_lower` by halves: X1 = L11^-1 B1, then
    X2 = L22^-1 (B2 - L21 X1) with one fused `mat_mul`."""
    r = L.shape[0]
    if r <= 1:
        return B % field.p
    h = r // 2
    X1 = _lower_solve(L[:h, :h], B[:h], field, counter)
    B2 = mat_mul(L[h:, :h], X1, field, counter, C=B[h:])
    return np.concatenate([X1, _lower_solve(L[h:, h:], B2, field, counter)])


def trsm_upper_right(B: np.ndarray, U: np.ndarray, field: PrimeField,
                     counter: OpCounter | None = None) -> np.ndarray:
    """Solve X @ U = B for invertible upper triangular U (back substitution)."""
    r = U.shape[0]
    if U.shape != (r, r):
        raise ValueError("U must be square")
    if B.shape[1] != r:
        raise ValueError("dimension mismatch in trsm_upper_right")
    if r and np.tril(U, -1).any():
        raise ValueError("U is not upper triangular")
    if (U.diagonal() == 0).any():
        raise ZeroDivisionError("U has a zero diagonal entry")
    return _upper_solve(B, U, field, counter) if r else B % field.p


def _upper_solve(B: np.ndarray, U: np.ndarray, field: PrimeField,
                 counter: OpCounter | None) -> np.ndarray:
    """`trsm_upper_right` by halves: X1 = B1 U11^-1, then
    X2 = (B2 - X1 U12) U22^-1 with one fused `mat_mul`."""
    r = U.shape[0]
    if r == 1:
        if counter is not None:
            counter.invs += 1
            counter.muls += B.shape[0]
        return (B * field.inv(int(U[0, 0]))) % field.p
    h = r // 2
    X1 = _upper_solve(B[:, :h], U[:h, :h], field, counter)
    B2 = mat_mul(X1, U[:h, h:], field, counter, C=B[:, h:])
    return np.concatenate([X1, _upper_solve(B2, U[h:, h:], field, counter)], axis=1)


def region_mask(m: int, n: int, c: int) -> np.ndarray:
    """Entries (i, j) of an m x n block with i + j <= c (0-based)."""
    return np.add.outer(np.arange(m), np.arange(n)) <= c


def left_part(A: np.ndarray) -> np.ndarray:
    """Keep entries with i + j <= n (1-based), i.e. i + j <= n - 2 0-based."""
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("left_part expects a square matrix")
    return np.where(region_mask(n, n, n - 2), A, 0)


def is_left_triangular(A: np.ndarray) -> bool:
    n = A.shape[0]
    if A.shape != (n, n):
        return False
    return bool((A[~region_mask(n, n, n - 2)] == 0).all())


def reverse_rows(A: np.ndarray) -> np.ndarray:
    """J_n @ A."""
    return A[::-1].copy()


def reverse_cols(A: np.ndarray) -> np.ndarray:
    """A @ J_n."""
    return A[:, ::-1].copy()


def strict_lower(A: np.ndarray) -> np.ndarray:
    return np.tril(A, -1)


def strict_upper(A: np.ndarray) -> np.ndarray:
    return np.triu(A, 1)


def rank(A: np.ndarray, field: PrimeField) -> int:
    """Exact rank by plain Gaussian elimination; oracle-grade, no pivoting tricks."""
    p = field.p
    W = np.array(A, dtype=np.int64) % p
    m, n = W.shape
    r = 0
    for j in range(n):
        if r == m:
            break
        nz = np.nonzero(W[r:, j])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            W[[r, i]] = W[[i, r]]
        inv = field.inv(int(W[r, j]))
        if r + 1 < m:
            factors = (W[r + 1:, j] * inv) % p
            W[r + 1:, j:] = (W[r + 1:, j:] - np.outer(factors, W[r, j:])) % p
        r += 1
    return r

