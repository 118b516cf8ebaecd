"""Exact linear algebra over the rationals for rank and certificate
computations, on one elimination kernel modulo a 31-bit prime.

All rank, extension, solve and support-search work runs on `_pivots_mod`,
row echelon elimination mod p, and what must hold over the rationals is
checked exactly in integers.  A rank r mod p bounds the rational rank from
below; width - r integer null vectors, independent by their unit entries
on the free columns and checked to vanish exactly, prove it (in
`rank_checked`, and in `extend_to_full_rank` from its one elimination).
`solve_rational` reads its solution off a null vector.
Both reconstruct rationals n/d from residues, which works for |n|, d <=
sqrt(p/2) (32767 here) only, or about 1.5e9 for a rank certificate whose
null vectors agree mod both primes: beyond it a certificate or solve fails
its exact check and is never wrong.  The support search decides each row drop
mod p, and `solve_rational` then solves and checks the support.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np

_PRIMES = (2147483647, 2147483629)


# Entries per block of rows converted or updated at a time, which bounds
# the int64 temporaries of `_pivots_mod` at 512 kB each.
_PIVOT_BLOCK = 1 << 16


def _integers(rows) -> np.ndarray:
    """An integer matrix (array or list of rows) as an array, of Python
    integers where numpy reads uint64 or float64 (integers in [2^63, 2^64))."""
    mat = np.asarray(rows)
    return np.array(rows, dtype=object) if mat.dtype.kind in "fu" else mat


def _mod(a: np.ndarray, p: int) -> np.ndarray:
    """Residues mod p, in int64, of an array of numpy or Python integers."""
    return (a % p if a.dtype == object else a).astype(np.int64) % p


def _pivots_mod(rows: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """Pivot columns of the row echelon form mod p < 2^31 (each column
    independent of the columns before it), and the reduced matrix mod p.

    The matrix is held mod p in int32, half the size of int64.  Each pivot,
    scaled to 1, is subtracted from the rows below it that are nonzero in
    its column, in int64 blocks of at most `_PIVOT_BLOCK` entries, so that
    no temporary grows with the matrix.
    """
    rows = np.asarray(rows)
    height, width = rows.shape
    a = np.empty((height, width), dtype=np.int32)
    step = max(1, _PIVOT_BLOCK // max(width, 1))
    for lo in range(0, height, step):
        a[lo : lo + step] = _mod(rows[lo : lo + step], p)
    pivots: list[int] = []
    rank = 0
    col = 0
    while rank < height and col < width:
        nz = np.nonzero(a[rank:, col])[0]
        if nz.size == 0:
            col += 1
            continue
        pivots.append(col)
        i = rank + nz[0]
        if i != rank:
            a[[rank, i]] = a[[i, rank]]
        inv = pow(int(a[rank, col]), p - 2, p)
        # Rows from `rank` down are zero left of `col`.
        pivot = a[rank, col:].astype(np.int64) * inv % p
        a[rank, col:] = pivot
        below = nz[1:] + rank  # the swap left the other nonzero rows in place
        step = max(1, _PIVOT_BLOCK // len(pivot))
        for lo in range(0, below.size, step):
            block_rows = below[lo : lo + step]
            block = a[block_rows, col:].astype(np.int64)
            block -= block[:, :1] * pivot
            block %= p
            a[block_rows, col:] = block
        rank += 1
        col += 1
    return pivots, a


def _rational(v: int, p: int) -> Fraction | None:
    """The one n/d = v mod p with |n|, d <= sqrt(p/2), or None (Wang's
    rational reconstruction: extended Euclid on (p, v), stopped halfway)."""
    bound = isqrt(p // 2)
    r0, r1, t0, t1 = p, v % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _null_space_mod(mat: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The free columns of the echelon form of `mat` mod p, and per free
    column a null vector (a column of V, mat @ V = 0 mod p) with 1 there and
    0 on the other free columns, in symmetric residues (-p/2, p/2].

    Its pivot entries solve the unit upper-triangular pivot block bottom-up:
    each solved row is subtracted from the rows above it that are nonzero in
    its pivot column, and the block needs no update (a solved row is zero
    in every other pivot column)."""
    pivots, a = _pivots_mod(mat, p)
    free = np.delete(np.arange(mat.shape[1]), pivots)
    x = a[: len(pivots), free].astype(np.int64)
    for i in range(len(pivots) - 1, 0, -1):
        above = np.flatnonzero(a[:i, pivots[i]])
        if above.size:
            x[above] = (x[above] - a[above, pivots[i]].astype(np.int64)[:, None] * x[i]) % p
    null = np.zeros((mat.shape[1], free.size), dtype=np.int64)
    null[free, np.arange(free.size)] = 1
    null[pivots] = -x
    null[null < -(p // 2)] += p
    return free, null


def _integer_columns(null: np.ndarray, p: int) -> np.ndarray | None:
    """Each column of symmetric residues mod p reconstructed as rationals
    and scaled by the lcm of its denominators, or None if an entry has no
    reconstruction.  A residue within the bound is its own (integer)
    reconstruction, so only the others take `_rational`."""
    bound = isqrt(p // 2)
    wide = np.flatnonzero(((null > bound) | (null < -bound)).any(axis=0))
    if not wide.size:
        return null
    out = null.astype(object)
    for j in wide:
        fracs = [_rational(v, p) for v in null[:, j].tolist()]
        if None in fracs:
            return None
        den = lcm(*(f.denominator for f in fracs))
        out[:, j] = [f.numerator * (den // f.denominator) for f in fracs]
    return out


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of integer matrices, exactly: in float64, a block of rows of a
    at a time, while no product or partial sum can reach 2^53; in Python
    integers otherwise."""
    top = max(int(a.max(initial=0)), -int(a.min(initial=0)))
    top *= max(int(b.max(initial=0)), -int(b.min(initial=0)))
    if top * a.shape[1] >= 2**53:
        return a.astype(object) @ b.astype(object)
    out = np.empty((len(a), b.shape[1]))
    b = b.astype(float)
    step = max(1, _PIVOT_BLOCK // max(a.shape[1], 1))
    for lo in range(0, len(a), step):
        np.matmul(a[lo : lo + step].astype(float), b, out=out[lo : lo + step])
    return out.astype(np.int64)


def _certified_rank(side: np.ndarray, null: np.ndarray, p: int) -> int | None:
    """The rank of `side` that its null vectors mod p (as `_null_space_mod`
    gives them) prove, reconstructed and checked exactly, or None."""
    scaled = _integer_columns(null, p)
    if scaled is None or _product(side, scaled).any():
        return None
    return side.shape[1] - null.shape[1]


def _crt(a: np.ndarray, p: int, b: np.ndarray, q: int) -> np.ndarray:
    """Symmetric residues mod pq (< 2^63) of x = a mod p, x = b mod q."""
    x = (a + p * ((b - a) % q * pow(p, -1, q) % q)) % (p * q)
    x[x > p * q // 2] -= p * q
    return x


def rank_checked(rows) -> int:
    """Rational rank of an integer matrix (2-D array or list of rows, in
    int64 or Python integers), proven by a null-space certificate.

    The null space of the transpose certifies as well, and the side with
    fewer null vectors goes first: repeated rows leave integer left null
    vectors where the right ones may need large denominators.  A failed
    check (a rank drop mod p, or an entry beyond the reconstruction bound)
    tries the second prime.  Where both primes give the side the same free
    columns, their null vectors are residues of the same rational vectors,
    and combined by CRT they reconstruct entries up to sqrt(pq/2), about
    1.5e9.  Then the other side is tried, then RuntimeError is raised.
    """
    mat = _integers(rows)
    if mat.size == 0:
        return 0
    sides = (mat, mat.T) if mat.shape[1] <= mat.shape[0] else (mat.T, mat)
    p, q = _PRIMES
    for side in sides:
        free, null = _null_space_mod(side, p)
        rank = _certified_rank(side, null, p)
        if rank is None:
            free_q, null_q = _null_space_mod(side, q)
            rank = _certified_rank(side, null_q, q)
            if rank is None and np.array_equal(free, free_q):
                rank = _certified_rank(side, _crt(null, p, null_q, q), p * q)
        if rank is not None:
            return rank
    raise RuntimeError(f"no rank certificate of a {mat.shape} integer matrix checked mod either prime")


def extend_to_full_rank(rows, candidates, p: int = _PRIMES[0]) -> tuple[int, list[int]]:
    """(rational rank of `rows`, indices of the candidate rows that, taken
    greedily in order, extend the span of `rows` mod p).

    The null vectors N of `rows` mod p map a candidate c to c N, zero
    exactly on the row span, and the candidates taken are the pivot columns
    of these residues stacked as columns.  N, checked exactly, also proves
    the rank, or else `rank_checked` does.  A candidate dependent mod p
    alone (an accident of p) is missed, which a rank count detects.
    """
    candidates = _integers(candidates)
    mat = _integers(rows).reshape(-1, candidates.shape[1])
    null = _null_space_mod(mat, p)[1]
    taken = _pivots_mod(_product(candidates, null).T, p)[0]
    rank = _certified_rank(mat, null, p)
    return rank_checked(mat) if rank is None else rank, taken


def solve_rational(columns, target) -> list[Fraction] | None:
    """Exact coefficients c with sum_i c_i columns[i] = target, or None.

    With A[:, i] = columns[i], b is in the span of A exactly when the last
    column of [A | b] is free, and the null vector of that free column
    (mod the first prime) is then (-c, 1): zero on the other free columns,
    so a column dependent on the columns before it gets c_i = 0 and the
    solution is unique when the columns are independent.  It is
    reconstructed as (-c den, den) in integers and checked exactly, as a
    rank certificate is.  None means no checked solution: b is outside the
    span, a coefficient exceeds the reconstruction bound, or p divides a
    pivot minor; never a wrong solution.
    """
    ncols = len(columns)
    aug = _integers([*columns, target]).reshape(ncols + 1, len(target)).T
    free, null = _null_space_mod(aug, _PRIMES[0])
    if ncols not in free:
        return None
    scaled = _integer_columns(null[:, -1:], _PRIMES[0])
    if scaled is None or _product(aug, scaled).any():
        return None
    den = int(scaled[ncols, 0])
    return [Fraction(-int(v), den) for v in scaled[:ncols, 0]]


def _solution_and_null_space(rows: np.ndarray, target: np.ndarray, p: int):
    """Mod-p particular solution c of c @ rows = target and a basis of the
    left null space of rows (as matrix rows), or None if there is no c: the
    null vectors of [rows^T | -target], the last giving c as in
    `solve_rational`, the others zero in the target's column."""
    free, null = _null_space_mod(np.vstack([rows, -target]).T, p)
    if len(rows) not in free:
        return None
    return null[:-1, -1] % p, null[:-1, :-1].T % p


def modular_support_search(
    rows: np.ndarray,
    target: np.ndarray,
    rng: np.random.Generator,
    retries: int,
    p: int = _PRIMES[0],
) -> list[int] | None:
    """Small row subsets whose span contains the target, found mod p.

    Randomized greedy removal: visit the nonzero rows in a random order and
    drop each one if the target stays in the span of the rows kept.  Returns
    the smallest support over `retries` orders, [] for a zero target, or None
    if the target is not in the full span.  The caller re-solves and verifies
    the support exactly, so a modular false positive surfaces as a failed
    exact solve.

    Each decision is a null-space update, not a rank test: every retry starts
    from a particular solution c (c @ rows = target) and a left null-space
    basis N.  Some solution avoids row i iff c_i = 0 or some null vector has
    n_i != 0, which is exactly the mod-p rank comparison of the rows kept with
    and without the target; a drop pivots on that vector to clear column i
    from c and N.  So a retry is an echelon reduction of N in its visiting
    order, with d = dim N pivots: a later pivot vector is zero on every
    column visited before it, and the final c is zero exactly on the rows
    the greedy pass drops.  The rank-1 updates scale by the pivot entry
    instead of dividing by it (zero patterns, and so decisions, unchanged),
    and all retries run in lockstep on an (R, d, s) stack whose columns are
    permuted into each retry's order.  The first smallest support in retry
    order wins.
    """
    rows = _mod(_integers(rows), p)
    target = _mod(_integers(target), p)
    support = [i for i in range(len(rows)) if rows[i].any()]
    start = _solution_and_null_space(rows[support], target, p)
    if start is None:
        return None
    c0, null0 = start
    orders = []
    for _ in range(max(1, retries)):
        order = list(range(len(support)))
        rng.shuffle(order)
        orders.append(order)
    orders = np.array(orders, dtype=np.intp).reshape(len(orders), len(support))
    c = c0[orders]  # (R, s): column t of retry r is its t-th visit
    null = np.ascontiguousarray(null0[:, orders].transpose(1, 0, 2))  # (R, d, s)
    retry = np.arange(len(orders))
    for step in range(null.shape[1]):
        # Rows step.. of every stack stay independent: each has a pivot.
        rest = null[:, step:]
        t = (rest != 0).any(axis=1).argmax(axis=1)
        col = rest[retry, :, t]
        k = (col != 0).argmax(axis=1)
        piv = rest[retry, k]
        scale = col[retry, k]
        c = (scale[:, None] * c - c[retry, t][:, None] * piv) % p
        rest[...] = (scale[:, None, None] * rest - col[:, :, None] * piv[:, None, :]) % p
        rest[retry, k] = rest[:, 0]  # the zeroed pivot row leaves the stack
    kept = c != 0
    best = int(np.argmin(kept.sum(axis=1)))  # the first minimum
    return sorted(support[j] for j in orders[best][kept[best]])
