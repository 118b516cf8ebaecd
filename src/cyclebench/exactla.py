"""Exact and modular linear algebra over the rationals for rank and
certificate computations.

Rank tests on learnability systems must not rely on floating point: the
coefficient rows carry small integers and quarters, and near-degenerate
float ranks are untrustworthy.  Small systems run fraction-free integer
elimination (exact).  Large rank queries run vectorized elimination modulo
two independent 31-bit primes; a modular rank is a certified lower bound on
the rational rank, and agreement of both primes is accepted for the upper
bound (disagreement falls back to the exact path).  All modular rank,
extension and solution work runs on one elimination kernel, `_pivots_mod`.

The certificate support search works mod p from one elimination per call:
a particular solution and a left null-space basis, reduced in each retry's
visiting order by one rank-1 step per pivot, all retries in lockstep.  Its
decisions match the rank comparison exactly mod p.  The support is then
solved exactly on the same fraction-free integer elimination as the exact
rank, and the solution is checked against every equation in integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

_PRIMES = (2147483647, 2147483629)


def _normalize(row: list[int]) -> list[int]:
    g = 0
    for v in row:
        if v:
            g = gcd(g, abs(v))
            if g == 1:
                return row
    if g > 1:
        return [v // g for v in row]
    return row


def _echelon_int(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form; returns (reduced rows, pivot columns)."""
    work = [_normalize([int(v) for v in r]) for r in rows]
    work = [r for r in work if any(r)]
    if not work:
        return [], []
    ncols = len(work[0])
    echelon: list[list[int]] = []
    pivots: list[int] = []
    col = 0
    while work and col < ncols:
        best = None
        for i, r in enumerate(work):
            if r[col]:
                if best is None or abs(r[col]) < abs(work[best][col]):
                    best = i
                    if abs(r[col]) == 1:
                        break
        if best is None:
            col += 1
            continue
        piv = work.pop(best)
        pv = piv[col]
        nxt = []
        for r in work:
            if r[col]:
                f = r[col]
                r = _normalize([pv * a - f * b for a, b in zip(r, piv)])
                if not any(r):
                    continue
            nxt.append(r)
        work = nxt
        echelon.append(piv)
        pivots.append(col)
        col += 1
    return echelon, pivots


def rank_exact(rows) -> int:
    echelon, _ = _echelon_int([list(r) for r in rows])
    return len(echelon)


def _rank_mod(rows: np.ndarray, p: int) -> int:
    return len(_pivots_mod(rows, p)[0])


# Entries per block of rows converted or updated at a time, which bounds
# the int64 temporaries of `_pivots_mod` at 512 kB each.
_PIVOT_BLOCK = 1 << 16


def _pivots_mod(
    rows: np.ndarray, p: int, nrows: int | None = None, ncols: int | None = None
) -> tuple[list[int], np.ndarray]:
    """Pivot columns of the row echelon form mod p < 2^31 (each column
    independent of the columns before it), and the reduced matrix mod p.

    Pivots are taken among the first `nrows` rows and `ncols` columns (all
    by default); every row below the pivot is reduced, so rows past `nrows`
    record the combinations that eliminate them.  The matrix is held mod p
    in int32, half the size of int64.  Each pivot, scaled to 1, is
    subtracted from the rows below it that are nonzero in its column, in
    int64 blocks of at most `_PIVOT_BLOCK` entries, so that no temporary
    grows with the matrix.
    """
    rows = np.asarray(rows)
    height, width = rows.shape
    nrows = height if nrows is None else nrows
    ncols = width if ncols is None else ncols
    a = np.empty((height, width), dtype=np.int32)
    step = max(1, _PIVOT_BLOCK // max(width, 1))
    for lo in range(0, height, step):
        block = rows[lo : lo + step].astype(np.int64)
        block %= p
        a[lo : lo + step] = block
    pivots: list[int] = []
    rank = 0
    col = 0
    while rank < nrows and col < ncols:
        nz = np.nonzero(a[rank:, col])[0]
        if nz.size == 0 or nz[0] >= nrows - rank:
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


def rank_checked(rows, rank_p0: int | None = None) -> int:
    """Rational rank of an integer matrix (2-D array or list of rows);
    exact for small systems, dual-prime modular above.  `rank_p0`, the rank
    mod the first prime when the caller already has it (for instance from
    `extend_to_full_rank`), is not computed again."""
    mat = np.asarray(rows)  # kept in its dtype: each path converts it once
    if mat.size == 0:
        return 0
    nonzero = mat.any(axis=1)
    if not nonzero.all():
        mat = mat[nonzero]
    if mat.size <= 20000:
        return rank_exact(mat)
    r0 = _rank_mod(mat, _PRIMES[0]) if rank_p0 is None else rank_p0
    r1 = _rank_mod(mat, _PRIMES[1])
    if r0 == r1:
        return r0
    return rank_exact(mat)


def extend_to_full_rank(rows, candidates, p: int = _PRIMES[0]) -> tuple[int, list[int]]:
    """(rank of `rows` mod p, indices of the candidate rows that, taken
    greedily in order, extend the span of `rows`), integer matrices of equal
    width, decided mod p.

    Stacked as the columns of one matrix, rows first, the rank is the
    number of pivot columns among the rows and the candidates taken are the
    pivot columns past them: a pivot column is independent of the columns
    before it.  Rows independent mod p are independent over the rationals,
    so no dependent candidate is taken; a candidate dependent mod p alone
    (an accident of p) is missed, which a rank count detects.
    """
    pivots = _pivots_mod(np.vstack([rows, candidates]).T, p)[0]
    taken = [col - len(rows) for col in pivots if col >= len(rows)]
    return len(pivots) - len(taken), taken


def solve_rational(columns, target) -> list[Fraction] | None:
    """Exact coefficients c with sum_i c_i columns[i] = target, or None.

    `_echelon_int` reduces the equations [A | b], A[:, i] = columns[i]; a
    pivot in the b column means b is outside the column span.  Every pivot
    column is independent of the columns before it, so a column dependent on
    earlier ones gets c_i = 0 (the solution is unique when the columns are
    independent), and back-substitution over the pivot columns in Fractions
    gives the others.  The result is then checked against every equation in
    integers, scaled by the lcm of the coefficient denominators.
    """
    ncols = len(columns)
    cols = [[int(v) for v in col] for col in columns]
    rhs = [int(v) for v in target]
    echelon, pivots = _echelon_int([[col[i] for col in cols] + [b] for i, b in enumerate(rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    coeffs = [Fraction(0)] * ncols
    for row, col in zip(reversed(echelon), reversed(pivots)):
        acc = row[ncols] - sum(row[j] * coeffs[j] for j in range(col + 1, ncols) if coeffs[j])
        coeffs[col] = acc / Fraction(row[col])
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    for i, b in enumerate(rhs):
        if sum(v * col[i] for v, col in zip(ints, cols) if v) != den * b:
            return None
    return coeffs


def _solution_and_null_space(rows: np.ndarray, target: np.ndarray, p: int):
    """Mod-p particular solution c of c @ rows = target and a basis of the
    left null space of rows (as matrix rows), or None if no solution exists.

    `_pivots_mod` eliminates [rows | I; target | 0] with pivots among the
    rows and their columns only: the identity part records each reduced
    row as a combination of the input rows, so the target row ends as
    [0 | -c] when the target is in the span, and the rows that end up zero
    on the left carry the null vectors.
    """
    m, ncols = rows.shape
    aug = np.zeros((m + 1, ncols + m), dtype=np.int64)
    aug[:m, :ncols] = rows
    aug[:m, ncols:] = np.eye(m, dtype=np.int64)
    aug[m, :ncols] = target
    pivots, aug = _pivots_mod(aug, p, m, ncols)
    if aug[m, :ncols].any():
        return None
    c = -aug[m, ncols:].astype(np.int64) % p
    return c, aug[len(pivots) : m, ncols:].astype(np.int64)


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
    rows = np.asarray(rows, dtype=np.int64) % p
    target = np.asarray(target, dtype=np.int64) % p
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
