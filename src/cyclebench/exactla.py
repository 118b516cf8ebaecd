"""Exact and modular linear algebra over the rationals for rank and
certificate computations.

Rank tests on learnability systems must not rely on floating point: the
coefficient rows carry small integers and quarters, and near-degenerate
float ranks are untrustworthy.  Small systems run fraction-free integer
elimination (exact).  Large rank queries run vectorized elimination modulo
two independent 31-bit primes; a modular rank is a certified lower bound on
the rational rank, and agreement of both primes is accepted for the upper
bound (disagreement falls back to the exact path).

The certificate support search works mod p from one elimination per call:
a particular solution and a left null-space basis, reduced in each retry's
visiting order by one rank-1 step per pivot, all retries in lockstep.  Its
decisions match the rank comparison exactly mod p.  The support is then
solved exactly by fraction-free (Bareiss) elimination in Python integers,
and the solution is checked against every equation in integers.
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


def _reduce_against(echelon, pivots, row):
    """Reduce an integer row against an echelon basis; None result = in span."""
    r = [int(v) for v in row]
    for piv, col in zip(echelon, pivots):
        if r[col]:
            f, pv = r[col], piv[col]
            r = [pv * a - f * b for a, b in zip(r, piv)]
    r = _normalize(r)
    return r if any(r) else None


def rank_exact(rows) -> int:
    echelon, _ = _echelon_int([list(r) for r in rows])
    return len(echelon)


def _rank_mod(rows: np.ndarray, p: int) -> int:
    return len(_echelon_mod(rows, p)[1])


def _echelon_mod(rows: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Row echelon form mod p, pivots scaled to 1, and its pivot columns
    (each column independent of the columns before it)."""
    a = np.array(rows, dtype=np.int64)
    a %= p
    pivots: list[int] = []
    rank = 0
    col = 0
    nrows, ncols = a.shape
    while rank < nrows and col < ncols:
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
        a[rank, col:] = (a[rank, col:] * inv) % p
        mask = np.nonzero(a[rank + 1 :, col])[0] + rank + 1
        if mask.size:
            below = a[mask, col:]
            below -= np.outer(below[:, 0], a[rank, col:])
            below %= p
            a[mask, col:] = below
        rank += 1
        col += 1
    return a[:rank], pivots


def rank_checked(rows) -> int:
    """Rational rank of an integer matrix (2-D array or list of rows);
    exact for small systems, dual-prime modular above."""
    mat = np.asarray(rows, dtype=np.int64)
    if mat.size == 0:
        return 0
    nonzero = mat.any(axis=1)
    if not nonzero.all():
        mat = mat[nonzero]
    if mat.size <= 20000:
        return rank_exact(mat)
    r0 = _rank_mod(mat, _PRIMES[0])
    r1 = _rank_mod(mat, _PRIMES[1])
    if r0 == r1:
        return r0
    return rank_exact(mat)


def extend_to_full_rank(rows, candidates, p: int = _PRIMES[0]) -> list[int]:
    """Indices of the candidate rows that, taken greedily in order, extend
    the span of `rows` (integer matrices of equal width), decided mod p.

    A candidate c extends the span of the rows and the earlier candidates
    iff c N does so for the projections of the earlier ones, N a basis of
    the rows' right null space, so the greedy pass runs on the narrow
    candidates @ N.  N comes from the rows' echelon form by eliminating
    above each pivot on the free columns only.  Rows independent mod p are
    independent over the rationals, so no dependent candidate is taken; a
    candidate dependent mod p alone (an accident of p) is missed, which a
    rank count detects.
    """
    echelon, pivots = _echelon_mod(rows, p)
    width = echelon.shape[1]
    free = np.setdiff1d(np.arange(width), pivots)
    reduced = echelon[:, free]  # becomes the reduced echelon form's free part
    for i in range(len(pivots) - 1, 0, -1):
        above = reduced[:i]
        above -= np.outer(echelon[:i, pivots[i]], reduced[i])
        above %= p
    null = np.zeros((width, len(free)), dtype=np.int64)
    null[free, np.arange(len(free))] = 1
    null[pivots] = -reduced % p
    # Small candidate entries times entries below p: far from int64
    # overflow.  einsum buffers the cast, so the candidates stay compact.
    projected = np.einsum("ij,jk->ik", candidates, null) % p
    return _echelon_mod(projected.T, p)[1]


class SpanBasis:
    """Echelonized basis of a set of integer rows supporting membership tests."""

    def __init__(self, rows):
        self.echelon, self.pivots = _echelon_int([list(r) for r in rows])

    @property
    def rank(self) -> int:
        return len(self.echelon)

    def residual(self, row):
        """None if the row lies in the span, else its reduced remainder."""
        return _reduce_against(self.echelon, self.pivots, row)

    def contains(self, row) -> bool:
        return self.residual(row) is None


def solve_rational(columns, target) -> list[Fraction] | None:
    """Exact coefficients c with sum_i c_i columns[i] = target, or None.

    Fraction-free (Bareiss) elimination of the augmented system [A | b],
    A[:, i] = columns[i], in Python integers: every entry stays an integer
    minor of the input, and the last pivot D is the determinant of the pivot
    block, so back-substitution yields the integers D c.  Fractions are built
    only for the output coefficients.  A column dependent on earlier ones
    gets c_i = 0 (the solution is unique when the columns are independent).
    The result is then checked against every equation in integers, scaled by
    the lcm of the coefficient denominators.
    """
    ncols = len(columns)
    if ncols == 0:
        return [] if not any(target) else None
    cols = [[int(v) for v in col] for col in columns]
    rhs = [int(v) for v in target]
    # Equations with an all-zero row hold for every c once b_i = 0.
    aug = []
    for i, b in enumerate(rhs):
        row = [col[i] for col in cols]
        if any(row):
            aug.append(row + [b])
        elif b:
            return None
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(aug)) if aug[i][col]), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        piv = aug[r]
        pv = piv[col]
        for i in range(r + 1, len(aug)):
            row = aug[i]
            f = row[col]
            aug[i] = row[:col] + [(pv * a - f * b) // prev for a, b in zip(row[col:], piv[col:])]
        prev = pv
        pivots.append(col)
    rank = len(pivots)
    if any(aug[i][ncols] for i in range(rank, len(aug))):
        return None
    if rank == 0:
        return [Fraction(0)] * ncols
    det = aug[rank - 1][pivots[-1]]
    scaled = [0] * ncols  # det * c, integer by Cramer's rule
    for r in range(rank - 1, -1, -1):
        row = aug[r]
        acc = det * row[ncols] - sum(row[j] * scaled[j] for j in pivots[r + 1 :])
        scaled[pivots[r]] = acc // row[pivots[r]]
    coeffs = [Fraction(v, det) for v in scaled]
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    for i, b in enumerate(rhs):
        if sum(v * col[i] for v, col in zip(ints, cols) if v) != den * b:
            return None
    return coeffs


def _solution_and_null_space(rows: np.ndarray, target: np.ndarray, p: int):
    """Mod-p particular solution c of c @ rows = target and a basis of the
    left null space of rows (as matrix rows), or None if no solution exists.

    Eliminates [rows | I] once: the identity part records each echelon row
    as a combination of the input rows, so reducing the target against the
    echelon rows accumulates c, and the rows that end up zero on the left
    carry the null vectors.
    """
    m, ncols = rows.shape
    aug = np.concatenate([rows, np.eye(m, dtype=np.int64)], axis=1)
    t = target.copy()
    c = np.zeros(m, dtype=np.int64)
    rank = 0
    for col in range(ncols):
        if rank == m:
            break
        nz = np.nonzero(aug[rank:, col])[0]
        if nz.size == 0:
            continue
        i = rank + nz[0]
        if i != rank:
            aug[[rank, i]] = aug[[i, rank]]
        aug[rank] = (aug[rank] * pow(int(aug[rank, col]), p - 2, p)) % p
        below = np.nonzero(aug[rank + 1 :, col])[0] + rank + 1
        if below.size:
            aug[below] = (aug[below] - np.outer(aug[below, col], aug[rank])) % p
        if t[col]:
            f = int(t[col])
            t = (t - f * aug[rank, :ncols]) % p
            c = (c + f * aug[rank, ncols:]) % p
        rank += 1
    if t.any():
        return None
    return c, aug[rank:, ncols:]


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
