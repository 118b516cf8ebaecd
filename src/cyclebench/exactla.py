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
a particular solution and a left null-space basis, updated by one rank-1
step per dropped row.  Its decisions match the rank comparison exactly mod p.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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
    a = np.asarray(rows, dtype=np.int64) % p
    rank = 0
    col = 0
    nrows, ncols = a.shape
    while rank < nrows and col < ncols:
        nz = np.nonzero(a[rank:, col])[0]
        if nz.size == 0:
            col += 1
            continue
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
    return rank


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

    Solved by fraction elimination on the augmented system; intended for
    small systems (a few dozen columns).  When the columns are linearly
    independent the solution is unique.
    """
    ncols = len(columns)
    if ncols == 0:
        return [] if not any(target) else None
    dim = len(target)
    aug = [
        [Fraction(columns[j][i]) for j in range(ncols)] + [Fraction(target[i])]
        for i in range(dim)
    ]
    pivots = []
    row = 0
    for col in range(ncols):
        sel = None
        for i in range(row, dim):
            if aug[i][col]:
                sel = i
                break
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        pv = aug[row][col]
        aug[row] = [v / pv for v in aug[row]]
        for i in range(dim):
            if i != row and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
    # Inconsistent if any zero-row has nonzero rhs.
    for i in range(row, dim):
        if aug[i][ncols]:
            return None
    coeffs = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        coeffs[col] = aug[r][ncols]
    # Verify (free columns were fixed at zero; re-check consistency).
    for i in range(dim):
        acc = sum((coeffs[j] * columns[j][i] for j in range(ncols)), Fraction(0))
        if acc != target[i]:
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
    from c and N (one rank-1 update).
    """
    rows = np.asarray(rows, dtype=np.int64) % p
    target = np.asarray(target, dtype=np.int64) % p
    support = [i for i in range(len(rows)) if rows[i].any()]
    start = _solution_and_null_space(rows[support], target, p)
    if start is None:
        return None
    c0, null0 = start
    best: list[int] | None = None
    for _ in range(max(1, retries)):
        order = list(range(len(support)))
        rng.shuffle(order)
        c, null = c0, null0  # updates below build new arrays
        kept = [True] * len(support)
        for j in order:
            hits = np.nonzero(null[:, j])[0]
            if hits.size:
                k = hits[0]
                piv = (null[k] * pow(int(null[k, j]), p - 2, p)) % p
                c = (c - int(c[j]) * piv) % p
                null = np.delete(null, k, axis=0)
                null = (null - np.outer(null[:, j], piv)) % p
            elif c[j]:
                continue
            kept[j] = False
        found = [i for i, keep in zip(support, kept) if keep]
        if best is None or len(found) < len(best):
            best = found
            if len(best) <= 1:
                break
    return best
