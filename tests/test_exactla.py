"""Property tests of the modular certificate search, the exact solver and
integer rows.

`rank_greedy_reference` is the earlier implementation of
`exactla.modular_support_search`: every "drop row i?" decision compares two
from-scratch mod-p ranks.  The null-space implementation must take the same
decisions, so both return identical supports for equal rng seeds.
`gauss_jordan_reference` is the Fraction elimination
that `exactla.solve_rational` replaced; both must return identical
coefficients whenever every reference coefficient is within the
reconstruction bound, and `solve_rational` must return None otherwise.
`extend_reference` keeps each candidate row whose addition raises a
recomputed mod-p rank, as `exactla.extend_to_full_rank` must (which also
returns the rows' rational rank, proven from the same elimination).
`pivots_reference` is row echelon elimination mod p in Python integers,
which the int32/int64 block kernel `exactla._pivots_mod` must match pivot
for pivot and entry for entry.
`solution_reference` is the int64 elimination that
`exactla._solution_and_null_space` replaced by that kernel; both must
return the same solution set (a particular solution and a null-space
basis, each up to the null space).  `bareiss_reference` is the
fraction-free (Bareiss) solver that `exactla.solve_rational` once was; it
is held to the same bound.  `fraction_rank` is Gaussian elimination in
Fractions, against which `exactla.rank_checked` is proven right.
"""

import itertools
import warnings
from fractions import Fraction
from math import isqrt, lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclebench import exactla
from cyclebench.exactla import (
    _PRIMES,
    extend_to_full_rank,
    modular_support_search,
    rank_checked,
    solve_rational,
)
from cyclebench.learnability import (
    EquivalenceCertificate,
    FidelityFunction,
    LearnableProduct,
    NotEquivalentError,
    express_search,
    int_row,
)
from cyclebench.pauli import PauliString
from cyclebench.spl import GeneratorSet
from cyclebench.topology import Topology

PRIMES = (7, _PRIMES[0])


def rank_mod(rows, p):
    return len(exactla._pivots_mod(rows, p)[0])


def rank_greedy_reference(rows, target, rng, retries, p=_PRIMES[0]):
    rows = np.asarray(rows, dtype=np.int64) % p
    target = np.asarray(target, dtype=np.int64) % p

    def in_span(idx):
        if not idx:
            return not target.any()
        a = np.vstack([rows[idx], target[None, :]])
        sub = rank_mod(a[:-1], p)
        return rank_mod(a, p) == sub

    all_idx = list(range(len(rows)))
    if not in_span(all_idx):
        return None
    best = None
    for _ in range(max(1, retries)):
        support = [i for i in all_idx if rows[i].any()]
        order = list(support)
        rng.shuffle(order)
        current = set(support)
        for i in order:
            trial = sorted(current - {i})
            if in_span(trial):
                current.discard(i)
        found = sorted(current)
        if best is None or len(found) < len(best):
            best = found
            if len(best) <= 1:
                break
    return best


def spans_mod(rows, idx, target, p):
    a = np.asarray(rows, dtype=np.int64)[idx] % p
    t = np.asarray(target, dtype=np.int64) % p
    if not idx:
        return not t.any()
    return rank_mod(np.vstack([a, t[None, :]]), p) == rank_mod(a, p)


def extend_reference(rows, candidates, p):
    """Greedy: keep each candidate that raises the mod-p rank of the rows
    and the candidates kept before it."""
    kept, stack = [], np.asarray(rows, dtype=np.int64).reshape(-1, len(candidates[0]))
    for i, c in enumerate(candidates):
        grown = np.vstack([stack, c])
        if rank_mod(grown, p) > rank_mod(stack, p):
            kept.append(i)
            stack = grown
    return kept


@settings(max_examples=200, deadline=None)
@given(
    ncols=st.integers(1, 6),
    data=st.data(),
    p=st.sampled_from(PRIMES),
)
def test_extend_matches_rank_reference(ncols, data, p):
    entry = st.integers(-3, 3)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = np.array(data.draw(st.lists(row, max_size=7)), dtype=np.int64).reshape(-1, ncols)
    candidates = np.array(data.draw(st.lists(row, min_size=1, max_size=7)), dtype=np.int64)
    # The rank is the rational one even where p = 7 drops it; the rows
    # taken are decided mod p.
    rank = fraction_rank(rows.tolist())
    assert extend_to_full_rank(rows, candidates, p) == (rank, extend_reference(rows, candidates, p))



def pivots_reference(rows, p):
    """Pivot columns of the row echelon form mod p and the reduced matrix,
    in Python integers."""
    a = [[int(v) % p for v in row] for row in rows]
    pivots = []
    for col in range(len(a[0]) if a else 0):
        rank = len(pivots)
        sel = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if sel is None:
            continue
        a[rank], a[sel] = a[sel], a[rank]
        inv = pow(a[rank][col], p - 2, p)
        a[rank] = [v * inv % p for v in a[rank]]
        for i in range(rank + 1, len(a)):
            if a[i][col]:
                f = a[i][col]
                a[i] = [(v - f * w) % p for v, w in zip(a[i], a[rank])]
        pivots.append(col)
    return pivots, a


@pytest.mark.parametrize("block", [1, 7, exactla._PIVOT_BLOCK])
def test_pivots_match_python_elimination(monkeypatch, block):
    # Blocks of one entry convert and update one row at a time; entries far
    # beyond p (past int64 too, as Python integers), negative entries,
    # sparse and low-rank matrices.
    monkeypatch.setattr(exactla, "_PIVOT_BLOCK", block)
    rng = np.random.default_rng(block)
    for trial in range(40):
        nrows, ncols = rng.integers(1, 14, size=2)
        if trial % 4 == 0:
            rows = rng.integers(-(2**40), 2**40, size=(nrows, ncols))
        elif trial % 4 == 1:
            rank = rng.integers(1, min(nrows, ncols) + 1)
            rows = rng.integers(-3, 4, size=(nrows, rank)) @ rng.integers(-3, 4, size=(rank, ncols))
        else:
            rows = rng.integers(-2, 3, size=(nrows, ncols)) * (rng.random((nrows, ncols)) < 0.3)
        rows = rows.astype(np.int8 if trial % 4 == 2 else np.int64)
        if trial % 8 == 0:
            rows = rows.astype(object) * 2**30
        for p in (*PRIMES, _PRIMES[1]):
            pivots, reduced = exactla._pivots_mod(rows, p)
            want_pivots, want = pivots_reference(rows.tolist(), p)
            assert pivots == want_pivots
            assert reduced.dtype == np.int32 and reduced.tolist() == want


def solution_reference(rows, target, p):
    """The int64 [rows | I] elimination that `_solution_and_null_space`
    replaced: the target is reduced against each new pivot row, and its
    multiples accumulate c."""
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


@st.composite
def search_problems(draw):
    ncols = draw(st.integers(1, 6))
    entry = st.integers(-8, 8)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=9))
    # Zero rows and duplicate rows are the degenerate cases of the greedy loop.
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    if rows:
        for _ in range(draw(st.integers(0, 2))):
            rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
    kind = draw(st.sampled_from(["zero", "in_span", "arbitrary"]))
    if kind == "zero":
        target = [0] * ncols
    elif kind == "in_span":
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        target = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)]
    else:
        target = draw(st.lists(entry, min_size=ncols, max_size=ncols))
    rows = np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
    return rows, np.array(target, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@example(  # out-of-span target
    problem=(np.array([[1, 0, 0], [0, 1, 0], [1, 1, 0]]), np.array([0, 0, 1])),
    p=7, seed=0, retries=4,
)
@example(  # zero target next to a zero row
    problem=(np.array([[1, 2], [0, 0], [3, 4]]), np.array([0, 0])),
    p=_PRIMES[0], seed=0, retries=4,
)
@given(
    problem=search_problems(),
    p=st.sampled_from(PRIMES),
    seed=st.integers(0, 2**32 - 1),
    retries=st.integers(1, 4),
)
def test_search_matches_rank_reference(problem, p, seed, retries):
    rows, target = problem
    got = modular_support_search(rows, target, np.random.default_rng(seed), retries, p)
    want = rank_greedy_reference(rows, target, np.random.default_rng(seed), retries, p)
    assert got == want
    if got is None:
        assert not spans_mod(rows, list(range(len(rows))), target, p)
    else:
        assert spans_mod(rows, got, target, p)
        if not (target % p).any():
            assert got == []


@settings(max_examples=300, deadline=None)
@example(  # no rows: the empty combination solves a zero target only
    problem=(np.zeros((0, 2), dtype=np.int64), np.array([0, 0])), p=7,
)
@example(problem=(np.zeros((0, 2), dtype=np.int64), np.array([0, 1])), p=7)
@given(problem=search_problems(), p=st.sampled_from(PRIMES))
def test_solution_and_null_space_match_reference(problem, p):
    rows, target = (np.asarray(a, dtype=np.int64) % p for a in problem)
    got = exactla._solution_and_null_space(rows, target, p)
    want = solution_reference(rows, target, p)
    if want is None:
        assert got is None
        return
    # The same solution set: c - want_c and the two bases span one space.
    (c, null), (want_c, want_null) = got, want
    assert c.dtype == null.dtype == np.int64
    assert null.shape == want_null.shape
    rank = rank_mod(null, p) if len(null) else 0
    assert rank == len(null)
    assert rank_mod(np.vstack([null, want_null, c - want_c]), p) == rank
    assert not ((c.astype(object) @ rows.astype(object) - target) % p).any()
    assert not ((null.astype(object) @ rows.astype(object)) % p).any()


# ---------------------------------------------------------------------------
# Exact solves


def gauss_jordan_reference(columns, target):
    """Fraction Gauss-Jordan on every row of [A | b]; dependent columns get
    coefficient 0."""
    ncols, dim = len(columns), len(target)
    if ncols == 0:
        return [] if not any(target) else None
    aug = [[Fraction(c[i]) for c in columns] + [Fraction(target[i])] for i in range(dim)]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, dim) if aug[i][col]), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        aug[r] = [v / aug[r][col] for v in aug[r]]
        for i in range(dim):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
    if any(aug[i][ncols] for i in range(len(pivots), dim)):
        return None
    coeffs = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        coeffs[col] = aug[r][ncols]
    return coeffs


@st.composite
def linear_systems(draw):
    ncols = draw(st.integers(0, 6))
    dim = draw(st.integers(0, 8))
    bound = draw(st.sampled_from([2, 9, 300]))
    entry = st.integers(-bound, bound)
    columns = [draw(st.lists(entry, min_size=dim, max_size=dim)) for _ in range(ncols)]
    kind = draw(st.sampled_from(["consistent", "dependent", "arbitrary"]))
    if kind == "dependent" and columns:
        # A column that repeats a combination of the others.
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        i, j = draw(st.integers(0, ncols - 1)), draw(st.integers(0, ncols - 1))
        columns.insert(
            draw(st.integers(0, ncols)), [a * x + b * y for x, y in zip(columns[i], columns[j])]
        )
    if kind == "arbitrary":
        target = draw(st.lists(entry, min_size=dim, max_size=dim))
    else:
        coeffs = draw(st.lists(st.integers(-4, 4), min_size=len(columns), max_size=len(columns)))
        target = [sum(c * col[i] for c, col in zip(coeffs, columns)) for i in range(dim)]
    return columns, target


# The largest numerator and denominator `solve_rational` reconstructs.
BOUND = isqrt(_PRIMES[0] // 2)


def within_bound(coeffs):
    """The answer `solve_rational` must give for a reference answer: the
    same when every coefficient is within the bound (or there is none),
    None otherwise."""
    if coeffs is None or all(abs(c.numerator) <= BOUND and c.denominator <= BOUND for c in coeffs):
        return coeffs
    return None


def solves(columns, target, coeffs):
    return all(
        sum((c * col[i] for c, col in zip(coeffs, columns)), Fraction(0)) == t
        for i, t in enumerate(target)
    )


@settings(max_examples=400, deadline=None)
@example(  # inconsistent: b is outside the column span
    system=([[1, 0, 1], [0, 1, 1]], [1, 1, 0]),
)
@example(  # a zero equation with a nonzero right-hand side
    system=([[1, 0], [2, 0]], [3, 1]),
)
@example(  # dependent middle column, free coefficient 0
    system=([[1, 2, 0], [2, 4, 0], [0, 1, 1]], [1, 4, 3]),
)
@given(system=linear_systems())
def test_solve_matches_fraction_reference(system):
    columns, target = system
    got = solve_rational(columns, target)
    assert got == within_bound(gauss_jordan_reference(columns, target))
    if got is not None:
        assert all(isinstance(c, Fraction) for c in got)
        assert solves(columns, target, got)


def bareiss_reference(columns, target):
    """Fraction-free (Bareiss) elimination of [A | b] in Python integers,
    back-substitution for det * c, dependent columns at c_i = 0, and the
    integer check against every equation."""
    ncols = len(columns)
    if ncols == 0:
        return [] if not any(target) else None
    cols = [[int(v) for v in col] for col in columns]
    rhs = [int(v) for v in target]
    aug = []
    for i, b in enumerate(rhs):
        row = [col[i] for col in cols]
        if any(row):
            aug.append(row + [b])
        elif b:
            return None
    pivots = []
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
    scaled = [0] * ncols
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


@st.composite
def degenerate_systems(draw):
    """Systems with dependent columns, zero equations and targets that are
    consistent or not, with entries up to 2**70 (past int64)."""
    ncols = draw(st.integers(0, 6))
    dim = draw(st.integers(0, 8))
    bound = draw(st.sampled_from([1, 9, 2**70]))
    entry = st.integers(-bound, bound)
    columns = [draw(st.lists(entry, min_size=dim, max_size=dim)) for _ in range(ncols)]
    for _ in range(draw(st.integers(0, 2)) if columns else 0):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        i, j = draw(st.integers(0, len(columns) - 1)), draw(st.integers(0, len(columns) - 1))
        columns.insert(
            draw(st.integers(0, len(columns))),
            [a * x + b * y for x, y in zip(columns[i], columns[j])],
        )
    zero_rows = draw(st.lists(st.integers(0, dim), max_size=2))
    for row in sorted(zero_rows, reverse=True):
        for col in columns:
            col.insert(row, 0)
    dim += len(zero_rows)
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=len(columns), max_size=len(columns)))
    target = [sum(c * col[i] for c, col in zip(coeffs, columns)) for i in range(dim)]
    if dim and draw(st.booleans()):
        # Often inconsistent, always so on a zero equation.
        target[draw(st.integers(0, dim - 1))] += draw(st.sampled_from([1, -7, 2**65]))
    return columns, target


@settings(max_examples=400, deadline=None)
@example(system=([[0, 0], [0, 0]], [0, 1]))  # a zero equation with b != 0
@example(system=([[2**64, 3], [2**65, 6]], [2**66, 12]))  # dependent, past int64
@example(system=([], []))
@given(system=degenerate_systems())
def test_solve_matches_bareiss_reference(system):
    columns, target = system
    got = solve_rational(columns, target)
    assert got == within_bound(bareiss_reference(columns, target))
    if got is not None:
        assert solves(columns, target, got)


def test_solve_beyond_bound_is_none():
    # Dense 7x7 integer systems with entries up to 100: their determinants,
    # and so their denominators, are far above the bound, and those solves
    # end in None, never in a wrong solution.  The 9-row systems with
    # integer solutions are solved exactly, and a random b is inconsistent.
    rng = np.random.default_rng(11)
    beyond = 0
    for _ in range(20):
        a = rng.integers(-100, 101, size=(9, 7))
        b = rng.integers(-100, 101, size=9)
        columns = [list(map(int, a[:, j])) for j in range(7)]
        x = rng.integers(-5, 6, size=7)
        target = [int(v) for v in a @ x]
        assert solve_rational(columns, target) == list(map(Fraction, x.tolist()))
        assert solve_rational(columns, list(map(int, b))) is None
        assert gauss_jordan_reference(columns, list(map(int, b))) is None
        square = [col[:7] for col in columns]
        want = gauss_jordan_reference(square, list(map(int, b[:7])))
        assert solve_rational(square, list(map(int, b[:7]))) == within_bound(want)
        beyond += within_bound(want) is None
    assert beyond == 20
    # At the bound and one past it, in the denominator and the numerator.
    assert solve_rational([[BOUND]], [1]) == [Fraction(1, BOUND)]
    assert solve_rational([[BOUND + 1]], [1]) is None
    assert solve_rational([[1]], [-BOUND]) == [Fraction(-BOUND)]
    assert solve_rational([[1]], [BOUND + 1]) is None


# ---------------------------------------------------------------------------
# Certified ranks


def fraction_rank(rows):
    """Rank by Gaussian elimination in Fractions."""
    a = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        sel = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if sel is None:
            continue
        a[rank], a[sel] = a[sel], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][col] / a[rank][col]
            a[i] = [v - f * w for v, w in zip(a[i], a[rank])]
        rank += 1
    return rank


@st.composite
def integer_matrices(draw):
    """Small integer matrices with entries up to 3 or up to 2**70 (past
    int64), with zero rows and repeated rows inserted."""
    ncols = draw(st.integers(1, 6))
    bound = draw(st.sampled_from([3, 2**70]))
    row = st.lists(st.integers(-bound, bound), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=7))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        rows.insert(draw(st.integers(0, len(rows))), list(rows[draw(st.integers(0, len(rows) - 1))]))
    return rows, ncols


@settings(max_examples=400, deadline=None)
@example(matrix=([[2, 1], [4, 2], [6, 3]], 2))  # right null vector (-1/2, 1)
@example(matrix=([[2**70, 1, 5], [3, 2**69, 1]] * 2, 3))  # right null vector far past the bound
@example(matrix=([[0, 2**63]], 2))  # as a list, a uint64 array
@example(  # null vectors on both sides past one prime's bound, within two primes'
    matrix=([[1, 0, 32768, 0], [1, 1, 32768, 0], [1, -32767, 32768, 0]], 4),
)
@given(matrix=integer_matrices())
def test_rank_checked_matches_fraction_rank(matrix):
    rows, ncols = matrix
    dtype = object if any(abs(v) >= 2**63 for row in rows for v in row) else np.int64
    mat = np.array(rows, dtype=dtype).reshape(len(rows), ncols)
    assert rank_checked(mat) == rank_checked(rows) == fraction_rank(rows)


def test_entry_points_read_integers_past_int64():
    # As a list, these rows read as a float64 array: the extension found
    # rank 1 (with a cast warning) and the search raised OverflowError.
    # Every entry point reads them as Python integers.
    rows = [[1, 2**63 + 1], [1, 2**63]]
    target = [2, 2**64 + 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert extend_to_full_rank(rows, [[1, 0], [0, 1]]) == (2, [])
        assert rank_checked(rows) == 2
        assert modular_support_search(rows, target, np.random.default_rng(0), 4) == [0, 1]
        assert modular_support_search(rows, rows[1], np.random.default_rng(0), 4) == [1]
        assert solve_rational(rows, target) == [1, 1]


def test_rank_drop_mod_first_prime_is_ranked_right():
    # Full rank over the rationals, a rank drop mod the first prime only:
    # the first prime's certificates fail their check, the second's holds.
    p = _PRIMES[0]
    rng = np.random.default_rng(5)
    base = rng.integers(-3, 4, size=(6, 4))
    for rows in (
        np.array([[1, 1], [1, 1 + p]]),
        np.vstack([base[:, :3] @ rng.integers(-2, 3, size=(3, 4)), [[0, 0, 0, p]]]),
    ):
        rank = fraction_rank(rows.tolist())
        assert len(exactla._pivots_mod(rows, p)[0]) == rank - 1
        assert rank_checked(rows) == rank


def test_corrupted_null_vector_fails_check(monkeypatch):
    # One wrong entry in one null vector: the exact check rejects it on
    # every side and prime, and no rank is returned.
    rows = np.array([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]])
    null = exactla._null_space_mod(rows, _PRIMES[0])[1]
    assert null.shape[1] == 2 and not exactla._product(rows, null).any()
    null[0, 0] += 1
    assert exactla._product(rows, null).any()
    assert rank_checked(rows) == 2
    null_space = exactla._null_space_mod

    def corrupted(mat, p):
        free, null = null_space(mat, p)
        null[:, :1] += 1
        return free, null

    monkeypatch.setattr(exactla, "_null_space_mod", corrupted)
    with pytest.raises(RuntimeError, match="no rank certificate"):
        rank_checked(rows)


def test_certificate_beyond_bound_fails_search(monkeypatch):
    # The target is the anchor over 40001, a denominator beyond the
    # reconstruction bound: the exact solve fails, and the search ends in
    # NotEquivalentError after one support search and one solve instead of
    # a wrong certificate or another search modulo the same prime.
    gens = line_generators()
    target = FidelityFunction.product("A", [pauli("XZI")])
    anchor = FidelityFunction((("A", pauli("XZI"), Fraction(40001)),))
    none = ([], np.zeros((0, len(gens)), dtype=np.int8))  # no learnable products
    calls = []
    for name in ("modular_support_search", "solve_rational"):
        real = getattr(exactla, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(exactla, name, counted)
    with pytest.raises(NotEquivalentError, match="exact solve failed"):
        express_search(target, anchor, gens, none)
    assert calls == ["modular_support_search", "solve_rational"]
    assert express_search(target, target, gens, none).epsilon == 1


# ---------------------------------------------------------------------------
# Integer rows


def scaled_row(gens, fn):
    """The Fraction row (sum of g * overlaps over the terms) times the lcm
    of its denominators."""
    row = [Fraction(0)] * len(gens)
    for _, p, g in fn.terms:
        for i, v in enumerate(gens.overlaps(p)):
            row[i] += g * int(v)
    den = lcm(*(v.denominator for v in row))
    return [int(v * den) for v in row]


def line_generators(n=3):
    return GeneratorSet(Topology(n, tuple((q, q + 1) for q in range(n - 1))))


def pauli(label):
    return PauliString.from_label(label)


def test_int_row_of_fractional_certificate():
    gens = line_generators()
    cert = EquivalenceCertificate(
        f1=FidelityFunction.product("A", [pauli("XII")]),
        f2=FidelityFunction.product("A", [pauli("XII"), pauli("IZI")]),
        epsilon=Fraction(1, 2),
        sigma=(Fraction(-1, 2), Fraction(1, 3)),
        basis_products=(
            LearnableProduct("A", (pauli("IZI"),), "standard"),
            LearnableProduct("A", (pauli("ZZI"), pauli("IIY")), "standard"),
        ),
    )
    # f1 written through the right-hand side's terms.
    fn = cert.f2.scaled(cert.epsilon)
    for s, prod in zip(cert.sigma, cert.basis_products):
        fn = fn + prod.function().scaled(s)
    assert any(g.denominator > 1 for _, _, g in fn.terms)
    assert np.array_equal(int_row(gens, fn), scaled_row(gens, fn))


def test_int_row_of_cancelling_terms():
    gens = line_generators()
    x = pauli("XII")
    zero = FidelityFunction((("A", x, Fraction(1, 2)), ("A", x, Fraction(-1, 2))))
    assert np.array_equal(int_row(gens, zero), [0] * len(gens))
    # Quarters that sum to integers leave no denominator to scale by.
    twice = FidelityFunction((("A", x, Fraction(3, 4)), ("A", x, Fraction(5, 4))))
    assert np.array_equal(int_row(gens, twice), scaled_row(gens, twice))
    assert set(int_row(gens, twice)) == {0, 2}


def test_int_row_takes_one_layer():
    fn = FidelityFunction.product("A", [pauli("XII")]) + FidelityFunction.product(
        "B", [pauli("IZI")]
    )
    with pytest.raises(ValueError, match="one layer"):
        int_row(line_generators(), fn)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.text("IXYZ", min_size=3, max_size=3),
            st.fractions(min_value=-3, max_value=3, max_denominator=6),
        ),
        max_size=5,
    )
)
def test_int_row_matches_fraction_row(terms):
    gens = line_generators()
    fn = FidelityFunction(tuple(("A", pauli(s), g) for s, g in terms))
    assert np.array_equal(int_row(gens, fn), scaled_row(gens, fn))


def test_int_row_exact_beyond_int64():
    # Weights above 2**63 take the exact object-integer path.
    gens = line_generators()
    big = FidelityFunction(
        (
            ("A", pauli("XZI"), Fraction(2**70 + 1, 3)),
            ("A", pauli("IYI"), Fraction(-(2**66), 5)),
            ("A", pauli("ZZZ"), Fraction(7, 2**40)),
        )
    )
    assert np.array_equal(int_row(gens, big), scaled_row(gens, big))
