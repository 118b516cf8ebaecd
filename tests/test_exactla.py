"""Property tests of the modular certificate search, the exact solver and
integer rows.

`rank_greedy_reference` is the earlier implementation of
`exactla.modular_support_search`: every "drop row i?" decision compares two
from-scratch mod-p ranks.  The null-space implementation must take the same
decisions, so both return identical supports for equal rng seeds.
`gauss_jordan_reference` is the Fraction elimination that
`exactla.solve_rational` replaced; both must return identical coefficients.
`extend_reference` keeps each candidate row whose addition raises a
from-scratch mod-p rank, as `exactla.extend_to_full_rank` must.
"""

from fractions import Fraction
from math import lcm

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclebench.exactla import (
    _PRIMES,
    _rank_mod,
    extend_to_full_rank,
    modular_support_search,
    solve_rational,
)
from cyclebench.learnability import EquivalenceCertificate, FidelityFunction, LambdaSpace
from cyclebench.pauli import PauliString
from cyclebench.spl import GeneratorSet
from cyclebench.topology import Topology

PRIMES = (7, _PRIMES[0])


def rank_greedy_reference(rows, target, rng, retries, p=_PRIMES[0]):
    rows = np.asarray(rows, dtype=np.int64) % p
    target = np.asarray(target, dtype=np.int64) % p

    def in_span(idx):
        if not idx:
            return not target.any()
        a = np.vstack([rows[idx], target[None, :]])
        sub = _rank_mod(a[:-1], p)
        return _rank_mod(a, p) == sub

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
    return _rank_mod(np.vstack([a, t[None, :]]), p) == _rank_mod(a, p)


def extend_reference(rows, candidates, p):
    """Greedy: keep each candidate that raises the mod-p rank of the rows
    and the candidates kept before it."""
    kept, stack = [], np.asarray(rows, dtype=np.int64).reshape(-1, len(candidates[0]))
    for i, c in enumerate(candidates):
        grown = np.vstack([stack, c])
        if _rank_mod(grown, p) > _rank_mod(stack, p):
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
    assert extend_to_full_rank(rows, candidates, p) == extend_reference(rows, candidates, p)


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
    assert got == gauss_jordan_reference(columns, target)
    if got is not None:
        assert all(isinstance(c, Fraction) for c in got)
        assert solves(columns, target, got)


def test_solve_large_denominators():
    # Dense 7x7 integer systems with entries up to 100: determinants, and so
    # denominators, far above 2**15 (and above int64 in the products).  The
    # 9-row systems are consistent with integer solutions or (a random b)
    # inconsistent.
    rng = np.random.default_rng(11)
    largest = 0
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
        got = solve_rational(square, list(map(int, b[:7])))
        assert got == gauss_jordan_reference(square, list(map(int, b[:7])))
        largest = max(largest, *(c.denominator for c in got))
    assert largest > 2**15


# ---------------------------------------------------------------------------
# Integer rows


def scaled_row(space, fn):
    """The Fraction row (sum of g * overlaps over the terms) times the lcm
    of its denominators."""
    row = [Fraction(0)] * space.dim
    off = space.offsets()
    for lab, p, g in fn.terms:
        for i, v in enumerate(space.generators[lab].overlaps(p)):
            row[off[lab] + i] += g * int(v)
    den = lcm(*(v.denominator for v in row))
    return [int(v * den) for v in row]


def line_space(n=3):
    gens = GeneratorSet(Topology(n, tuple((q, q + 1) for q in range(n - 1))))
    return LambdaSpace(("A", "B"), {"A": gens, "B": gens})


def pauli(label):
    return PauliString.from_label(label)


def test_int_row_of_fractional_certificate():
    space = line_space()
    cert = EquivalenceCertificate(
        f1=FidelityFunction.product("A", [pauli("XII")]),
        f2=FidelityFunction.product("A", [pauli("XII"), pauli("IZI")]),
        epsilon=Fraction(1, 2),
        sigma=(Fraction(-1, 2), Fraction(1, 3)),
        learnable_basis=(
            FidelityFunction.product("A", [pauli("IZI")]),
            FidelityFunction.product("B", [pauli("ZZI"), pauli("IIY")]),
        ),
    )
    fn = cert.combined_function()
    assert any(g.denominator > 1 for _, _, g in fn.terms)
    assert np.array_equal(space.int_row(fn), scaled_row(space, fn))


def test_int_row_of_cancelling_terms():
    space = line_space()
    x = pauli("XII")
    zero = FidelityFunction((("A", x, Fraction(1, 2)), ("A", x, Fraction(-1, 2))))
    assert np.array_equal(space.int_row(zero), [0] * space.dim)
    # Quarters that sum to integers leave no denominator to scale by.
    twice = FidelityFunction((("B", x, Fraction(3, 4)), ("B", x, Fraction(5, 4))))
    assert np.array_equal(space.int_row(twice), scaled_row(space, twice))
    assert set(space.int_row(twice)) == {0, 2}


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["A", "B"]),
            st.text("IXYZ", min_size=3, max_size=3),
            st.fractions(min_value=-3, max_value=3, max_denominator=6),
        ),
        max_size=5,
    )
)
def test_int_row_matches_fraction_row(terms):
    space = line_space()
    fn = FidelityFunction(tuple((lab, pauli(s), g) for lab, s, g in terms))
    assert np.array_equal(space.int_row(fn), scaled_row(space, fn))


def test_int_row_exact_beyond_int64():
    # Weights above 2**63 take the exact object-integer path.
    space = line_space()
    big = FidelityFunction(
        (
            ("A", pauli("XZI"), Fraction(2**70 + 1, 3)),
            ("A", pauli("IYI"), Fraction(-(2**66), 5)),
            ("B", pauli("ZZZ"), Fraction(7, 2**40)),
        )
    )
    assert np.array_equal(space.int_row(big), scaled_row(space, big))
