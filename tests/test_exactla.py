"""Property tests of the modular certificate search and of integer rows.

`rank_greedy_reference` is the earlier implementation of
`exactla.modular_support_search`: every "drop row i?" decision compares two
from-scratch mod-p ranks.  The null-space implementation must take the same
decisions, so both return identical supports for equal rng seeds.
"""

from fractions import Fraction
from math import lcm

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclebench.exactla import _PRIMES, _rank_mod, modular_support_search
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
# Integer rows


def scaled_row(space, fn):
    """The Fraction row times the lcm of its denominators."""
    row = space.row(fn)
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
