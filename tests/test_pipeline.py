import dataclasses
import hashlib
import sys
import types

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclebench import exactla, fitting, pauli, pipeline
from cyclebench.fitting import RankDeficientError, nnls
from cyclebench.layers import CATALOG, SQ_DIGITS, CliffordLayer
from cyclebench.learnability import analyze_layer, covering_pairs, orbit_learnables
from cyclebench.pauli import PauliString
from cyclebench.pipeline import (
    MAX_INV_GRAM_COND,
    _refined_low,
    build_plan,
    characterize_and_fit,
    classify_gram,
    estimate_mu,
    generate_models,
    model_rng,
    noisy_records,
    sweep_item,
)
from cyclebench.spl import GeneratorSet, SplModel
from cyclebench.topology import Topology, four_layer_config, garnet20, square_lattice


@pytest.fixture(scope="module")
def plan():
    topo = square_lattice(3, 3)
    return build_plan(topo, four_layer_config(topo, "closed_squares"), seed=0, retries=4)


@pytest.fixture(scope="module")
def small_plan():
    topo = square_lattice(3, 2)
    return build_plan(topo, four_layer_config(topo, "open_chains"), seed=0, retries=4)


@pytest.fixture(scope="module")
def fig6_plan():
    # The `repro fig6` plan: garnet20, closed squares.
    topo = garnet20()
    return build_plan(topo, four_layer_config(topo, "closed_squares"), seed=20240503, retries=8)


@pytest.fixture(scope="module")
def fig6_chains_plan():
    # The fig6 plan's settings on open chains.
    topo = garnet20()
    return build_plan(topo, four_layer_config(topo, "open_chains"), seed=20240503, retries=8)


@pytest.fixture(scope="module")
def line_plan():
    # Two CZ layers on a 3-qubit line; qubit 1 is covered by both.
    topo = Topology(3, ((0, 1), (1, 2)))
    layers = [CliffordLayer(3, ((0, 1),), (), "B"), CliffordLayer(3, ((1, 2),), (), "G")]
    return build_plan(topo, layers)


@pytest.fixture(scope="module")
def sq_plan():
    # An S gate on qubit 2 makes its X and Y directions unlearnable, and the
    # fit matrix has no low-accuracy row for them.
    layer = CliffordLayer(4, ((0, 1),), ((2, CATALOG["S"]),), "A")
    return build_plan(square_lattice(2, 2), [layer])


def config_layers(plan) -> list[CliffordLayer]:
    return [lp.layer for lp in plan.layers.values()]


def kept_inverses(plan) -> set[str]:
    return {lab for lab, lp in plan.layers.items() if lp.inv_gram is not None}


def deficiencies(plan) -> dict[str, tuple[int, list[str]]]:
    return {lab: lp.unconstrained for lab, lp in plan.layers.items() if lp.unconstrained}


def count_linalg(monkeypatch) -> list[str]:
    """Record the name of every call of `np.linalg.inv`, `eigh` and
    `eigvalsh`, and of `exactla`'s rank functions."""
    calls = []
    for module, name in (
        (np.linalg, "inv"),
        (np.linalg, "eigh"),
        (np.linalg, "eigvalsh"),
        (exactla, "extend_to_full_rank"),
        (exactla, "rank_checked"),
    ):
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def count_eliminations(monkeypatch, rows=None) -> list[int]:
    """Record the prime of every `exactla._pivots_mod` call, or of only the
    calls that eliminate `rows`."""
    calls = []
    real = exactla._pivots_mod

    def counted(mat, p):
        if rows is None or np.array_equal(mat, rows):
            calls.append(p)
        return real(mat, p)

    monkeypatch.setattr(exactla, "_pivots_mod", counted)
    return calls


class TestPlan:
    def test_covering_pairs_include_boundary_needs(self):
        topo = square_lattice(3, 3)
        layers = four_layer_config(topo, "closed_squares")
        pairs, wanted = covering_pairs(topo, layers)
        labels = [l.label for l in layers]
        # Consecutive global pairs are always needed.
        for a, b in zip(labels, labels[1:]):
            assert (a, b) in pairs
        supports = {l.label: l.support() for l in layers}
        for q, pair in wanted:
            assert q in supports[pair[0]] and q in supports[pair[1]]

    def test_all_wanted_ratios_built(self, plan):
        wanted = covering_pairs(plan.topology, config_layers(plan))[1]
        built = {(e.qubit, e.pair) for e in plan.mu_entries}
        assert built == wanted
        assert plan.mu_failures == 0

    def test_plan_inverse_gram(self, plan, sq_plan):
        # H = (S^T S)^-1 per full-rank layer; fits through it equal scipy's.
        assert sq_plan.layers["A"].inv_gram is None
        rng = model_rng(3, 0)
        models = generate_models(plan, rng)
        for lab, lp in plan.layers.items():
            S = lp.s.astype(float)
            gram = S.T @ S
            H = lp.inv_gram
            assert np.max(np.abs(H @ gram - np.eye(len(gram)))) < 1e-10
            b = S @ models[lab].lambdas + rng.normal(0.0, 1e-3, len(S))
            fit = nnls(S, b, H)
            ref, _ = scipy.optimize.nnls(S, b)
            assert 0 < np.count_nonzero(ref) < len(ref)
            assert np.max(np.abs(fit.lambdas - ref)) < 1e-10
            assert fit.kkt_residual <= 1e-10

    def test_full_rank_plan(self, plan):
        assert deficiencies(plan) == {}
        for lp in plan.layers.values():
            S = lp.s.astype(float)
            assert np.linalg.matrix_rank(S.T @ S, hermitian=True) == len(plan.generators)
            # Full rank: no unconstrained generators, and the inverse is the
            # plan's.
            inv, deficient = classify_gram(lp.s, plan.generators, lp.layer.label)
            assert deficient is None
            np.testing.assert_array_equal(inv, lp.inv_gram)

    def test_learnable_rows_alone_rank_deficient(self):
        # Without the two unlearnable singles a CZ layer's fit matrix loses
        # two directions; with them it is full rank.
        single = build_plan(Topology(2, ((0, 1),)), [CliffordLayer(2, ((0, 1),), (), "C")])
        lp = single.layers["C"]
        inv, (rank, names) = classify_gram(lp.s[: lp.n_high], single.generators, "C")
        assert inv is None and rank == 15 - 2 and len(names) == 2
        assert deficiencies(single) == {}

    def test_sq_layer_rank_deficient(self, sq_plan):
        rank, names = sq_plan.layers["A"].unconstrained
        assert rank == 42 < len(sq_plan.generators) == 48
        # One name per lost direction, in generator order.
        labels = [g.label() for g in sq_plan.generators.strings]
        assert len(names) == 6 and names == sorted(names, key=labels.index)
        assert all(name[2] in "XY" for name in names)

    def test_rank_deficient_layer_decomposed_once(self, monkeypatch):
        # The inverse fails the bound, and one exact extension gives the
        # unconstrained generators and the rank that its null vectors prove.
        calls = count_linalg(monkeypatch)
        layer = CliffordLayer(4, ((0, 1),), ((2, CATALOG["S"]),), "A")
        sq = build_plan(square_lattice(2, 2), [layer])
        assert calls == ["inv", "extend_to_full_rank"]
        assert sq.layers["A"].unconstrained[0] == 42

    def test_layer_rows_eliminated_once(self, plan, monkeypatch):
        # One elimination of a layer's rows mod the first prime chooses the
        # rows that extend them and proves their rank: in the learnability
        # report's layer analysis, and in the fit matrix's exact rank when
        # the inverse Gram's bound fails.
        monkeypatch.setattr(pipeline, "MAX_INV_GRAM_COND", 0.0)
        gens = plan.generators
        for lp in plan.layers.values():
            _, rows = orbit_learnables(lp.layer, gens)
            calls = count_eliminations(monkeypatch, rows)
            report = analyze_layer(lp.layer, gens)
            assert calls == [exactla._PRIMES[0]] and report.unlearnable_dof > 0
            calls = count_eliminations(monkeypatch, lp.s)
            inv, deficient = classify_gram(lp.s, gens, lp.layer.label)
            assert calls == [exactla._PRIMES[0]] and deficient is None
            np.testing.assert_array_equal(inv, lp.inv_gram)

    def test_fig6_plan_eliminations_pinned(self, monkeypatch):
        # The benchmark's `setup_s` times this plan.  Each of its 18 support
        # searches and 18 exact solves eliminates once mod the first prime,
        # and no layer takes an exact rank.
        calls = count_eliminations(monkeypatch)
        topo = garnet20()
        build_plan(topo, four_layer_config(topo, "closed_squares"), seed=20240503, retries=8)
        assert calls == [exactla._PRIMES[0]] * 36

    def test_fig6_plan_digit_conversions_pinned(self, monkeypatch):
        # The same plan converts strings to digit rows only for the
        # certificates, the low-accuracy singles and the ratio rows: the
        # generators and orbit products stay digit arrays.
        real, converted = pauli.digits, []

        def counted(strings, n):
            strings = list(strings)
            converted.append(len(strings))
            return real(strings, n)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "cyclebench" and getattr(module, "digits", None) is real:
                monkeypatch.setattr(module, "digits", counted)
        topo = garnet20()
        build_plan(topo, four_layer_config(topo, "closed_squares"), seed=20240503, retries=8)
        assert sum(converted) == 555

    def test_failed_exact_solve_is_one_search_and_one_failure(self, monkeypatch):
        # A support whose exact solve finds nothing ends the plan at once:
        # the first ratio's one support search and one solve, then a
        # RuntimeError naming the ratio.
        calls = []
        search = exactla.modular_support_search

        def counted_search(*args, **kwargs):
            calls.append("search")
            return search(*args, **kwargs)

        def no_solution(columns, target):
            calls.append("solve")
            return None

        monkeypatch.setattr(exactla, "modular_support_search", counted_search)
        monkeypatch.setattr(exactla, "solve_rational", no_solution)
        topo = square_lattice(3, 2)
        layers = four_layer_config(topo, "open_chains")
        want = r"^no certificate for the ratio of qubit \d+ on layers '\w', '\w': exact solve failed"
        with pytest.raises(RuntimeError, match=want):
            build_plan(topo, layers, seed=0, retries=4)
        assert calls == ["search", "solve"]

    def test_plan_keeps_sq_gates(self):
        # The same CZ pairs with and without an S gate are different plans.
        topo = square_lattice(2, 2)
        with_sq = [CliffordLayer(4, ((0, 1),), ((2, CATALOG["S"]),), "A")]
        cz_only = [CliffordLayer(4, ((0, 1),), (), "A")]
        assert "A" in deficiencies(build_plan(topo, with_sq))
        assert deficiencies(build_plan(topo, cz_only)) == {}

    def test_fit_rows_are_compact_overlap_sums(self, plan):
        # int8 and C-contiguous: the noisy-record einsums read the rows in
        # place, and each fit call copies them once into its float workspace.
        gens = plan.generators
        for lp in plan.layers.values():
            assert lp.s.dtype == np.int8 and lp.s.flags.c_contiguous
            high, low = lp.s[: lp.n_high], lp.s[lp.n_high :]
            want = [sum(gens.overlaps(p).astype(int) for p in prod.strings)
                    for prod in lp.products]
            assert np.array_equal(high, want)
            want = [gens.overlaps(PauliString.single(gens.topology.n, q, "X"))
                    for q in lp.low_qubits]
            assert np.array_equal(low, want)

    def test_mu_entries_pinned(self):
        # Recorded from the Fraction-elimination solver on a fresh
        # certificate cache; the integer solver must give the same plan.
        topo = square_lattice(2, 3)
        small = build_plan(topo, four_layer_config(topo, "open_chains"), seed=0, retries=4)
        assert small.mu_failures == 0
        assert mu_entries_text(small) == PINNED_MU_ENTRIES

    def test_plan_arrays_pinned(self, fig6_plan):
        topo = square_lattice(2, 3)
        small = build_plan(topo, four_layer_config(topo, "open_chains"), seed=0, retries=4)
        for name, plan in (("square2x3", small), ("fig6", fig6_plan)):
            assert plan_arrays_digest(plan) == PINNED_PLAN_DIGESTS[name], name

    def test_fig6_certificates_pinned(self, fig6_plan, fig6_chains_plan):
        for scheme, plan in (("closed_squares", fig6_plan), ("open_chains", fig6_chains_plan)):
            assert plan.mu_failures == 0 and len(plan.mu_entries) == 42
            assert certificate_digest(plan) == PINNED_FIG6_DIGESTS[scheme], scheme

    def test_learnable_terms_are_the_certificates_terms(self, fig6_plan, fig6_chains_plan):
        # The two certificates are on different layers, so no product is in
        # both, and the learnable terms are the first certificate's followed
        # by the second's with their weights negated.
        for plan in (fig6_plan, fig6_chains_plan):
            for entry in plan.mu_entries:
                cert1, cert2 = entry.expression.certificates
                first = {(p.label, frozenset(p.strings)) for p in cert1.basis_products}
                second = {(p.label, frozenset(p.strings)) for p in cert2.basis_products}
                assert not first & second
                want = [*zip(cert1.basis_products, cert1.sigma),
                        *((p, -s) for p, s in zip(cert2.basis_products, cert2.sigma))]
                assert list(entry.expression.learnable_terms) == want

    def test_plan_independent_of_earlier_plans(self):
        # Each plan keeps its own certificate cache.  Seeds 0 and 7 find
        # different certificates for two of these entries, so a cache shared
        # across plans would hand one plan's certificates to the other.
        topo = square_lattice(2, 3)
        layers = four_layer_config(topo, "open_chains")
        alone = mu_entries_text(build_plan(topo, layers, seed=7, retries=4))
        first = mu_entries_text(build_plan(topo, layers, seed=0, retries=4))
        after = mu_entries_text(build_plan(topo, layers, seed=7, retries=4))
        assert first == PINNED_MU_ENTRIES
        assert after == alone
        assert sum(a != b for a, b in zip(alone, first)) == 2

    def test_evaluate_log_is_the_per_term_sum(self, fig6_plan):
        # One overlap lookup per layer label gives the sum of the terms'
        # log-fidelities, on every function of the plan's certificates.
        models = generate_models(fig6_plan, model_rng(2, 0))
        fns = []
        for entry in fig6_plan.mu_entries:
            expr = entry.expression
            fns += [expr.mu_function(), expr.target.product, expr.target.mu]
            for cert in expr.certificates:
                fns += [cert.f1, cert.f2, *(prod.function() for prod in cert.basis_products)]
        for fn in fns:
            want = sum(float(g) * models[lab].log_fidelity(p) for lab, p, g in fn.terms)
            assert abs(fn.evaluate_log(models) - want) <= 1e-12

    def test_mu_values_exact_on_models(self, plan):
        rng = model_rng(1, 0)
        models = generate_models(plan, rng)
        for entry in plan.mu_entries:
            mu_fn = np.exp(entry.expression.mu_function().evaluate_log(models))
            num, den = entry.expression.target.mu.terms
            direct = models[num[0]].fidelity(num[1]) / models[den[0]].fidelity(den[1])
            assert mu_fn == pytest.approx(direct, abs=1e-10)


def learn_refs(plan, entry):
    """(label, high-row index, coefficient) of each learnable term of a ratio
    entry: the row is that of the orbit product with the term's strings."""
    refs = []
    for prod, coeff in entry.expression.learnable_terms:
        rows = [frozenset(p.strings) for p in plan.layers[prod.label].products]
        row = rows.index(frozenset(prod.strings))
        refs.append((prod.label, row, float(coeff)))
    return refs


def mu_entries_text(plan):
    """(qubit, pair, epsilon, learn_refs, certificate of each layer) per entry."""
    return [
        (
            e.qubit,
            "".join(e.pair),
            str(e.expression.epsilon),
            " ".join(f"{lab}{row}:{coeff!r}" for lab, row, coeff in learn_refs(plan, e)),
            *(cert_text(c) for c in e.expression.certificates),
        )
        for e in plan.mu_entries
    ]


def cert_text(cert):
    """'eps | sigma*<label><s|d>[strings] ...' of one certificate."""
    terms = (
        f"{s}*{p.label}{p.source[0]}[{','.join(q.label() for q in p.strings)}]"
        for s, p in zip(cert.sigma, cert.basis_products)
    )
    return f"{cert.epsilon} | " + " ".join(terms)


def certificate_digest(plan):
    """sha256 of each entry's `mu_entries_text` row, both certificates' f1
    and f2, and its learnable terms with their products' strings."""

    def fn_text(fn):
        return " ".join(f"{g}*{lab}[{p.label()}]" for lab, p, g in fn.terms)

    lines = []
    for row, entry in zip(mu_entries_text(plan), plan.mu_entries):
        expr = entry.expression
        lines.append(repr(row))
        lines += [f"{fn_text(c.f1)} = {fn_text(c.f2)}" for c in expr.certificates]
        lines += [
            f"{coeff}*{p.label}{p.source[0]}[{','.join(q.label() for q in p.strings)}]"
            for p, coeff in expr.learnable_terms
        ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def plan_arrays_digest(plan):
    """sha256 of every layer's exact arrays (`s`, `n_high`, `low_qubits`,
    `symmetry_row`, the ratio rows and entries, the mu_hat references), the
    mu_hat exponents and the low clusters.  `inv_gram` is left out: its
    float bits depend on the BLAS build."""
    h = hashlib.sha256()

    def put(values, dtype):
        a = np.ascontiguousarray(values, dtype=dtype)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())

    for lab, lp in plan.layers.items():
        h.update(lab.encode())
        rows, entries = lp.ratio_rows
        entry, row, coeff = lp.mu_refs
        for values, dtype in (
            (lp.s, np.int8), (lp.n_high, np.int64), (lp.low_qubits, np.int64),
            (lp.symmetry_row, np.int64), (rows, np.int8), (entries, np.int64),
            (entry, np.int64), (row, np.int64), (coeff, np.float64),
        ):
            put(values, dtype)
    put(plan.mu_epsilon, np.float64)
    h.update(repr(plan.low_clusters).encode())
    return h.hexdigest()


# Recorded from the per-quantity dicts that the plan held before its
# per-layer records: square 2x3 open chains (seed 0, 4 retries) and the fig6
# plan.
PINNED_PLAN_DIGESTS = {
    "square2x3": "4feb9606d0f5b97b67d416cfd1fe3c0ec0acea2a5d46d74f2b37ff507f9abc7c",
    "fig6": "6e81604dd1d55270941ec8ca04ad27ea277ace37b26e68b49facdf7bb05389a6",
}

# Recorded before certificates held their learnable products once and before
# the support search ran on `exactla._pivots_mod`: the fig6 plans (garnet20,
# seed 20240503, 8 retries) on closed squares and open chains.
PINNED_FIG6_DIGESTS = {
    "closed_squares": "8a9c5ee8bdbf07d71f754a5a6e898c69d28e72778e600162a4e7c278eb4365ba",
    "open_chains": "e4590729de855e8024a33e9e10831326a29110f17007f1720c3fea59325100dc",
}

# (qubit, pair, epsilon, learn_refs, certificate of each layer)
PINNED_MU_ENTRIES = [
    (0, "BR", "1",
     "B6:-1.0 R2:1.0 R6:-1.0 R24:-1.0",
     "1 | -1*Bs[IIXIII]",
     "-1 | -1*Rs[ZIIIII] 1*Rs[IIXIII,ZIXIII] 1*Rs[ZXIIII]"),
    (5, "BR", "1",
     "B9:-1.0 R9:-1.0 R17:1.0 R62:-1.0",
     "1 | -1*Bs[IIIXII]",
     "-1 | 1*Rs[IIIXII,IIIXIZ] -1*Rs[IIIIIZ] 1*Rs[IIIIXZ]"),
    (1, "BO", "1",
     "B9:-1.0 O5:1.0 O9:-1.0 O20:-1.0",
     "1 | -1*Bs[IIIXII]",
     "-1 | -1*Os[IZIIII] 1*Os[IIIXII,IZIXII] 1*Os[XZIIII]"),
    (4, "BO", "1",
     "B6:-1.0 O6:-1.0 O14:1.0 O66:-1.0",
     "1 | -1*Bs[IIXIII]",
     "-1 | 1*Os[IIXIII,IIXIZI] -1*Os[IIIIZI] 1*Os[IIIIZX]"),
    (2, "GR", "1/2",
     "G0:-1.0 G10:-0.25 G62:0.25 G77:0.5 G103:-0.5 R0:-1.0 R8:1.0 R45:-0.5",
     "1/2 | -1*Gs[XIIIII] -1/4*Gs[IIIYII,IIZYII] 1/4*Gs[IIIYIZ,IIZYIZ] "
     "1/2*Gd[IIIXII,IIZYII] -1/2*Gd[IIIXIZ,IIZYIZ]",
     "-1/2 | 1*Rs[XIIIII,XIZIII] -1*Rs[IIZIII] 1/2*Rs[IIZXII,IIZXIZ]"),
    (3, "GR", "1/2",
     "G6:0.25 G15:-1.0 G33:-0.25 R11:1.0 R16:1.0 R41:-0.5 R75:-1.0 R76:-1.0",
     "1/2 | 1/4*Gs[IIXIII,IIXZII] -1*Gs[IIIIIX] -1/4*Gs[ZIXIII,ZIXZII]",
     "-1/2 | -1*Rs[IIIZII] -1*Rs[IIIIIY,IIIZIY] 1/2*Rs[IIXZII,ZIXZII] "
     "1*Rd[IIIIIX,IIIZIY] 1*Rd[IIIZIX,IIIIIY]"),
    (2, "RO", "1",
     "R12:-1.0 O8:1.0 O12:-1.0 O29:-1.0",
     "1 | -1*Rs[IIIIXI]",
     "-1 | -1*Os[IIZIII] 1*Os[IIIIXI,IIZIXI] 1*Os[XIZIII]"),
    (3, "RO", "1",
     "R3:-1.0 O3:-1.0 O11:1.0 O57:-1.0",
     "1 | -1*Rs[IXIIII]",
     "-1 | 1*Os[IXIIII,IXIZII] -1*Os[IIIZII] 1*Os[IIIZIX]"),
]


class TestPlanRatioArrays:
    @pytest.mark.parametrize("name", ["small_plan", "fig6_plan"])
    def test_ratio_products_noiseless(self, name, request):
        # The plan's int8 ratio rows give each entry's product of fidelities.
        plan = request.getfixturevalue(name)
        rng = model_rng(5, 0)
        models = generate_models(plan, rng)
        got = noisy_records(plan, models, 0.0, 0.0, "unit_depth", rng).ratio_products
        want = [
            np.exp(sum(models[l].log_fidelity(p) for l, p, _ in e.expression.target.product.terms))
            for e in plan.mu_entries
        ]
        assert len(got) == len(want) > 0
        assert np.max(np.abs(got / want - 1.0)) <= 1e-12

    def test_ratio_rows_are_product_terms(self, small_plan):
        gens = small_plan.generators
        for lab, lp in small_plan.layers.items():
            rows, entry = lp.ratio_rows
            want = [
                (e, gens.overlaps(p)) for e, m in enumerate(small_plan.mu_entries)
                for l, p, _ in m.expression.target.product.terms if l == lab
            ]
            assert rows.dtype == np.int8 and len(rows) == len(want)
            assert entry.tolist() == [e for e, _ in want]
            for row, (_, overlap) in zip(rows, want):
                assert np.array_equal(row, overlap)

    @pytest.mark.parametrize("sigma", [0.0, 1e-4, 0.5])
    def test_mu_hat_matches_scalar_loop(self, small_plan, sigma):
        rng = model_rng(8, 0)
        models = generate_models(small_plan, rng)
        records = noisy_records(small_plan, models, sigma, 1e-3, "unit_depth", rng)
        # Nonpositive noisy products leave their entries unestimated.
        ratio = records.ratio_products.copy()
        ratio[:2] = (0.0, -0.25)
        records = dataclasses.replace(records, ratio_products=ratio)
        want = scalar_mu_hat(small_plan, records)
        got = estimate_mu(small_plan, records)
        assert set(got) == set(want)
        assert len(want) == len(small_plan.mu_entries) - 2
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-12)

    def test_sweep_item_makes_no_overlap_calls(self, fig6_plan, monkeypatch):
        calls = []
        overlaps = GeneratorSet.overlaps

        def counted(self, alpha):
            calls.append(alpha)
            return overlaps(self, alpha)

        monkeypatch.setattr(GeneratorSet, "overlaps", counted)
        for baseline in ("unit_depth", "symmetry"):
            sweep_item(fig6_plan, 3, 0, 1e-4, 1e-2, baseline)
        assert calls == []


class TestFitWorkspace:
    @pytest.mark.parametrize("baseline", ["unit_depth", "symmetry"])
    def test_fits_equal_nnls_on_the_int8_matrix(self, fig6_plan, baseline):
        # The per-call float workspace changes only where S is read from.
        plan = fig6_plan
        rng = model_rng(11, 2)
        models = generate_models(plan, rng)
        result = characterize_and_fit(plan, models, 1e-4, 1e-2, baseline, rng)
        rng = model_rng(11, 2)
        generate_models(plan, rng)
        records = noisy_records(plan, models, 1e-4, 1e-2, baseline, rng)
        lows = {
            "conventional": records.low,
            "mlcb": _refined_low(plan, records.low, estimate_mu(plan, records)),
        }
        for pipe, low in lows.items():
            for lab, lp in plan.layers.items():
                s = lp.s
                assert s.dtype == np.int8
                rhs = -0.5 * np.concatenate([
                    np.log(np.clip(records.high[lab], 1e-12, None)), np.log(low[lab]),
                ])
                want = nnls(s, rhs, inv_gram=lp.inv_gram)
                got = result.fitted[pipe][lab]
                assert np.max(np.abs(got - want.lambdas)) <= 1e-12
                assert result.fit_meta[pipe][lab]["kkt_residual"] <= 1e-10
                assert want.kkt_residual <= 1e-10

    def test_sweep_item_makes_no_einsum_calls_in_fitting(self, fig6_plan, monkeypatch):
        # Every product in nnls is a BLAS call on the float workspace.
        calls = []

        class CountingNumpy(types.ModuleType):
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def einsum(*args, **kwargs):
                calls.append(args[0])
                return np.einsum(*args, **kwargs)

        monkeypatch.setattr(fitting, "np", CountingNumpy("numpy"))
        for baseline in ("unit_depth", "symmetry"):
            _, result = sweep_item(fig6_plan, 3, 0, 1e-4, 1e-2, baseline)
            assert all(
                meta["kkt_residual"] <= 1e-10
                for per_layer in result.fit_meta.values() for meta in per_layer.values()
            )
        assert calls == []


class TestNonFiniteRecords:
    def test_non_finite_mu_hat_is_unmeasured(self, small_plan):
        rng = model_rng(8, 0)
        models = generate_models(small_plan, rng)
        records = noisy_records(small_plan, models, 1e-4, 1e-3, "unit_depth", rng)
        ratio = records.ratio_products.copy()
        ratio[:3] = (np.inf, np.nan, 1e300)
        got = estimate_mu(small_plan, dataclasses.replace(records, ratio_products=ratio))
        entries = small_plan.mu_entries
        assert (entries[0].qubit, entries[0].pair) not in got
        assert (entries[1].qubit, entries[1].pair) not in got
        assert all(np.isfinite(v) and v > 0 for v in got.values())
        assert len(got) >= len(entries) - 3

    def test_non_finite_record_names_the_layer(self, small_plan):
        rng = model_rng(8, 0)
        models = generate_models(small_plan, rng)
        # Normal draws of width 1e308 overflow to infinity.
        with pytest.raises(RuntimeError, match="non-finite noisy record on layer"):
            characterize_and_fit(small_plan, models, 1e308, 0.0, "unit_depth", rng)


def scalar_mu_hat(plan, records):
    """Reference: mu_hat entry by entry, one scalar log per factor."""
    out = {}
    for entry, o_noisy in zip(plan.mu_entries, records.ratio_products):
        if o_noisy <= 0:
            continue
        log_mu = float(entry.expression.epsilon) * np.log(o_noisy)
        for l, row, coeff in learn_refs(plan, entry):
            log_mu += coeff * np.log(max(records.high[l][row], 1e-12))
        out[(entry.qubit, entry.pair)] = float(np.exp(log_mu))
    return out


def eigh_oracle(s):
    """The float rank rule that the exact rank replaced, as an oracle: rank
    and cond_2 of G = S^T S from one `eigh`, at the tolerance of
    `np.linalg.matrix_rank(G, hermitian=True)`, and the generators with
    weight above 1e-9 in the null-space eigenvectors."""
    gram = s.T.astype(float) @ s
    values, vecs = np.linalg.eigh(gram)
    a = np.abs(values)
    rank = int(np.count_nonzero(a > a.max(initial=0.0) * len(gram) * np.finfo(float).eps))
    weight = np.square(vecs[:, : len(gram) - rank]).sum(axis=1)
    cond = a.max() / a.min() if rank == len(gram) else np.inf
    return rank, cond, set(np.flatnonzero(weight > 1e-9).tolist())


@st.composite
def single_layers(draw):
    """A random layer on a 2x2 to 3x4 square: CZ on a random matching,
    and single-qubit gates on CZ qubits and, in half the layers, on
    isolated qubits too."""
    topo = square_lattice(draw(st.integers(2, 3)), draw(st.integers(2, 4)))
    pairs, used = [], set()
    for edge in draw(st.permutations(topo.edges)):
        if used.isdisjoint(edge) and draw(st.booleans()):
            pairs.append(edge)
            used.update(edge)
    isolated = draw(st.booleans())
    gates = draw(st.lists(st.integers(0, len(SQ_DIGITS) - 1), min_size=topo.n, max_size=topo.n))
    sq = tuple(
        (q, tuple(SQ_DIGITS[g].tolist()))
        for q, g in enumerate(gates)
        if (q in used or isolated) and draw(st.booleans())
    )
    return topo, CliffordLayer(topo.n, tuple(pairs), sq, "L")


class TestInverseGramGuard:
    @staticmethod
    def ill_conditioned(seed, k=30):
        # An int8 fit matrix whose column 3 is k times column 7 but for one
        # entry: full rank, with ||G||_inf ||G^-1||_inf ~ 2.5e8 for k = 30.
        rng = np.random.default_rng(seed)
        s = rng.integers(0, 3, size=(60, 30)).astype(np.int8)
        s[:, 3] = k * s[:, 7]
        s[0, 3] += 1
        return s

    # 30 generator labels, one per column of the drawn matrices.
    GENS = GeneratorSet(Topology(10, ()))

    @staticmethod
    def bound(s):
        gram = s.T.astype(float) @ s
        return np.abs(gram).sum(axis=1).max() * np.abs(np.linalg.inv(gram)).sum(axis=1).max()

    def test_rank_and_condition_from_one_spectrum(self):
        s = self.ill_conditioned(0)
        rank, cond, _ = eigh_oracle(s)
        assert rank == 30 and cond > MAX_INV_GRAM_COND
        # Full rank above the bound: the inverse is kept all the same.
        inv, deficient = classify_gram(s, self.GENS, "L")
        assert deficient is None
        np.testing.assert_array_equal(inv, np.linalg.inv(s.T.astype(float) @ s))
        s[:, 3] = s[:, 7]
        rank, cond, support = eigh_oracle(s)
        inv, (got, names) = classify_gram(s, self.GENS, "L")
        assert inv is None and got == rank == np.linalg.matrix_rank(s) == 29
        # The null vector is e_3 - e_7: generator 3 alone completes the rank.
        assert support == {3, 7}
        assert names == [self.GENS.strings[3].label()]

    def test_plan_above_the_bound_fits_the_same(self, line_plan, monkeypatch):
        # With the bound at 0 every layer takes the exact rank, and a
        # full-rank layer keeps the same inverse: the fits are the same.
        monkeypatch.setattr(pipeline, "MAX_INV_GRAM_COND", 0.0)
        calls = count_linalg(monkeypatch)
        topo = Topology(3, ((0, 1), (1, 2)))
        exact = build_plan(topo, config_layers(line_plan))
        assert calls == ["inv", "extend_to_full_rank"] * 2
        assert deficiencies(exact) == {}
        for lab in line_plan.labels:
            np.testing.assert_array_equal(exact.layers[lab].inv_gram, line_plan.layers[lab].inv_gram)
        a = sweep_item(line_plan, 5, 0, 1e-4, 1e-3, "unit_depth")[1]
        b = sweep_item(exact, 5, 0, 1e-4, 1e-3, "unit_depth")[1]
        for pipe in a.fitted:
            for lab in line_plan.labels:
                np.testing.assert_array_equal(a.fitted[pipe][lab], b.fitted[pipe][lab])

    def test_bound_decides_like_the_spectrum(self):
        # Integer fit matrices within the bound, above it and rank-deficient:
        # the exact rank is the spectrum's, and every full-rank matrix keeps
        # its inverse whatever its condition.
        decisions = set()
        for seed in range(30):
            s = self.ill_conditioned(seed, k=(1, 10, 30)[seed % 3])
            if seed % 5 == 0:
                s[:, 3] = s[:, 7]
            rank, _, support = eigh_oracle(s)
            gram = s.T.astype(float) @ s
            inv, deficient = classify_gram(s, self.GENS, "L")
            assert (inv is not None) == (rank == 30) == (deficient is None)
            if deficient is None:
                np.testing.assert_array_equal(inv, np.linalg.inv(gram))
                decisions.add(("full", bool(self.bound(s) <= MAX_INV_GRAM_COND)))
            else:
                assert deficient[0] == rank == np.linalg.matrix_rank(s)
                taken = [self.GENS.strings.index(PauliString.from_label(n)) for n in deficient[1]]
                assert set(taken) <= support and len(taken) == 30 - rank
                assert np.linalg.matrix_rank(np.vstack([s, np.eye(30)[taken]])) == 30
                decisions.add(("deficient", None))
        assert decisions == {("full", True), ("full", False), ("deficient", None)}

    def test_singular_or_non_finite_inverse_falls_back(self, monkeypatch):
        gens = self.GENS
        inv, (rank, names) = classify_gram(np.zeros((3, 3), dtype=np.int8), gens, "L")
        assert inv is None and rank == 0
        assert names == [gens.strings[i].label() for i in range(3)]
        inv, (rank, names) = classify_gram(np.diag([1, 0]).astype(np.int8), gens, "L")
        assert inv is None and rank == 1 and names == [gens.strings[1].label()]
        # A full-rank layer whose inverse fails or is not finite ends the
        # plan with one line naming the layer.
        s = self.ill_conditioned(0)
        for fake in (np.full((30, 30), np.nan), np.linalg.LinAlgError("Singular matrix")):

            def inverse(a, _fake=fake):
                if isinstance(_fake, Exception):
                    raise _fake
                return _fake

            monkeypatch.setattr(np.linalg, "inv", inverse)
            with pytest.raises(RuntimeError, match=r"^layer 'L': full-rank fit matrix has no finite inverse Gram$"):
                classify_gram(s, gens, "L")

    @settings(max_examples=100, deadline=None)
    @given(case=single_layers())
    def test_exact_rank_of_random_single_layer_plans(self, case):
        # The plan's rank is S's, its unconstrained generators lie in the
        # float oracle's null-space support and complete the rank, and a
        # full-rank layer keeps its inverse Gram.
        topo, layer = case
        lp = build_plan(topo, [layer]).layers["L"]
        k = lp.s.shape[1]
        rank = np.linalg.matrix_rank(lp.s.astype(float))
        if lp.unconstrained is None:
            assert rank == k
            gram = lp.s.T.astype(float) @ lp.s
            assert np.max(np.abs(lp.inv_gram @ gram - np.eye(k))) < 1e-8
            return
        assert lp.inv_gram is None
        got, names = lp.unconstrained
        oracle_rank, _, support = eigh_oracle(lp.s)
        assert got == rank == oracle_rank < k
        labels = [g.label() for g in GeneratorSet(topo).strings]
        taken = [labels.index(name) for name in names]
        assert taken == sorted(taken) and set(taken) <= support
        assert np.linalg.matrix_rank(np.vstack([lp.s, np.eye(k)[taken]]).astype(float)) == k

    def test_plan_takes_the_exact_rank_only_when_the_bound_fails(self, monkeypatch, line_plan):
        # Well-conditioned layers need one inverse and nothing else; the
        # rank-deficient sq layer adds one exact extension, which certifies
        # the rank, and no plan takes an eigenvalue decomposition.
        calls = count_linalg(monkeypatch)
        topo = Topology(3, ((0, 1), (1, 2)))
        plain = build_plan(topo, config_layers(line_plan))
        assert calls == ["inv", "inv"] and kept_inverses(plain) == {"B", "G"}
        calls.clear()
        sq = build_plan(square_lattice(2, 2), [CliffordLayer(4, ((0, 1),), ((2, CATALOG["S"]),), "A")])
        assert calls == ["inv", "extend_to_full_rank"]
        assert kept_inverses(sq) == set() and sq.layers["A"].unconstrained[0] == 42

class TestCharacterizeAndFit:
    def test_noiseless_recovery_both_pipelines(self, plan):
        rng = model_rng(2, 0)
        models = generate_models(plan, rng)
        res = characterize_and_fit(plan, models, 0.0, 0.0, "unit_depth", rng)
        assert res.delta_c < 1e-6
        assert res.delta_m < 1e-6

    def test_noiseless_symmetry_baseline_biased(self, plan):
        # With exact products the symmetry estimate is still biased on an
        # asymmetric model, so the conventional distance is nonzero.
        rng = model_rng(3, 0)
        models = generate_models(plan, rng)
        res = characterize_and_fit(plan, models, 0.0, 0.0, "symmetry", rng)
        assert res.delta_c > 1e-4

    def test_deterministic_under_item_seed(self, plan):
        a = sweep_item(plan, 99, 4, 1e-4, 1e-3, "unit_depth")[1]
        b = sweep_item(plan, 99, 4, 1e-4, 1e-3, "unit_depth")[1]
        assert a.delta_c == b.delta_c and a.delta_m == b.delta_m

    def test_items_independent_of_order(self, plan):
        r3 = sweep_item(plan, 99, 3, 1e-4, 1e-3, "unit_depth")[1].delta_c
        # Running other items in between must not affect item 3.
        sweep_item(plan, 99, 0, 1e-4, 1e-3, "unit_depth")
        assert sweep_item(plan, 99, 3, 1e-4, 1e-3, "unit_depth")[1].delta_c == r3

    def test_unknown_baseline_rejected(self, plan):
        rng = model_rng(4, 0)
        models = generate_models(plan, rng)
        with pytest.raises(ValueError):
            characterize_and_fit(plan, models, 1e-4, 0.0, "bogus", rng)

    def test_singular_systems_are_named(self, sq_plan):
        rng = model_rng(0, 0)
        models = generate_models(sq_plan, rng)
        with pytest.raises(RankDeficientError, match=r"layer 'A' .* rank 42 < 48") as exc:
            characterize_and_fit(sq_plan, models, 0.0, 0.0, "unit_depth", rng)
        assert sq_plan.layers["A"].unconstrained[1][0] in str(exc.value)

    def test_mlcb_improves_on_unit_depth_noise(self, plan):
        ratios = []
        for i in range(6):
            _, res = sweep_item(plan, 123, i, 1e-4, 1e-3, "unit_depth")
            ratios.append(res.ratio)
        assert np.mean(ratios) < 1.0


def cz_models(plan, **rates):
    """One SplModel per layer of `plan`, all with the given rates."""
    gens = plan.generators
    lam = np.zeros(len(gens))
    for label, rate in rates.items():
        lam[gens.strings.index(PauliString.from_label(label))] = rate
    return {lab: SplModel(lab, gens, lam) for lab in plan.labels}


class TestNoisyRecords:
    # On one CZ the single fidelities of X on qubits 0 and 1 are unlearnable;
    # their orbit products are {XI, XZ} and {IX, ZX}.

    @pytest.fixture(scope="class")
    def cz_plan(self):
        return build_plan(Topology(2, ((0, 1),)), [CliffordLayer(2, ((0, 1),), (), "C")])

    def test_symmetry_square_root(self, cz_plan):
        # Rate on ZI, which anticommutes with both XI and XZ: the orbit
        # product is exp(-4 lambda) = 0.9801.
        models = cz_models(cz_plan, ZI=-np.log(0.9801) / 4)
        low = noisy_records(cz_plan, models, 0.0, 0.0, "symmetry", model_rng(0, 0)).low
        lp = cz_plan.layers["C"]
        assert low["C"][lp.low_qubits.index(0)] == pytest.approx(0.99)
        # One estimate per single fidelity, each from its clipped orbit product.
        data = noisy_records(cz_plan, models, 1e-3, 0.0, "symmetry", model_rng(1, 0))
        rows = data.high["C"][lp.symmetry_row]
        assert len(data.low["C"]) == len(lp.low_qubits)
        assert np.array_equal(data.low["C"], np.sqrt(np.clip(rows, 1e-12, 1.0)))

    def test_symmetry_exact_on_symmetric_model(self, cz_plan):
        # ZZ anticommutes with both XI and XZ, so f_XI = f_XZ exactly.
        models = cz_models(cz_plan, ZZ=3e-3)
        fxi = models["C"].fidelity(PauliString.from_label("XI"))
        fxz = models["C"].fidelity(PauliString.from_label("XZ"))
        assert fxi == pytest.approx(fxz)
        low = noisy_records(cz_plan, models, 0.0, 0.0, "symmetry", model_rng(0, 0)).low
        assert low["C"][cz_plan.layers["C"].low_qubits.index(0)] == pytest.approx(fxi, rel=1e-12)

    def test_symmetry_bias_on_asymmetric_model(self, cz_plan):
        # ZX lowers f_XI alone and IX lowers f_XZ alone.
        models = cz_models(cz_plan, ZX=-np.log(0.98) / 2, IX=-np.log(0.995) / 2)
        assert models["C"].fidelity(PauliString.from_label("XI")) == pytest.approx(0.98)
        assert models["C"].fidelity(PauliString.from_label("XZ")) == pytest.approx(0.995)
        low = noisy_records(cz_plan, models, 0.0, 0.0, "symmetry", model_rng(0, 0)).low
        est = low["C"][cz_plan.layers["C"].low_qubits.index(0)]
        assert est == pytest.approx(np.sqrt(0.98 * 0.995))
        assert abs(est - 0.98) == pytest.approx(0.0075, abs=3e-4)

    def test_symmetry_clamps_above_one(self, cz_plan):
        # Noise lifts some orbit products of a noiseless model above 1; the
        # clip, not a warning, keeps their estimates at 1.
        models = cz_models(cz_plan)
        rng = model_rng(2, 0)
        clipped = 0
        for _ in range(20):
            data = noisy_records(cz_plan, models, 1e-4, 0.0, "symmetry", rng)
            above = data.high["C"][cz_plan.layers["C"].symmetry_row] > 1.0
            clipped += np.count_nonzero(above)
            assert np.all(data.low["C"][above] == 1.0)
            assert np.all(data.low["C"] <= 1.0)
        assert clipped > 0

    def test_unit_depth_exact_at_zero_noise(self, line_plan):
        models = generate_models(line_plan, model_rng(0, 0))
        low = noisy_records(line_plan, models, 0.0, 0.0, "unit_depth", model_rng(1, 0)).low
        for lab, lp in line_plan.layers.items():
            for q, est in zip(lp.low_qubits, low[lab]):
                alpha = PauliString.single(3, q, "X")
                assert est == pytest.approx(models[lab].fidelity(alpha))

    def test_unit_depth_dispersion(self, line_plan):
        models = generate_models(line_plan, model_rng(0, 0))
        exact = models["B"].fidelity(PauliString.from_label("XII"))
        i = line_plan.layers["B"].low_qubits.index(0)
        rng = model_rng(1, 0)
        draws = [
            noisy_records(line_plan, models, 0.0, 1e-3, "unit_depth", rng).low["B"][i] - exact
            for _ in range(3000)
        ]
        assert np.std(draws) == pytest.approx(1e-3, rel=0.1)

    def test_unit_depth_clamped_into_unit_interval(self, line_plan):
        models = generate_models(line_plan, model_rng(0, 0))
        rng = model_rng(2, 0)
        for _ in range(200):
            low = noisy_records(line_plan, models, 0.0, 0.5, "unit_depth", rng).low
            for est in low.values():
                assert np.all((0.0 < est) & (est <= 1.0))


class TestLinePlan:
    def test_noiseless_exact_recovery(self, line_plan):
        rng = model_rng(12, 0)
        models = generate_models(line_plan, rng)
        res = characterize_and_fit(line_plan, models, 0.0, 0.0, "unit_depth", rng)
        for fitted in res.fitted.values():
            for lab in ("B", "G"):
                assert np.max(np.abs(fitted[lab] - models[lab].lambdas)) < 1e-8

    def test_symmetry_lows_recover_when_symmetric(self, line_plan):
        # On a symmetric model the square-root estimate is exact, so both
        # fits recover the truth under the symmetry baseline.
        gens = line_plan.generators
        lam = np.zeros(len(gens))
        lam[gens.strings.index(PauliString.from_label("ZZI"))] = 2e-3
        models = {lab: SplModel(lab, gens, lam) for lab in ("B", "G")}
        res = characterize_and_fit(line_plan, models, 0.0, 0.0, "symmetry", model_rng(0, 0))
        for fitted in res.fitted.values():
            for lab in ("B", "G"):
                assert np.max(np.abs(fitted[lab] - lam)) < 1e-7


class TestRefinedLow:
    def exact_lows(self, line_plan, models):
        return {
            lab: np.exp(-2.0 * (lp.s[lp.n_high :].astype(float) @ models[lab].lambdas))
            for lab, lp in line_plan.layers.items()
        }

    def test_exact_ratio_pulls_biased_low_toward_truth(self, line_plan):
        # Qubit 1's cluster pairs B's low single at its partner 0 with G's at
        # its partner 2; the exact ratio removes half the differential bias.
        models = generate_models(line_plan, model_rng(12, 0))
        truth = self.exact_lows(line_plan, models)
        b0 = line_plan.layers["B"].low_qubits.index(0)
        g2 = line_plan.layers["G"].low_qubits.index(2)
        biased = {lab: v.copy() for lab, v in truth.items()}
        biased["B"][b0] *= 1.008
        mu = truth["B"][b0] / truth["G"][g2]
        refined = _refined_low(line_plan, biased, {(1, ("B", "G")): mu})
        assert abs(refined["B"][b0] - truth["B"][b0]) < abs(biased["B"][b0] - truth["B"][b0])
        assert refined["B"][b0] / refined["G"][g2] == pytest.approx(mu, rel=1e-12)
        assert np.array_equal(refined["B"][1 - b0], truth["B"][1 - b0])

    def test_missing_ratio_falls_back(self, line_plan):
        models = generate_models(line_plan, model_rng(12, 0))
        lows = self.exact_lows(line_plan, models)
        refined = _refined_low(line_plan, lows, {})
        for lab in line_plan.labels:
            assert np.array_equal(refined[lab], lows[lab])
