from fractions import Fraction

import numpy as np
import pytest

from cyclebench.exactla import rank_checked, solve_rational
from cyclebench.layers import CATALOG, CliffordLayer, chain_decomposition, conjugate, s_dressing
from cyclebench.learnability import (
    FidelityFunction,
    NotEquivalentError,
    analyze_layer,
    express_search,
    int_row,
    mlcb_targets,
    mu_expression,
    LearnableProduct,
    orbit_learnables,
    pattern_transfer_unlearnable,
)
from cyclebench.pauli import PauliString, digits
from cyclebench.pipeline import build_plan
from cyclebench.spl import GeneratorSet, random_model
from cyclebench.topology import Topology, four_layer_config, garnet20, square_lattice

from table_fixtures import TABLE_ROWS


def fn(label, *strings):
    return FidelityFunction.product(label, [PauliString.from_label(s) for s in strings])


def chain_topology(k, chain, extra):
    edges = tuple(chain["B"]) + tuple(chain["G"]) + tuple(extra)
    return Topology(k, edges)


def reference_orbit_learnables(layer, gens):
    """orbit_learnables string by string with `conjugate`: each generator's
    orbit, standard then S-dressed, sorted by (x_bits, z_bits), the first
    product of each string set kept."""
    dressings = [None, s_dressing(layer)] if layer.cz_pairs else [None]
    out, seen = [], set()
    for dressing in dressings:
        for alpha in gens.strings:
            orbit = [alpha]
            while True:
                cur = conjugate(layer, orbit[-1])
                if dressing is not None:
                    cur = conjugate(dressing, cur)
                if cur == alpha:
                    break
                orbit.append(cur)
            prod = LearnableProduct(
                layer.label,
                tuple(sorted(orbit, key=lambda p: (p.x_bits, p.z_bits))),
                "standard" if dressing is None else "dressed",
            )
            key = (prod.label, frozenset(prod.strings))
            if key not in seen:
                seen.add(key)
                out.append(prod)
    return out


def orbit_case(case):
    """(generators, layers) of a named case; the 70-qubit line is past the
    63 qubits of an int64 mask."""
    if case == "line70":
        topo = Topology(70, tuple((q, q + 1) for q in range(69)))
        layers = [CliffordLayer(70, tuple((q, q + 1) for q in range(1, 69, 2)), (), "L")]
    elif case.startswith("garnet20"):
        topo = garnet20()
        layers = four_layer_config(topo, case.split("-")[1])
    else:
        topo = square_lattice(2, 2)
        layers = [
            CliffordLayer(4, ((0, 1),), ((2, CATALOG["H"]), (3, CATALOG["SX"])), "A"),
            CliffordLayer(4, (), ((0, CATALOG["S"]),), "B"),
        ]
    return GeneratorSet(topo), layers


class TestOrbitLearnables:
    @pytest.mark.parametrize("case", ["line70", "garnet20", "sq_gates"])
    def test_matches_conjugate_reference(self, case):
        # Same products, in the same order, with the same string order.
        gens, layers = orbit_case("garnet20-closed_squares" if case == "garnet20" else case)
        for layer in layers[:1] if case == "garnet20" else layers:
            assert orbit_learnables(layer, gens)[0] == reference_orbit_learnables(layer, gens)

    @pytest.mark.parametrize(
        "case", ["garnet20-closed_squares", "garnet20-open_chains", "sq_gates", "line70"]
    )
    def test_rows_sum_string_overlaps(self, case):
        # Each product's int8 row is the sum of its strings' overlap rows.
        gens, layers = orbit_case(case)
        for layer in layers:
            products, rows = orbit_learnables(layer, gens)
            assert rows.dtype == np.int8 and rows.shape == (len(products), len(gens))
            for prod, row in zip(products, rows):
                want = gens.digit_overlaps(digits(prod.strings, gens.topology.n)).sum(axis=0)
                np.testing.assert_array_equal(row, want)


class TestSingleCzAnalysis:
    def setup_method(self):
        self.topo = Topology(2, ((0, 1),))
        self.gens = GeneratorSet(self.topo)
        self.cz = CliffordLayer(2, ((0, 1),), (), "C")
        self.report = analyze_layer(self.cz, self.gens)

    def test_standard_singletons(self):
        assert sorted(p.label() for p in self.report.standard_singletons) == ["IZ", "ZI", "ZZ"]

    def test_dressed_singletons(self):
        assert sorted(p.label() for p in self.report.dressed_singletons) == [
            "XX", "XY", "YX", "YY",
        ]

    def test_pair_constraints_and_unlearnable(self):
        assert self.report.independent_pair_constraints == 6
        assert self.report.unlearnable_dof == 2

    def test_unlearnable_basis_completes_rank(self):
        rows = list(orbit_learnables(self.cz, self.gens)[1])
        for p in self.report.unlearnable_basis:
            rows.append(int_row(self.gens, fn("C", p.label())))
        assert rank_checked(rows) == len(self.gens)


def completes_rank(report, gens):
    """The report's product rows plus its basis strings' rows, in full rank."""
    rows = [gens.overlaps(p) for p in report.unlearnable_basis]
    rows += [int_row(gens, prod.function()) for prod in report.products]
    return rank_checked(np.vstack(rows))


class TestUnlearnableBasis:
    # Generator strings, in generator order, extend the product rows to full
    # rank, so single-qubit gates get a basis as well.

    @pytest.mark.parametrize("sq, cz, basis", [
        ({3: "S"}, (), ["IIIX", "IXIX", "IYIX", "IZIX", "IIXX", "IIYX", "IIZX"]),
        ({3: "H"}, ((0, 1),), ["XIII", "IXII", "IIIX", "IXIX", "IZIX", "IIXX", "IIYX", "IIZX"]),
        ({}, ((0, 1), (2, 3)), ["XIII", "IXII", "IIXI", "IIIX"]),
        ({}, (), []),
    ])
    def test_basis_completes_rank(self, sq, cz, basis):
        gens = GeneratorSet(square_lattice(2, 2))
        layer = CliffordLayer(4, cz, tuple((q, CATALOG[g]) for q, g in sq.items()), "C")
        report = analyze_layer(layer, gens)
        assert [p.label() for p in report.unlearnable_basis] == basis
        assert len(report.unlearnable_basis) == report.unlearnable_dof
        assert completes_rank(report, gens) == len(gens)

    def test_garnet_basis_is_x_on_gate_qubits(self):
        topo = garnet20()
        gens = GeneratorSet(topo)
        for layer in four_layer_config(topo, "closed_squares")[:2]:
            report = analyze_layer(layer, gens)
            want = {PauliString.single(topo.n, q, "X") for pair in layer.cz_pairs for q in pair}
            assert set(report.unlearnable_basis) == want
            assert completes_rank(report, gens) == len(gens)


class TestPatternTransfer:
    def test_single_cz_general(self):
        cz = CliffordLayer(2, ((0, 1),), (), "C")
        assert pattern_transfer_unlearnable([cz], n=2) == 2

    def test_identity_layer(self):
        ident = CliffordLayer(3, (), (), "I")
        assert pattern_transfer_unlearnable([ident], n=3) == 0

    @pytest.mark.parametrize("ng", [1, 2, 3])
    def test_parallel_cz_spl_mode(self, ng):
        n = 2 * ng
        topo = Topology(n, tuple((i, i + 1) for i in range(n - 1)))
        layer = CliffordLayer(n, tuple((2 * i, 2 * i + 1) for i in range(ng)), (), "L")
        assert analyze_layer(layer, GeneratorSet(topo)).unlearnable_dof == 2 * ng

    def test_guard(self):
        layer = CliffordLayer(9, ((0, 1),), (), "L")
        with pytest.raises(ValueError):
            pattern_transfer_unlearnable([layer], n=9)


def three_qubit_setup():
    topo = Topology(3, ((0, 1), (1, 2)))
    b = CliffordLayer(3, ((0, 1),), (), "B")
    g = CliffordLayer(3, ((1, 2),), (), "G")
    return topo, b, g


def two_layer_row(gens, fn):
    """The row of `fn` on the rate space of layers B then G: each layer's
    `int_row`, side by side (integer coefficients, so neither is rescaled)."""
    return np.hstack([
        int_row(gens, FidelityFunction(tuple(t for t in fn.terms if t[0] == lab)))
        for lab in ("B", "G")
    ])


class TestEquivalenceTest:
    # Two fidelity functions are equivalent modulo the learnable rows when
    # each is expressible through the other.  Certificates are single-layer,
    # so the two-layer claims are solved exactly on stacked rows here.
    def setup_method(self):
        self.topo, self.b, self.g = three_qubit_setup()
        self.gens = GeneratorSet(self.topo)
        prods = orbit_learnables(self.b, self.gens)[0] + orbit_learnables(self.g, self.gens)[0]
        self.rows = np.array([two_layer_row(self.gens, p.function()) for p in prods])

    def exponent(self, target, anchor):
        """epsilon in target = epsilon * anchor + learnable rows (the
        anchor's coefficient, exact), or None outside the span."""
        cols = [two_layer_row(self.gens, anchor).tolist(), *self.rows.tolist()]
        coeffs = solve_rational(cols, two_layer_row(self.gens, target).tolist())
        return None if coeffs is None else (coeffs[0], coeffs[1:])

    def test_mu_equivalent_to_chain_product(self):
        mu = FidelityFunction.ratio(
            ("B", PauliString.from_label("XII")), ("G", PauliString.from_label("IIX"))
        )
        o3 = fn("B", "XIX") + fn("G", "XZX")
        forward, _ = self.exponent(mu, o3)
        backward, _ = self.exponent(o3, mu)
        assert forward * backward == 1

    def test_same_function_equivalent(self):
        mu = FidelityFunction.ratio(
            ("B", PauliString.from_label("XII")), ("G", PauliString.from_label("IIX"))
        )
        epsilon, sigma = self.exponent(mu, mu)
        assert epsilon == 1 and not any(sigma)

    def test_learnable_function_detected(self):
        zz = two_layer_row(self.gens, fn("B", "ZZI"))
        other = two_layer_row(self.gens, FidelityFunction.ratio(
            ("B", PauliString.from_label("XII")), ("G", PauliString.from_label("IIX"))
        ))
        rank = rank_checked(self.rows)
        assert rank_checked(np.vstack([self.rows, zz])) == rank
        assert rank_checked(np.vstack([self.rows, other])) == rank + 1

    def test_independent_functions(self):
        f1 = fn("B", "XII")
        f2 = fn("B", "IXI")
        with pytest.raises(NotEquivalentError):
            express_search(f1, f2, self.gens, orbit_learnables(self.b, self.gens))

    def test_cross_layer_product_adds_one_dof(self):
        # The measured multi-layer product is outside the learnable span.
        o3 = two_layer_row(self.gens, fn("B", "XIX") + fn("G", "XZX"))
        rank = rank_checked(self.rows)
        assert rank_checked(np.vstack([self.rows, o3])) == rank + 1


class TestExpressSearch:
    def test_blue_layer_certificate(self):
        # On the three-qubit chain the single learnable f^B_IIX row relates
        # the target to the anchor: m_XII = m_XIX - m_IIX.
        topo, b, _ = three_qubit_setup()
        gens = GeneratorSet(topo)
        cert = express_search(
            fn("B", "XII"), fn("B", "XIX"), gens, orbit_learnables(b, gens), seed=3
        )
        assert cert.epsilon == 1
        assert len(cert.sigma) == 1 and cert.sigma[0] == Fraction(-1)
        assert [p.label() for p in cert.basis_products[0].strings] == ["IIX"]

    def test_green_layer_certificate_validates(self):
        topo, _, g = three_qubit_setup()
        gens = GeneratorSet(topo)
        cert = express_search(
            fn("G", "IIX"), fn("G", "XZX"), gens, orbit_learnables(g, gens), seed=5
        )
        assert cert.epsilon == -1
        rng = np.random.default_rng(0)
        for _ in range(20):
            model = random_model(gens, g, rng=rng)
            assert abs(cert.residual_log({"G": model})) < 1e-12

    def test_learnable_target_gets_zero_epsilon(self):
        topo, b, _ = three_qubit_setup()
        gens = GeneratorSet(topo)
        cert = express_search(
            fn("B", "IZI"), fn("B", "XIX"), gens, orbit_learnables(b, gens), seed=1
        )
        assert cert.epsilon == 0

    def test_not_equivalent_raises(self):
        topo, b, _ = three_qubit_setup()
        gens = GeneratorSet(topo)
        with pytest.raises(NotEquivalentError):
            express_search(
                fn("B", "IXI"), fn("B", "XIX"), gens, orbit_learnables(b, gens), seed=1
            )


class TestMlcbTargets:
    def test_three_qubit_open_chain(self):
        topo, b, g = three_qubit_setup()
        (chain,) = chain_decomposition(b, g)
        (target,) = mlcb_targets(chain, b, g)
        assert target.qubit == 1
        assert target.prep.label() == "XIX"
        assert [(l, p.label()) for l, p, _ in target.product.terms] == [
            ("B", "XIX"), ("G", "XZX"),
        ]
        assert [(l, p.label()) for l, p, _ in target.mu.terms] == [
            ("B", "XII"), ("G", "IIX"),
        ]

    def test_two_qubit_closed_chain(self):
        b = CliffordLayer(2, ((0, 1),), (), "B")
        g = CliffordLayer(2, ((0, 1),), (), "G")
        (chain,) = chain_decomposition(b, g)
        targets = {t.qubit: t for t in mlcb_targets(chain, b, g)}
        c2 = [(l, p.label()) for l, p, _ in targets[0].product.terms]
        c2p = [(l, p.label()) for l, p, _ in targets[1].product.terms]
        assert c2 == [("B", "IX"), ("G", "ZX")]
        assert c2p == [("B", "XI"), ("G", "XZ")]

    def test_four_qubit_closed_chain(self):
        b = CliffordLayer(4, ((0, 1), (2, 3)), (), "B")
        g = CliffordLayer(4, ((0, 2), (1, 3)), (), "G")
        (chain,) = chain_decomposition(b, g)
        targets = {t.qubit: t for t in mlcb_targets(chain, b, g)}
        assert set(targets) == {0, 1, 2, 3}
        got = [(l, p.label()) for l, p, _ in targets[0].product.terms]
        assert got == [("B", "IXXX"), ("G", "ZXYY"), ("B", "IYYX"), ("G", "ZYXY")]

    def test_four_qubit_open_chains(self):
        b = CliffordLayer(4, ((0, 1), (2, 3)), (), "B")
        g = CliffordLayer(4, ((1, 2),), (), "G")
        (chain,) = chain_decomposition(b, g)
        targets = {t.qubit: t for t in mlcb_targets(chain, b, g)}
        o4 = [(l, p.label()) for l, p, _ in targets[1].product.terms]
        assert o4 == [("B", "XIXI"), ("G", "XZXZ"), ("B", "XIXZ"), ("G", "XZXI")]

    def test_five_qubit_center(self):
        b = CliffordLayer(5, ((1, 2), (3, 4)), (), "B")
        g = CliffordLayer(5, ((0, 1), (2, 3)), (), "G")
        (chain,) = chain_decomposition(b, g)
        targets = {t.qubit: t for t in mlcb_targets(chain, b, g)}
        o5 = [(l, p.label()) for l, p, _ in targets[2].product.terms]
        assert o5 == [("B", "IXIXI"), ("G", "IXZXZ"), ("B", "ZXIXZ"), ("G", "ZXZXI")]

    def test_empty_bulk(self):
        b = CliffordLayer(2, ((0, 1),), (), "B")
        g = CliffordLayer(2, (), (), "G")
        (chain,) = chain_decomposition(b, g)
        assert mlcb_targets(chain, b, g) == []

    def test_six_qubit_closed_chain_window(self):
        b = CliffordLayer(6, ((0, 1), (2, 3), (4, 5)), (), "B")
        g = CliffordLayer(6, ((1, 2), (3, 4), (5, 0)), (), "G")
        (chain,) = chain_decomposition(b, g)
        targets = mlcb_targets(chain, b, g)
        assert len(targets) == 6
        for t in targets:
            for _, p, _ in t.product.terms:
                assert len(p.support()) <= 5  # never more than a five-qubit window


class TestMuExpressions:
    def test_eq15_identity(self):
        topo, b, g = three_qubit_setup()
        (chain,) = chain_decomposition(b, g)
        (target,) = mlcb_targets(chain, b, g)
        expr = mu_expression(target, topo, seed=2)
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(100):
            models = {
                "B": random_model(GeneratorSet(topo), b, rng=rng),
                "G": random_model(GeneratorSet(topo), g, rng=rng),
            }
            direct = models["B"].fidelity(PauliString.from_label("XII")) / models[
                "G"
            ].fidelity(PauliString.from_label("IIX"))
            worst = max(worst, abs(np.exp(expr.mu_function().evaluate_log(models)) - direct))
        assert worst < 1e-10

    def test_mu_ratios_map(self):
        # The one ratio of the three-qubit chain, at its bulk qubit.
        topo, b, g = three_qubit_setup()
        plan = build_plan(topo, [b, g])
        assert [(e.qubit, e.pair) for e in plan.mu_entries] == [(1, ("B", "G"))]

    def test_epsilon_signs_oppose(self):
        topo, b, g = three_qubit_setup()
        (chain,) = chain_decomposition(b, g)
        (target,) = mlcb_targets(chain, b, g)
        expr = mu_expression(target, topo, seed=2)
        c1, c2 = expr.certificates
        assert c1.epsilon == -c2.epsilon == expr.epsilon


class TestProductRows:
    def test_rows_are_int_rows(self):
        # Each product's int8 row is the integer row of its function.
        gens = GeneratorSet(Topology(3, ((0, 1), (1, 2))))
        prods, rows = orbit_learnables(CliffordLayer(3, ((1, 2),), (), "G"), gens)
        assert rows.dtype == np.int8
        assert np.array_equal(rows, [int_row(gens, p.function()) for p in prods])


class TestTableFixtures:
    """Every transcribed appendix row must satisfy the exact log identity and
    validate numerically on random models."""

    @pytest.mark.parametrize("row", TABLE_ROWS, ids=[r[0] for r in TABLE_ROWS])
    def test_row_is_exact_identity(self, row):
        name, k, chain, extra, layer_lab, f1, f2, eps, sig, fs = row
        topo = chain_topology(k, chain, extra)
        gens = GeneratorSet(topo)
        # f1 - eps f2 - sum sigma_i f_i, scaled to integers, is the zero row.
        diff = fn(layer_lab, f1) + fn(layer_lab, *f2).scaled(-Fraction(eps))
        for s, pair in zip(sig, fs):
            diff = diff + fn(layer_lab, *pair).scaled(-Fraction(s))
        assert not int_row(gens, diff).any()

    @pytest.mark.parametrize("row", TABLE_ROWS, ids=[r[0] for r in TABLE_ROWS])
    def test_row_validates_on_random_models(self, row):
        name, k, chain, extra, layer_lab, f1, f2, eps, sig, fs = row
        topo = chain_topology(k, chain, extra)
        layer = CliffordLayer(k, tuple(chain[layer_lab]), (), layer_lab)
        rng = np.random.default_rng(17)
        for _ in range(100):
            model = {layer_lab: random_model(GeneratorSet(topo), layer, rng=rng)}
            resid = fn(layer_lab, f1).evaluate_log(model)
            resid -= float(Fraction(eps)) * fn(layer_lab, *f2).evaluate_log(model)
            for s, pair in zip(sig, fs):
                resid -= float(Fraction(s)) * fn(layer_lab, *pair).evaluate_log(model)
            assert abs(resid) < 1e-9
