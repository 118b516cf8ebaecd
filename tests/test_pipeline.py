import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import cyclebench

from cyclebench import pipeline
from cyclebench.fitting import RankDeficientError, nnls
from cyclebench.layers import CATALOG, CliffordLayer
from cyclebench.pauli import PauliString
from cyclebench.pipeline import (
    MAX_INV_GRAM_COND,
    _refined_low,
    build_plan,
    cached_plan,
    characterize_and_fit,
    covering_pairs,
    estimate_mu,
    generate_models,
    gram_rank,
    model_rng,
    noisy_records,
    null_generators,
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
        wanted = covering_pairs(plan.topology, plan.layers)[1]
        built = {(e.qubit, e.pair) for e in plan.mu_entries}
        assert built == wanted
        assert plan.mu_failures == 0

    def test_plan_inverse_gram(self, plan, sq_plan):
        # H = (S^T S)^-1 per full-rank layer; fits through it equal nnls
        # factoring its own passive blocks.
        assert "A" not in sq_plan.inv_gram
        rng = model_rng(3, 0)
        models = generate_models(plan, rng)
        for lab in plan.labels:
            S = np.vstack([plan.s_high[lab], plan.s_low[lab]])
            gram = S.T.astype(float) @ S
            H = plan.inv_gram[lab]
            assert np.max(np.abs(H @ gram - np.eye(len(gram)))) < 1e-10
            b = S @ models[lab].lambdas + rng.normal(0.0, 1e-3, len(S))
            own = nnls(S, b)
            given = nnls(S, b, inv_gram=H)
            assert 0 < np.count_nonzero(own.lambdas) < len(own.lambdas)
            assert np.max(np.abs(own.lambdas - given.lambdas)) < 1e-12
            assert given.kkt_residual <= 1e-10

    def test_full_rank_plan(self, plan):
        assert plan.unconstrained == {}
        for lab in plan.labels:
            S = np.vstack([plan.s_high[lab], plan.s_low[lab]]).astype(float)
            assert null_generators(S.T @ S, plan.generators) == (len(plan.generators), [])

    def test_learnable_rows_alone_rank_deficient(self):
        # Without the two unlearnable singles a CZ layer's fit matrix loses
        # two directions; with them it is full rank.
        single = build_plan(Topology(2, ((0, 1),)), [CliffordLayer(2, ((0, 1),), (), "C")])
        high = single.s_high["C"].astype(float)
        rank, names = null_generators(high.T @ high, single.generators)
        assert rank == 15 - 2 and names
        assert single.unconstrained == {}

    def test_sq_layer_rank_deficient(self, sq_plan):
        rank, names = sq_plan.unconstrained["A"]
        assert rank == 42 < len(sq_plan.generators) == 48
        assert names and all(name[2] in "XY" for name in names)

    def test_cached_plan_keys_on_sq_gates(self):
        # The same CZ pairs with and without an S gate are different plans.
        topo = square_lattice(2, 2)
        with_sq = [CliffordLayer(4, ((0, 1),), ((2, CATALOG["S"]),), "A")]
        cz_only = [CliffordLayer(4, ((0, 1),), (), "A")]
        first = cached_plan(topo, with_sq)
        assert "A" in first.unconstrained
        plain = cached_plan(topo, cz_only)
        assert plain is not first and plain.unconstrained == {}
        assert cached_plan(topo, list(with_sq)) is first

    def test_fit_rows_are_compact_overlap_sums(self, plan):
        # int8 and C-contiguous: nnls and the noisy-record einsums read the
        # rows in place, never through a float copy.
        gens = plan.generators
        for lab in plan.labels:
            high, low = plan.s_high[lab], plan.s_low[lab]
            for rows in (high, low):
                assert rows.dtype == np.int8 and rows.flags.c_contiguous
                assert rows.base is plan.s_fit[lab]
            assert np.array_equal(plan.s_fit[lab], np.vstack([high, low]))
            want = [sum(gens.overlaps(p).astype(int) for p in prod.strings)
                    for prod in plan.products[lab]]
            assert np.array_equal(high, want)
            want = [gens.overlaps(PauliString.single(gens.topology.n, q, "X"))
                    for q in plan.low_qubits[lab]]
            assert np.array_equal(low, want)

    def test_mu_entries_pinned(self):
        # Recorded from the Fraction-elimination solver on a fresh
        # certificate cache; the integer solver must give the same plan.
        topo = square_lattice(2, 3)
        small = build_plan(topo, four_layer_config(topo, "open_chains"), seed=0, retries=4)
        assert small.mu_failures == 0
        assert mu_entries_text(small) == PINNED_MU_ENTRIES

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

    def test_mu_values_exact_on_models(self, plan):
        rng = model_rng(1, 0)
        models = generate_models(plan, rng)
        for entry in plan.mu_entries:
            mu_fn = entry.expression.mu_function().evaluate(models)
            num, den = entry.expression.target.mu.terms
            direct = models[num[0]].fidelity(num[1]) / models[den[0]].fidelity(den[1])
            assert mu_fn == pytest.approx(direct, abs=1e-10)


def mu_entries_text(plan):
    """(qubit, pair, epsilon, learn_refs, certificate of each layer) per entry."""
    return [
        (
            e.qubit,
            "".join(e.pair),
            str(e.expression.epsilon),
            " ".join(f"{lab}{row}:{coeff!r}" for lab, row, coeff in e.learn_refs),
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
            np.exp(sum(models[l].log_fidelity(p) for l, p in e.product_terms))
            for e in plan.mu_entries
        ]
        assert len(got) == len(want) > 0
        assert np.max(np.abs(got / want - 1.0)) <= 1e-12

    def test_ratio_rows_are_product_terms(self, small_plan):
        gens = small_plan.generators
        for lab in small_plan.labels:
            rows, entry = small_plan.ratio_rows[lab]
            want = [
                (e, gens.overlaps(p)) for e, m in enumerate(small_plan.mu_entries)
                for l, p in m.product_terms if l == lab
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


def scalar_mu_hat(plan, records):
    """Reference: mu_hat entry by entry, one scalar log per factor."""
    out = {}
    for entry, o_noisy in zip(plan.mu_entries, records.ratio_products):
        if o_noisy <= 0:
            continue
        log_mu = entry.epsilon * np.log(o_noisy)
        for l, row, coeff in entry.learn_refs:
            log_mu += coeff * np.log(max(records.high[l][row], 1e-12))
        out[(entry.qubit, entry.pair)] = float(np.exp(log_mu))
    return out


class TestInverseGramGuard:
    @staticmethod
    def ill_conditioned(seed, m=60, n=30):
        # Singular values from 1 down to 1e-4: cond(A^T A) = 1e8.
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.normal(size=(m, n)))
        v, _ = np.linalg.qr(rng.normal(size=(n, n)))
        return (u * np.logspace(0, -4, n)) @ v.T, rng

    def test_rank_and_condition_from_one_spectrum(self):
        a, _ = self.ill_conditioned(0)
        gram = a.T @ a
        rank, cond = gram_rank(gram)
        assert rank == np.linalg.matrix_rank(gram, hermitian=True) == 30
        assert cond == pytest.approx(1e8, rel=1e-3)
        assert cond > MAX_INV_GRAM_COND
        a[:, 3] = a[:, 7]
        rank, cond = gram_rank(a.T @ a)
        assert rank == np.linalg.matrix_rank(a.T @ a, hermitian=True) == 29
        assert cond == np.inf

    def test_ill_conditioned_layers_fit_by_factoring(self):
        # Such a layer keeps no inverse Gram; nnls then factors each
        # passive block and still meets the KKT bound.
        for seed in range(40):
            a, rng = self.ill_conditioned(seed)
            x = np.abs(rng.normal(size=30)) * (rng.random(30) < 0.7)
            fit = nnls(a, a @ x + rng.normal(0.0, 1e-2, 60))
            assert fit.kkt_residual <= 1e-10

    def test_plan_without_inverse_fits_the_same(self, line_plan, monkeypatch):
        monkeypatch.setattr(pipeline, "MAX_INV_GRAM_COND", 0.0)
        topo = Topology(3, ((0, 1), (1, 2)))
        bare = build_plan(topo, line_plan.layers)
        assert bare.inv_gram == {} and bare.unconstrained == {}
        a = sweep_item(line_plan, 5, 0, 1e-4, 1e-3, "unit_depth")[1]
        b = sweep_item(bare, 5, 0, 1e-4, 1e-3, "unit_depth")[1]
        for pipe in a.fitted:
            for lab in line_plan.labels:
                assert np.max(np.abs(a.fitted[pipe][lab] - b.fitted[pipe][lab])) < 1e-12
                assert b.fit_meta[pipe][lab]["kkt_residual"] <= 1e-10


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
        assert sq_plan.unconstrained["A"][1][0] in str(exc.value)

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
        lam[gens.index(PauliString.from_label(label))] = rate
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
        assert low["C"][cz_plan.low_qubits["C"].index(0)] == pytest.approx(0.99)
        # One estimate per single fidelity, each from its clipped orbit product.
        data = noisy_records(cz_plan, models, 1e-3, 0.0, "symmetry", model_rng(1, 0))
        rows = data.high["C"][cz_plan.symmetry_row["C"]]
        assert len(data.low["C"]) == len(cz_plan.low_qubits["C"])
        assert np.array_equal(data.low["C"], np.sqrt(np.clip(rows, 1e-12, 1.0)))

    def test_symmetry_exact_on_symmetric_model(self, cz_plan):
        # ZZ anticommutes with both XI and XZ, so f_XI = f_XZ exactly.
        models = cz_models(cz_plan, ZZ=3e-3)
        fxi = models["C"].fidelity(PauliString.from_label("XI"))
        fxz = models["C"].fidelity(PauliString.from_label("XZ"))
        assert fxi == pytest.approx(fxz)
        low = noisy_records(cz_plan, models, 0.0, 0.0, "symmetry", model_rng(0, 0)).low
        assert low["C"][cz_plan.low_qubits["C"].index(0)] == pytest.approx(fxi, rel=1e-12)

    def test_symmetry_bias_on_asymmetric_model(self, cz_plan):
        # ZX lowers f_XI alone and IX lowers f_XZ alone.
        models = cz_models(cz_plan, ZX=-np.log(0.98) / 2, IX=-np.log(0.995) / 2)
        assert models["C"].fidelity(PauliString.from_label("XI")) == pytest.approx(0.98)
        assert models["C"].fidelity(PauliString.from_label("XZ")) == pytest.approx(0.995)
        low = noisy_records(cz_plan, models, 0.0, 0.0, "symmetry", model_rng(0, 0)).low
        est = low["C"][cz_plan.low_qubits["C"].index(0)]
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
            above = data.high["C"][cz_plan.symmetry_row["C"]] > 1.0
            clipped += np.count_nonzero(above)
            assert np.all(data.low["C"][above] == 1.0)
            assert np.all(data.low["C"] <= 1.0)
        assert clipped > 0

    def test_unit_depth_exact_at_zero_noise(self, line_plan):
        models = generate_models(line_plan, model_rng(0, 0))
        low = noisy_records(line_plan, models, 0.0, 0.0, "unit_depth", model_rng(1, 0)).low
        for lab in line_plan.labels:
            for q, est in zip(line_plan.low_qubits[lab], low[lab]):
                alpha = PauliString.single(3, q, "X")
                assert est == pytest.approx(models[lab].fidelity(alpha))

    def test_unit_depth_dispersion(self, line_plan):
        models = generate_models(line_plan, model_rng(0, 0))
        exact = models["B"].fidelity(PauliString.from_label("XII"))
        i = line_plan.low_qubits["B"].index(0)
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
        lam[gens.index(PauliString.from_label("ZZI"))] = 2e-3
        models = {lab: SplModel(lab, gens, lam) for lab in ("B", "G")}
        res = characterize_and_fit(line_plan, models, 0.0, 0.0, "symmetry", model_rng(0, 0))
        for fitted in res.fitted.values():
            for lab in ("B", "G"):
                assert np.max(np.abs(fitted[lab] - lam)) < 1e-7


class TestRefinedLow:
    def exact_lows(self, line_plan, models):
        return {
            lab: np.exp(-2.0 * (line_plan.s_low[lab].astype(float) @ models[lab].lambdas))
            for lab in line_plan.labels
        }

    def test_exact_ratio_pulls_biased_low_toward_truth(self, line_plan):
        # Qubit 1's cluster pairs B's low single at its partner 0 with G's at
        # its partner 2; the exact ratio removes half the differential bias.
        models = generate_models(line_plan, model_rng(12, 0))
        truth = self.exact_lows(line_plan, models)
        b0 = line_plan.low_qubits["B"].index(0)
        g2 = line_plan.low_qubits["G"].index(2)
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


def test_plan_fit_and_pec_paths_import_no_scipy():
    # Importing scipy.linalg alone about doubles a fresh process's resident
    # set; the plan, fit and PEC paths stay on numpy.
    code = textwrap.dedent(
        """
        import sys
        from cyclebench import pec, pipeline
        from cyclebench.topology import four_layer_config, square_lattice
        topo = square_lattice(2, 2)
        plan = pipeline.build_plan(topo, four_layer_config(topo, "closed_squares"))
        pipeline.sweep_item(plan, 0, 0, 1e-4, 1e-3, "unit_depth")
        pec.pec_sweep(plan, 1, 5, 4, (2,), 1e-4, 1e-3, "unit_depth", 0)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
    )
    src = str(Path(cyclebench.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
