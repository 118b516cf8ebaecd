import numpy as np
import pytest

from cyclebench.fitting import nnls
from cyclebench.pipeline import (
    build_plan,
    characterize_and_fit,
    covering_pairs,
    generate_models,
    model_rng,
    sweep_item,
)
from cyclebench.topology import four_layer_config, square_lattice


@pytest.fixture(scope="module")
def plan():
    topo = square_lattice(3, 3)
    return build_plan(topo, four_layer_config(topo, "closed_squares"), seed=0, retries=4)


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

    def test_plan_gram_agrees(self, plan):
        # The plan's exact integer Gram fits as nnls's own float A^T A does.
        rng = model_rng(3, 0)
        models = generate_models(plan, rng)
        for lab in plan.labels:
            S = np.vstack([plan.s_high[lab], plan.s_low[lab]]).astype(float)
            gram = S.T @ S
            assert plan.gram[lab].dtype == np.min_scalar_type(int(gram.max()))
            assert np.array_equal(plan.gram[lab], gram)
            b = S @ models[lab].lambdas + rng.normal(0.0, 1e-3, len(S))
            own = nnls(S, b)
            given = nnls(S, b, ata=plan.gram[lab])
            assert 0 < np.count_nonzero(own.lambdas) < len(own.lambdas)
            assert np.array_equal(own.lambdas, given.lambdas)
            assert own.iterations == given.iterations

    def test_mu_values_exact_on_models(self, plan):
        rng = model_rng(1, 0)
        models = generate_models(plan, rng)
        for entry in plan.mu_entries:
            mu_fn = entry.expression.mu_function().evaluate(models)
            num, den = entry.expression.target.mu.terms
            direct = models[num[0]].fidelity(num[1]) / models[den[0]].fidelity(den[1])
            assert mu_fn == pytest.approx(direct, abs=1e-10)


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

    def test_mlcb_improves_on_unit_depth_noise(self, plan):
        ratios = []
        for i in range(6):
            _, res = sweep_item(plan, 123, i, 1e-4, 1e-3, "unit_depth")
            ratios.append(res.ratio)
        assert np.mean(ratios) < 1.0
