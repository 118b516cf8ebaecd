import json
from fractions import Fraction

import numpy as np
import pytest

from cyclebench.layers import CliffordLayer
from cyclebench.learnability import FidelityFunction
from cyclebench.pauli import PauliString
from cyclebench.spl import (
    GeneratorSet,
    RandomModelParams,
    SplModel,
    random_model,
)
from cyclebench.topology import Topology, garnet20, square_lattice


def line_topology(n):
    return Topology(n, tuple((i, i + 1) for i in range(n - 1)))


class TestGeneratorSet:
    def test_count_formula(self):
        for topo in (line_topology(2), line_topology(5), garnet20(), square_lattice(3, 3)):
            gens = GeneratorSet(topo)
            assert len(gens) == 3 * topo.n + 9 * topo.num_pairs

    def test_ordering_singles_then_edges(self):
        gens = GeneratorSet(line_topology(2))
        labels = [p.label() for p in gens.strings]
        assert labels[:6] == ["XI", "YI", "ZI", "IX", "IY", "IZ"]
        assert labels[6:] == [
            "XX", "XY", "XZ", "YX", "YY", "YZ", "ZX", "ZY", "ZZ",
        ]

    def test_square_lattice_scaling_toward_21n(self):
        # |K|/n = 3 + 9p/n -> 21 as p/n -> 2 on large square lattices.
        topo = square_lattice(20, 20)
        gens = GeneratorSet(topo)
        assert len(gens) == 3 * 400 + 9 * 760
        assert abs(len(gens) / topo.n - 21.0) < 0.1 * 21

    @pytest.mark.parametrize("n", [3, 70])
    def test_overlaps_match_scalar(self, n):
        from cyclebench.pauli import symplectic_inner

        gens = GeneratorSet(line_topology(n))
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, z = (int.from_bytes(rng.bytes(9), "little") % (1 << n) for _ in "xz")
            p = PauliString(n, x, z)
            vec = gens.overlaps(p)
            assert vec.dtype == np.int8
            for g, v in zip(gens.strings, vec):
                assert v == symplectic_inner(p, g)

    def test_overlaps_dimension_mismatch(self):
        with pytest.raises(ValueError):
            GeneratorSet(line_topology(3)).overlaps(PauliString.identity(4))


class TestFidelity:
    def test_identity_is_one(self):
        topo = line_topology(2)
        model = SplModel("L", GeneratorSet(topo), np.full(3 * 2 + 9, 0.01))
        assert model.fidelity(PauliString.identity(2)) == 1.0

    def test_single_qubit_x_rate(self):
        # K = {X, Y, Z} on one qubit; only lambda_X nonzero:
        # f_Z = exp(-2 lambda_X) (Z anticommutes with X), f_X = 1.
        topo = Topology(1, ())
        gens = GeneratorSet(topo)
        lam = np.zeros(3)
        lam[gens.index(PauliString.from_label("X"))] = 0.07
        model = SplModel("L", gens, lam)
        assert model.fidelity(PauliString.from_label("Z")) == pytest.approx(np.exp(-0.14))
        assert model.fidelity(PauliString.from_label("Y")) == pytest.approx(np.exp(-0.14))
        assert model.fidelity(PauliString.from_label("X")) == 1.0

    def test_all_zero_rates(self):
        topo = line_topology(3)
        model = SplModel("L", GeneratorSet(topo), np.zeros(3 * 3 + 18))
        for label in ("XZY", "IIX", "ZZZ"):
            assert model.fidelity(PauliString.from_label(label)) == 1.0

    def test_log_linear_in_rates(self):
        topo = line_topology(3)
        gens = GeneratorSet(topo)
        rng = np.random.default_rng(0)
        l1, l2 = rng.uniform(0, 0.01, (2, len(gens)))
        p = PauliString.from_label("XYI")
        a = SplModel("L", gens, l1).log_fidelity(p)
        b = SplModel("L", gens, l2).log_fidelity(p)
        c = SplModel("L", gens, l1 + l2).log_fidelity(p)
        assert c == pytest.approx(a + b, rel=1e-12)

    def test_negative_rates_rejected(self):
        topo = line_topology(2)
        with pytest.raises(ValueError):
            SplModel("L", GeneratorSet(topo), np.full(15, -1e-3))


class TestFidelityProduct:
    # Products of fidelities over (layer label, Pauli string) terms, as a
    # FidelityFunction evaluates them.
    def setup_method(self):
        topo = line_topology(3)
        gens = GeneratorSet(topo)
        rng = np.random.default_rng(1)
        self.models = {
            "B": SplModel("B", gens, rng.uniform(0, 0.01, len(gens))),
            "G": SplModel("G", gens, rng.uniform(0, 0.01, len(gens))),
        }

    def test_empty_targets(self):
        assert FidelityFunction(()).evaluate(self.models) == 1.0

    def test_matches_orbit_product(self):
        t = [("B", PauliString.from_label("XIX")), ("G", PauliString.from_label("XZX"))]
        expect = self.models["B"].fidelity(t[0][1]) * self.models["G"].fidelity(t[1][1])
        product = FidelityFunction(tuple((l, p, Fraction(1)) for l, p in t))
        assert product.evaluate(self.models) == pytest.approx(expect, rel=1e-12)

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            FidelityFunction.product("Q", [PauliString.identity(3)]).evaluate(self.models)


class TestRandomModel:
    def test_zero_variance_zero_mean(self):
        params = RandomModelParams(
            mean_inactive=(0.0, 0.0),
            std_inactive=(0.0, 0.0),
            mean_active=(0.0, 0.0),
            spread_active=(0.0, 0.0),
            std_active=(0.0, 0.0),
        )
        topo = line_topology(4)
        layer = CliffordLayer(4, ((0, 1), (2, 3)), (), "L")
        model = random_model(GeneratorSet(topo), layer, params, np.random.default_rng(0))
        assert np.all(model.lambdas == 0.0)

    def test_seed_determinism(self):
        topo = garnet20()
        layer = CliffordLayer(20, ((0, 1), (2, 3), (8, 9)), (), "L")
        a = random_model(GeneratorSet(topo), layer, rng=np.random.default_rng(42))
        b = random_model(GeneratorSet(topo), layer, rng=np.random.default_rng(42))
        assert np.array_equal(a.lambdas, b.lambdas)

    def test_matches_per_generator_draws(self):
        # Reference: the gate means, then one scalar draw per generator in
        # generator order.
        topo = garnet20()
        gens = GeneratorSet(topo)
        layer = CliffordLayer(20, ((0, 1), (2, 3), (8, 9)), (), "L")
        params = RandomModelParams()
        rng = np.random.default_rng(3)
        means = {
            pair: [rng.normal(params.mean_active[w], params.spread_active[w]) for w in (0, 1)]
            for pair in layer.cz_pairs
        }
        ref = []
        for p in gens.strings:
            sup = p.support()
            w = len(sup) - 1
            gate = next((pair for pair in layer.cz_pairs if set(sup) <= set(pair)), None)
            if gate is None:
                ref.append(rng.normal(params.mean_inactive[w], params.std_inactive[w]))
            else:
                ref.append(rng.normal(means[gate][w], params.std_active[w]))
        model = random_model(gens, layer, params, np.random.default_rng(3))
        assert np.array_equal(model.lambdas, np.clip(ref, 0.0, None))
        assert model.generators is gens

    def test_cached_activity_matches_generator_loop(self):
        # Reference: the per-generator loop that decided each generator's
        # mean and spread on every draw.  One generator set serves several
        # layers with idle qubits (and one with none), interleaved, so a
        # cached activity must never leak from one layer to another.
        def loop_model(gens, layer, params, rng):
            gate_means = {
                pair: tuple(
                    rng.normal(params.mean_active[w], params.spread_active[w]) for w in (0, 1)
                )
                for pair in layer.cz_pairs
            }
            gate_of = {q: pair for pair in layer.cz_pairs for q in pair}
            loc, scale = np.empty(len(gens)), np.empty(len(gens))
            for i, p in enumerate(gens.strings):
                sup = p.support()
                w = len(sup) - 1
                gate = gate_of.get(sup[0])
                if gate is not None and all(q in gate for q in sup):
                    loc[i], scale[i] = gate_means[gate][w], params.std_active[w]
                else:
                    loc[i], scale[i] = params.mean_inactive[w], params.std_inactive[w]
            return np.clip(rng.normal(loc, scale), 0.0, None)

        topo = garnet20()
        gens = GeneratorSet(topo)
        layers = [
            CliffordLayer(20, ((0, 1), (2, 3), (8, 9)), (), "A"),
            CliffordLayer(20, (), (), "idle"),
            CliffordLayer(20, ((1, 5), (2, 6)), (), "B"),
            CliffordLayer(20, topo.edges[:1], (), "C"),
        ]
        params = RandomModelParams()
        for seed in range(3):
            for layer in layers + layers[::-1]:
                got = random_model(gens, layer, params, np.random.default_rng(seed))
                want = loop_model(gens, layer, params, np.random.default_rng(seed))
                assert np.array_equal(got.lambdas, want)

    def test_active_weight2_mean(self):
        # Monte-Carlo against the clamped-Gaussian mean oracle: the mean of
        # gate-contained weight-2 rates approaches E[max(N(m, s), 0)] with
        # m itself Gaussian; estimate both by sampling.
        params = RandomModelParams()
        topo = line_topology(2)
        layer = CliffordLayer(2, ((0, 1),), (), "L")
        gens = GeneratorSet(topo)
        w2 = [i for i, p in enumerate(gens.strings) if p.weight() == 2]
        rng = np.random.default_rng(7)
        draws = []
        for _ in range(400):
            model = random_model(gens, layer, params, rng)
            draws.extend(model.lambdas[w2])
        draws = np.array(draws)
        oracle_rng = np.random.default_rng(8)
        m = oracle_rng.normal(params.mean_active[1], params.spread_active[1], 200000)
        oracle = np.clip(oracle_rng.normal(m, params.std_active[1]), 0, None)
        assert abs(draws.mean() - oracle.mean()) < 3 * draws.std() / np.sqrt(len(draws))

    def test_straddling_generator_is_inactive(self):
        # Edge (1,2) straddles the two gates; its rates draw from the
        # inactive distribution, visible with zeroed inactive parameters.
        params = RandomModelParams(
            mean_inactive=(0.0, 0.0), std_inactive=(0.0, 0.0),
            mean_active=(1e-3, 2e-3), spread_active=(0.0, 0.0),
            std_active=(0.0, 0.0),
        )
        topo = line_topology(4)
        layer = CliffordLayer(4, ((0, 1), (2, 3)), (), "L")
        gens = GeneratorSet(topo)
        model = random_model(gens, layer, params, np.random.default_rng(0))
        for i, p in enumerate(gens.strings):
            sup = p.support()
            if sup in ((1, 2),):
                assert model.lambdas[i] == 0.0
            elif len(sup) == 2:
                assert model.lambdas[i] == pytest.approx(2e-3)


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        topo = garnet20()
        layer = CliffordLayer(20, ((0, 1), (4, 5)), (), "B")
        model = random_model(GeneratorSet(topo), layer, rng=np.random.default_rng(9))
        path = tmp_path / "model.json"
        model.dump(path)
        back = SplModel.load(path)
        assert back.layer_label == "B"
        assert np.array_equal(back.lambdas, model.lambdas)
        assert back.generators.topology.edges == topo.edges
        # Double roundtrip produces identical bytes.
        path2 = tmp_path / "model2.json"
        back.dump(path2)
        assert path.read_bytes() == path2.read_bytes()
