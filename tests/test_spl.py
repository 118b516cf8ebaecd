import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclebench.cli import main
from cyclebench.layers import CliffordLayer
from cyclebench.learnability import FidelityFunction
from cyclebench.pauli import PauliString, digits
from cyclebench.pipeline import model_rng
from cyclebench.spl import (
    GeneratorSet,
    RandomModelParams,
    SplModel,
    random_model,
)
from cyclebench.topology import Topology, garnet20, square_lattice


def line_topology(n):
    return Topology(n, tuple((i, i + 1) for i in range(n - 1)))


def reference_strings(topo):
    """The generator strings one by one: singles, then each edge's nine."""
    n = topo.n
    out = [PauliString.single(n, q, letter) for q in range(n) for letter in "XYZ"]
    for a, b in topo.edges:
        for la in "XYZ":
            for lb in "XYZ":
                pa, pb = PauliString.single(n, a, la), PauliString.single(n, b, lb)
                out.append(PauliString(n, pa.x_bits | pb.x_bits, pa.z_bits | pb.z_bits))
    return tuple(out)


def reference_support_masks(strings):
    """(qubits, masks) read from each string's support, one by one."""
    qubits = np.zeros((len(strings), 2), dtype=np.intp)
    masks = np.zeros((len(strings), 2), dtype=np.uint8)
    for i, p in enumerate(strings):
        sup = p.support()
        qubits[i] = sup[0], sup[-1]
        for k, q in enumerate(sup):
            masks[i, k] = ((p.z_bits >> q) & 1) + 2 * ((p.x_bits >> q) & 1)
    return qubits, masks


def reference_site_tables(n, qubits, masks):
    """`GeneratorSet.site_tables` with the edges taken from the weight-2
    generators' supports."""
    qubits, masks = qubits.copy(), masks.copy()
    single = np.flatnonzero(qubits[:, 0] == qubits[:, 1])
    host = np.repeat(np.arange(n)[:, None], 2, axis=1)
    edges = sorted(set(map(tuple, qubits[qubits[:, 0] != qubits[:, 1]].tolist())))
    for a, b in reversed(edges):
        host[[a, b]] = a, b
    q = qubits[single, 0]
    qubits[single] = host[q]
    on_hi = host[q, 0] != q
    masks[single[on_hi]] = masks[single[on_hi]][:, ::-1]
    sites, site_of = np.unique(qubits, axis=0, return_inverse=True)
    codes = np.arange(16, dtype=np.uint8)[:, None]
    parity = np.array([bin(v).count("1") & 1 for v in range(16)], dtype=np.int8)
    ov16 = np.take(parity, (codes & 3 & masks[:, 0]) | (((codes >> 2) & masks[:, 1]) << 2))
    return sites, site_of.reshape(-1), ov16


@st.composite
def drawn_topologies(draw):
    """1-70 qubits (past the 64 bits of a mask) on a random edge list, so
    that sparse draws leave qubits on no edge."""
    n = draw(st.one_of(st.integers(1, 70), st.integers(63, 70)))
    if n == 1:
        return Topology(1, ())
    qubit = st.integers(0, n - 1)
    pairs = st.tuples(qubit, qubit).filter(lambda e: e[0] != e[1]).map(lambda e: tuple(sorted(e)))
    return Topology(n, tuple(draw(st.lists(pairs, unique=True, max_size=2 * n))))


class TestGeneratorSet:
    @settings(max_examples=60, deadline=None)
    @given(topo=drawn_topologies())
    @example(topo=line_topology(70))
    @example(topo=Topology(70, ((3, 69), (0, 65))))
    @example(topo=Topology(5, ((0, 1), (1, 2), (2, 3))))
    def test_matches_string_by_string_construction(self, topo):
        gens = GeneratorSet(topo)
        strings = reference_strings(topo)
        assert gens.strings == strings and len(gens) == len(strings)
        np.testing.assert_array_equal(gens.digits, digits(strings, topo.n))
        assert gens.digits.dtype == np.uint8
        ref = reference_support_masks(strings)
        ref += reference_site_tables(topo.n, *ref)
        for got, want in zip(gens.support_masks + gens.site_tables, ref):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_count_formula(self):
        for topo in (line_topology(2), line_topology(5), garnet20(), square_lattice(3, 3)):
            gens = GeneratorSet(topo)
            assert len(gens) == 3 * topo.n + 9 * len(topo.edges)

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
        from test_pauli import symplectic_inner

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

    @pytest.mark.parametrize("case", ["garnet20", "square3x3", "isolated_qubit"])
    def test_site_tables_fold_qubits_into_edges(self, case):
        # Every generator's overlap is ov16 at its site's code, and a
        # single-qubit generator's site is an edge holding its qubit unless
        # that qubit is on no edge.
        from test_pec import isolated_qubit_setup

        if case == "isolated_qubit":
            gens = isolated_qubit_setup()[0]
        else:
            gens = GeneratorSet(garnet20() if case == "garnet20" else square_lattice(3, 3))
        topo = gens.topology
        sites, site_of, ov16 = gens.site_tables
        on_edge = {q for edge in topo.edges for q in edge}
        assert {a for a, b in sites.tolist() if a == b} == set(range(topo.n)) - on_edge
        assert {(a, b) for a, b in sites.tolist() if a != b} == set(topo.edges)
        qubits, _ = gens.support_masks
        for k, (a, b) in enumerate(qubits.tolist()):
            holding = [e for e in sorted(topo.edges) if a in e and b in e]
            assert tuple(sites[site_of[k]]) == (holding[0] if holding else (a, b))
        strings = np.random.default_rng(7).integers(0, 4, size=(300, topo.n), dtype=np.uint8)
        lo, hi = sites[site_of].T
        codes = strings[:, lo] | (strings[:, hi] << 2)
        got = ov16[codes, np.arange(len(gens))]
        np.testing.assert_array_equal(got, gens.digit_overlaps(strings))


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
        lam[gens.strings.index(PauliString.from_label("X"))] = 0.07
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
        assert np.exp(FidelityFunction(()).evaluate_log(self.models)) == 1.0

    def test_matches_orbit_product(self):
        t = [("B", PauliString.from_label("XIX")), ("G", PauliString.from_label("XZX"))]
        expect = self.models["B"].fidelity(t[0][1]) * self.models["G"].fidelity(t[1][1])
        product = FidelityFunction(tuple((l, p, Fraction(1)) for l, p in t))
        assert np.exp(product.evaluate_log(self.models)) == pytest.approx(expect, rel=1e-12)

    def test_other_qubit_count(self):
        with pytest.raises(ValueError):
            FidelityFunction.product("B", [PauliString.identity(4)]).evaluate_log(self.models)

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            FidelityFunction.product("Q", [PauliString.identity(3)]).evaluate_log(self.models)


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
        model = random_model(GeneratorSet(topo), layer, np.random.default_rng(0), params)
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
        model = random_model(gens, layer, np.random.default_rng(3), params)
        assert np.array_equal(model.lambdas, np.clip(ref, 0.0, None))
        assert model.generators is gens

    def test_two_normal_calls_per_model(self):
        # The gate means come from one call and the rates from another,
        # whatever the number of gates.
        class CountingRng:
            def __init__(self, seed):
                self.rng, self.calls = np.random.default_rng(seed), 0

            def normal(self, *args, **kwargs):
                self.calls += 1
                return self.rng.normal(*args, **kwargs)

        gens = GeneratorSet(garnet20())
        for pairs in ((), ((0, 1),), ((0, 1), (2, 3), (8, 9))):
            layer = CliffordLayer(20, pairs, (), "L")
            rng = CountingRng(5)
            model = random_model(gens, layer, rng)
            assert rng.calls == 2
            plain = random_model(gens, layer, np.random.default_rng(5))
            assert np.array_equal(model.lambdas, plain.lambdas)

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
                got = random_model(gens, layer, np.random.default_rng(seed), params)
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
        w2 = [i for i, p in enumerate(gens.strings) if len(p.support()) == 2]
        rng = np.random.default_rng(7)
        draws = []
        for _ in range(400):
            model = random_model(gens, layer, rng, params)
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
        model = random_model(gens, layer, np.random.default_rng(0), params)
        for i, p in enumerate(gens.strings):
            sup = p.support()
            if sup in ((1, 2),):
                assert model.lambdas[i] == 0.0
            elif len(sup) == 2:
                assert model.lambdas[i] == pytest.approx(2e-3)


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        # The file `generate-model` writes reads back to the model it drew.
        topo = garnet20()
        config = {
            "topology": "garnet20",
            "layers": [{"label": "B", "cz": [[0, 1], [4, 5]]}],
            "seed": 9,
            "out": str(tmp_path / "out"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["generate-model", "--config", str(path)]) == 0
        text = (tmp_path / "out" / "model_B.json").read_text()
        data = json.loads(text)
        back = SplModel.from_dict(data)
        layer = CliffordLayer(20, ((0, 1), (4, 5)), (), "B")
        model = random_model(GeneratorSet(topo), layer, model_rng(9, 0))
        assert back.layer_label == "B"
        assert back.lambdas.tobytes() == model.lambdas.tobytes()
        assert back.generators.topology.edges == topo.edges
        # Written again, the model gives identical bytes.
        again = {**back.to_dict(), "config_digest": data["config_digest"]}
        assert json.dumps(again, indent=1) == text

    def test_w_max_is_written_and_checked(self):
        # The generator weight is fixed at 2: the file still records it, and
        # a model of another weight is refused rather than misread.
        model = random_model(GeneratorSet(line_topology(2)), CliffordLayer(2, ((0, 1),), (), "C"),
                             rng=np.random.default_rng(0))
        d = model.to_dict()
        assert d["w_max"] == GeneratorSet.w_max == 2
        assert "w_max" not in {f.name for f in dataclasses.fields(GeneratorSet)}
        back = SplModel.from_dict({k: v for k, v in d.items() if k != "w_max"})
        assert np.array_equal(back.lambdas, model.lambdas)
        for w in (1, 3):
            with pytest.raises(ValueError, match="weight-2"):
                SplModel.from_dict(dict(d, w_max=w))
