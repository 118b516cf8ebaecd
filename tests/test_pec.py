import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclebench.layers import CliffordLayer, all_single_qubit_cliffords, conjugate
from cyclebench.pauli import PauliString
from cyclebench.pec import (
    MAX_CIRCUITS,
    CircuitBatch,
    pec_observable,
    pec_sweep,
    sample_circuit,
    summarize_pec,
)
from cyclebench.pipeline import build_plan
from cyclebench.spl import GeneratorSet, random_model
from cyclebench.topology import Topology, four_layer_config, square_lattice

GROUP = all_single_qubit_cliffords()
IDENTITY = next(i for i, g in enumerate(GROUP) if g.name == "I")


@pytest.fixture(scope="module")
def small_plan():
    topo = square_lattice(3, 2)
    return build_plan(topo, four_layer_config(topo, "open_chains"), seed=0, retries=4)


def toy_models(seed=0):
    topo = Topology(2, ((0, 1),))
    b = CliffordLayer(2, ((0, 1),), (), "B")
    rng = np.random.default_rng(seed)
    return topo, b, {"B": random_model(GeneratorSet(topo), b, rng=rng)}


def digits(p: PauliString) -> np.ndarray:
    return np.array(
        [((p.x_bits >> q) & 1) + 2 * ((p.z_bits >> q) & 1) for q in range(p.n)],
        dtype=np.uint8,
    )


def pauli(row) -> PauliString:
    x = sum(int(d & 1) << q for q, d in enumerate(row))
    z = sum(int(d >> 1) << q for q, d in enumerate(row))
    return PauliString(len(row), x, z)


def entering(batch: CircuitBatch) -> list[np.ndarray]:
    """The (C, n) strings entering steps 0, ..., J-1."""
    by_step = dict(batch.strings())
    return [by_step[j] for j in range(len(by_step))]


def step_layer(batch: CircuitBatch, c: int, j: int) -> CliffordLayer:
    base = batch.layers[batch.base[c, j]]
    n = batch.final.shape[1]
    return CliffordLayer(n, base.cz_pairs, tuple((q, GROUP[batch.gates[c, j, q]]) for q in range(n)))


def bare_circuits(layer: CliffordLayer, finals: list[PauliString], steps: int) -> CircuitBatch:
    """`steps` repetitions of `layer` with identity single-qubit gates, one
    circuit per final string."""
    c, n = len(finals), layer.n
    return CircuitBatch(
        (layer,),
        np.zeros((c, steps), dtype=np.intp),
        np.full((c, steps, n), IDENTITY, dtype=np.uint8),
        np.array([digits(p) for p in finals]),
    )


def scalar_sample(base_layers, j_layers, target_weight, rng):
    """Reference: the per-draw sampler, one scalar draw per base layer,
    single-qubit gate and final letter."""
    labels = sorted(base_layers)
    n = base_layers[labels[0]].n
    base, gates = [], []
    for _ in range(j_layers):
        base.append(rng.integers(len(labels)))
        gates.append([rng.integers(len(GROUP)) for _ in range(n)])
    final = np.zeros(n, dtype=np.uint8)
    for q in rng.permutation(n)[:target_weight]:
        letter = rng.integers(3)
        final[q] = (letter != 2) + 2 * (letter != 0)
    return np.array(base), np.array(gates), final


class TestPecObservable:
    def test_perfect_characterization_gives_one(self):
        topo, b, models = toy_models()
        gens = models["B"].generators
        batch = bare_circuits(b, [PauliString.from_label(l) for l in ("XI", "ZY", "YY")], 3)
        perfect = {"B": models["B"].lambdas}
        o = pec_observable(models, (perfect, perfect), batch, gens)
        assert o.shape == (2, 3)
        assert o == pytest.approx(np.ones((2, 3)), rel=1e-12)

    def test_single_step_ratio(self):
        topo, b, models = toy_models()
        gens = models["B"].generators
        fits = [{"B": models["B"].lambdas * scale} for scale in (1.3, 0.7)]
        beta = PauliString.from_label("IX")
        batch = bare_circuits(b, [conjugate(b, beta)], 1)
        assert pauli(entering(batch)[0][0]) == beta
        f_true = models["B"].fidelity(beta)
        o = pec_observable(models, fits, batch, gens)
        for (o_fit,), fitted in zip(o, fits):
            f_fit = float(np.exp(-2 * gens.overlaps(beta) @ fitted["B"]))
            assert o_fit == pytest.approx(f_true / f_fit, rel=1e-12)

    def test_positive_and_spam_free(self):
        topo, b, models = toy_models(3)
        gens = models["B"].generators
        rng = np.random.default_rng(0)
        fitted = {"B": np.clip(models["B"].lambdas + rng.normal(0, 5e-4, len(gens)), 0, None)}
        batch = sample_circuit({"B": b}, 6, 2, [np.random.default_rng(s) for s in range(8)])
        o = pec_observable(models, (fitted,), batch, gens)
        assert np.all(o > 0)

    def test_log_additive_over_segments(self):
        topo, b, models = toy_models(4)
        gens = models["B"].generators
        fitted = {"B": models["B"].lambdas * 0.9}
        full = sample_circuit({"B": b}, 4, 1, [np.random.default_rng(s) for s in range(6)])
        o_full = pec_observable(models, (fitted,), full, gens)
        first = CircuitBatch(full.layers, full.base[:, :2], full.gates[:, :2], entering(full)[2])
        second = CircuitBatch(full.layers, full.base[:, 2:], full.gates[:, 2:], full.final)
        o_first = pec_observable(models, (fitted,), first, gens)
        o_second = pec_observable(models, (fitted,), second, gens)
        assert o_full == pytest.approx(o_first * o_second, rel=1e-12)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
    def test_vanished_fitted_fidelity_raises(self):
        topo, b, models = toy_models()
        gens = models["B"].generators
        fitted = {"B": np.full(len(gens), np.inf)}
        batch = bare_circuits(b, [PauliString.from_label("XI")], 2)
        with pytest.raises(ZeroDivisionError, match="layer B"):
            pec_observable(models, ({"B": models["B"].lambdas}, fitted), batch, gens)


class TestSampleCircuit:
    def setup_method(self):
        topo = square_lattice(4, 5)
        self.layers = {l.label: l for l in four_layer_config(topo, "closed_squares")}
        self.n = topo.n

    @pytest.mark.parametrize("w", [2, 20])
    def test_final_weight_constraint(self, w):
        batch = sample_circuit(self.layers, 40, w, [np.random.default_rng(11 + c) for c in range(4)])
        beta0 = entering(batch)[0]
        for c in range(4):
            assert np.count_nonzero(batch.final[c]) == w
            p = pauli(beta0[c])
            for j in range(40):
                p = conjugate(step_layer(batch, c, j), p)
            assert p.unsigned() == pauli(batch.final[c])

    def test_deterministic_under_seed(self):
        a = sample_circuit(self.layers, 10, 5, [np.random.default_rng(3)])
        b = sample_circuit(self.layers, 10, 5, [np.random.default_rng(3)])
        for field in ("base", "gates", "final"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert np.array_equal(entering(a)[0], entering(b)[0])

    def test_full_weight_on_one_qubit_toy(self):
        layer = CliffordLayer(1, (), (), "B")
        batch = sample_circuit({"B": layer}, 5, 1, [np.random.default_rng(0)])
        assert np.count_nonzero(batch.final) == 1
        assert np.count_nonzero(entering(batch)[0]) == 1

    def test_weight_out_of_range(self):
        for w in (21, -1):
            with pytest.raises(ValueError):
                sample_circuit(self.layers, 5, w, [np.random.default_rng(0)])
        with pytest.raises(ValueError):
            sample_circuit(self.layers, 0, 2, [np.random.default_rng(0)])

    def test_matches_scalar_draws(self):
        toy = {"B": CliffordLayer(3, ((0, 1),), (), "B")}
        for layers, j_layers, weights in ((self.layers, 40, (0, 2, 20)), (toy, 7, (0, 1, 3))):
            n = layers[next(iter(layers))].n
            for w in weights:
                seeds = range(60)
                batch = sample_circuit(layers, j_layers, w, [np.random.default_rng(s) for s in seeds])
                for c, s in enumerate(seeds):
                    base, gates, final = scalar_sample(layers, j_layers, w, np.random.default_rng(s))
                    assert np.array_equal(batch.base[c], base)
                    assert np.array_equal(batch.gates[c], gates.reshape(j_layers, n))
                    assert np.array_equal(batch.final[c], final)


@st.composite
def random_base_layers(draw):
    """1-3 random CZ layers (non-overlapping pairs) on 1-8 qubits."""
    n = draw(st.integers(1, 8))
    layers = {}
    for i in range(draw(st.integers(1, 3))):
        order = draw(st.permutations(range(n)))
        pairs = tuple(
            (order[k], order[k + 1])
            for k in range(0, n - 1, 2)
            if draw(st.booleans())
        )
        layers[f"L{i}"] = CliffordLayer(n, pairs, (), f"L{i}")
    return n, layers


@settings(max_examples=150, deadline=None)
@given(
    spec=random_base_layers(),
    j_layers=st.integers(1, 12),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_propagation_matches_conjugate(spec, j_layers, data, seed):
    n, layers = spec
    w = data.draw(st.integers(0, n))
    batch = sample_circuit(layers, j_layers, w, [np.random.default_rng([seed, c]) for c in range(3)])
    steps = entering(batch)
    for c in range(3):
        assert np.count_nonzero(batch.final[c]) == w
        p = pauli(steps[0][c])
        for j in range(j_layers):
            assert np.array_equal(digits(p), steps[j][c])
            p = conjugate(step_layer(batch, c, j), p).unsigned()
        assert np.array_equal(digits(p), batch.final[c])


class TestPecSweep:
    def test_noiseless_characterization_zero_std(self, small_plan):
        rows = pec_sweep(
            small_plan, n_models=2, n_circuits=3, j_layers=8, weights=(2,),
            sigma=0.0, sigma_prime=0.0, baseline="unit_depth", master_seed=5,
        )
        summary = summarize_pec(rows)
        st = summary["by_weight"][2]
        assert st["std_O_c"] == pytest.approx(0.0, abs=1e-9)
        assert st["std_O_m"] == pytest.approx(0.0, abs=1e-9)
        assert st["mean_O_c"] == pytest.approx(1.0, abs=1e-9)

    def test_rows_and_summary_shape(self, small_plan):
        rows = pec_sweep(
            small_plan, n_models=2, n_circuits=2, j_layers=6, weights=(2, 4),
            sigma=1e-4, sigma_prime=1e-2, baseline="unit_depth", master_seed=9,
        )
        assert len(rows) == 2 * 2 * 2
        summary = summarize_pec(rows)
        assert set(summary["by_weight"]) == {2, 4}
        for st in summary["by_weight"].values():
            assert st["count"] == 4

    @pytest.mark.parametrize(
        "circuits, weights", [(MAX_CIRCUITS + 1, (2,)), (2, (100,))], ids=["circuits", "weight"]
    )
    def test_colliding_seed_keys_rejected(self, small_plan, circuits, weights):
        with pytest.raises(ValueError, match="collide"):
            pec_sweep(
                small_plan, n_models=1, n_circuits=circuits, j_layers=2, weights=weights,
                sigma=1e-4, sigma_prime=1e-2, baseline="unit_depth", master_seed=0,
            )
