import numpy as np
import pytest

from cyclebench.layers import CliffordLayer, conjugate
from cyclebench.pauli import PauliString
from cyclebench.pec import (
    CliffordCircuit,
    pec_observable,
    pec_sweep,
    sample_circuit,
    summarize_pec,
)
from cyclebench.pipeline import build_plan, generate_models, model_rng
from cyclebench.spl import GeneratorSet, random_model
from cyclebench.topology import Topology, four_layer_config, square_lattice


@pytest.fixture(scope="module")
def small_plan():
    topo = square_lattice(3, 2)
    return build_plan(topo, four_layer_config(topo, "open_chains"), seed=0, retries=4)


def toy_models(seed=0):
    topo = Topology(2, ((0, 1),))
    b = CliffordLayer(2, ((0, 1),), (), "B")
    rng = np.random.default_rng(seed)
    return topo, b, {"B": random_model(GeneratorSet(topo), b, rng=rng)}


class TestPecObservable:
    def test_perfect_characterization_gives_one(self):
        topo, b, models = toy_models()
        gens = models["B"].generators
        circuit = CliffordCircuit((b, b, b), ("B", "B", "B"))
        for label in ("XI", "ZY", "YY"):
            o = pec_observable(
                models, {"B": models["B"].lambdas}, circuit, PauliString.from_label(label), gens
            )
            assert o == pytest.approx(1.0, rel=1e-12)

    def test_single_step_ratio(self):
        topo, b, models = toy_models()
        gens = models["B"].generators
        fitted = {"B": models["B"].lambdas * 1.3}
        circuit = CliffordCircuit((b,), ("B",))
        beta = PauliString.from_label("IX")
        f_true = models["B"].fidelity(beta)
        lam = fitted["B"]
        f_fit = float(np.exp(-2 * gens.overlaps(beta) @ lam))
        o = pec_observable(models, fitted, circuit, beta, gens)
        assert o == pytest.approx(f_true / f_fit, rel=1e-12)

    def test_positive_and_spam_free(self):
        topo, b, models = toy_models(3)
        gens = models["B"].generators
        rng = np.random.default_rng(0)
        fitted = {"B": np.clip(models["B"].lambdas + rng.normal(0, 5e-4, len(gens)), 0, None)}
        circuit = CliffordCircuit((b,) * 6, ("B",) * 6)
        o = pec_observable(models, fitted, circuit, PauliString.from_label("XY"), gens)
        assert o > 0

    def test_log_additive_over_segments(self):
        topo, b, models = toy_models(4)
        gens = models["B"].generators
        fitted = {"B": models["B"].lambdas * 0.9}
        beta = PauliString.from_label("YI")
        full = CliffordCircuit((b,) * 4, ("B",) * 4)
        o_full = pec_observable(models, fitted, full, beta, gens)
        first = CliffordCircuit((b,) * 2, ("B",) * 2)
        o_first = pec_observable(models, fitted, first, beta, gens)
        beta_mid = conjugate(b, conjugate(b, beta)).unsigned()
        o_second = pec_observable(models, fitted, first, beta_mid, gens)
        assert o_full == pytest.approx(o_first * o_second, rel=1e-12)


class TestSampleCircuit:
    def setup_method(self):
        topo = square_lattice(4, 5)
        self.layers = {l.label: l for l in four_layer_config(topo, "closed_squares")}
        self.n = topo.n

    @pytest.mark.parametrize("w", [2, 20])
    def test_final_weight_constraint(self, w):
        circuit, beta0, beta_final = sample_circuit(self.layers, 40, w, seed=11)
        assert beta_final.weight() == w
        p = beta0
        for layer in circuit.layers:
            p = conjugate(layer, p)
        assert p.unsigned().key() == beta_final.key()

    def test_deterministic_under_seed(self):
        a = sample_circuit(self.layers, 10, 5, seed=3)
        b = sample_circuit(self.layers, 10, 5, seed=3)
        assert a[1] == b[1]
        assert a[0].base_labels == b[0].base_labels

    def test_full_weight_on_one_qubit_toy(self):
        topo = Topology(1, ())
        layer = CliffordLayer(1, (), (), "B")
        circuit, beta0, beta_final = sample_circuit({"B": layer}, 5, 1, seed=0)
        assert beta_final.weight() == 1
        assert not beta0.is_identity()

    def test_weight_out_of_range(self):
        with pytest.raises(ValueError):
            sample_circuit(self.layers, 5, 21, seed=0)


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
