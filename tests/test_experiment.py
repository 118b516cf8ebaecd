import numpy as np
import pytest

from cyclebench.experiment import (
    CbInstance,
    FidelityRecord,
    NoisySample,
    decay_fit,
    exact_expectation,
    pack_instances,
    simulate,
    symmetry_estimate,
    unit_depth_estimate,
)
from cyclebench.layers import CliffordLayer, orbit, s_dressing
from cyclebench.pauli import PauliString
from cyclebench.spl import GeneratorSet, SplModel, random_model
from cyclebench.topology import Topology


def make_models(seed=0):
    topo = Topology(3, ((0, 1), (1, 2)))
    b = CliffordLayer(3, ((0, 1),), (), "B")
    g = CliffordLayer(3, ((1, 2),), (), "G")
    rng = np.random.default_rng(seed)
    return topo, b, g, {
        "B": random_model(GeneratorSet(topo), b, rng=rng),
        "G": random_model(GeneratorSet(topo), g, rng=rng),
    }


def zz_instance(depths=(1, 2, 4)):
    topo = Topology(2, ((0, 1),))
    cz = CliffordLayer(2, ((0, 1),), (), "C")
    model = SplModel("C", GeneratorSet(topo), np.full(15, 4e-3))
    inst = CbInstance(
        block=((cz, None),),
        prep=PauliString.from_label("ZZ"),
        meas=PauliString.from_label("ZZ"),
        depths=tuple(depths),
    )
    return model, inst


class TestExactExpectation:
    def test_noiseless_model_returns_spam(self):
        topo = Topology(2, ((0, 1),))
        cz = CliffordLayer(2, ((0, 1),), (), "C")
        model = SplModel("C", GeneratorSet(topo), np.zeros(15))
        inst = CbInstance(((cz, None),), PauliString.from_label("ZZ"),
                          PauliString.from_label("ZZ"), (1, 2, 4))
        assert exact_expectation({"C": model}, inst, 4, spam=0.87) == pytest.approx(0.87)

    def test_zz_power_law(self):
        model, inst = zz_instance()
        f = model.fidelity(PauliString.from_label("ZZ"))
        for d in inst.depths:
            got = exact_expectation({"C": model}, inst, d, spam=0.9)
            assert got == pytest.approx(0.9 * f**d, rel=1e-12)

    def test_mlcb_block_product(self):
        topo, b, g, models = make_models()
        inst = CbInstance(
            block=((b, None), (g, None)),
            prep=PauliString.from_label("XIX"),
            meas=PauliString.from_label("XIX"),
            depths=(1, 2, 3),
        )
        o3 = models["B"].fidelity(PauliString.from_label("XIX")) * models["G"].fidelity(
            PauliString.from_label("XZX")
        )
        for d in inst.depths:
            got = exact_expectation(models, inst, d, spam=1.0)
            assert got == pytest.approx(o3**d, rel=1e-12)

    def test_orbit_period_contract(self):
        # Repeating the block a multiple of the orbit period multiplies the
        # spam prefactor by the orbit product to that power.
        model, inst = zz_instance(depths=(3,))
        f = model.fidelity(PauliString.from_label("ZZ"))
        assert exact_expectation({"C": model}, inst, 3, 0.8) == pytest.approx(0.8 * f**3)

    def test_inconsistent_meas_rejected(self):
        topo = Topology(2, ((0, 1),))
        cz = CliffordLayer(2, ((0, 1),), (), "C")
        model = SplModel("C", GeneratorSet(topo), np.zeros(15))
        inst = CbInstance(((cz, None),), PauliString.from_label("IX"),
                          PauliString.from_label("IX"), (1,))
        with pytest.raises(ValueError):
            exact_expectation({"C": model}, inst, 1)

    def test_dressed_instance(self):
        topo = Topology(2, ((0, 1),))
        cz = CliffordLayer(2, ((0, 1),), (), "C")
        rng = np.random.default_rng(2)
        model = random_model(GeneratorSet(topo), cz, rng=rng)
        inst = CbInstance(((cz, s_dressing(cz)),), PauliString.from_label("XX"),
                          PauliString.from_label("XX"), (1, 2))
        f = model.fidelity(PauliString.from_label("XX"))
        assert exact_expectation({"C": model}, inst, 2) == pytest.approx(f**2, rel=1e-12)


class TestSimulate:
    def test_zero_sigma_exact(self):
        model, inst = zz_instance()
        samples = simulate({"C": model}, inst, sigma=0.0, seed=1)
        for s in samples:
            assert s.value == pytest.approx(
                exact_expectation({"C": model}, inst, s.depth), rel=1e-12
            )

    def test_seed_reproducible(self):
        model, inst = zz_instance()
        a = simulate({"C": model}, inst, sigma=1e-3, seed=7)
        b = simulate({"C": model}, inst, sigma=1e-3, seed=7)
        assert [s.value for s in a] == [s.value for s in b]

    def test_noise_scale(self):
        model, inst = zz_instance(depths=(2,))
        rng = np.random.default_rng(0)
        draws = []
        exact = exact_expectation({"C": model}, inst, 2)
        for _ in range(3000):
            s = simulate({"C": model}, inst, sigma=1e-4, rng=rng)
            draws.append(s[0].value - exact)
        assert np.std(draws) == pytest.approx(1e-4, rel=0.1)


class TestDecayFit:
    def test_noiseless_exact(self):
        a_true, f_true = 0.9, 0.99
        samples = [NoisySample(d, a_true * f_true**d, 1e-9) for d in (4, 8, 16, 32)]
        a, f, err = decay_fit(samples)
        assert abs(f - f_true) < 1e-12
        assert abs(a - a_true) < 1e-12

    def test_unit_fidelity(self):
        samples = [NoisySample(d, 1.0, 1e-9) for d in (1, 2, 4)]
        _, f, _ = decay_fit(samples)
        assert f == pytest.approx(1.0, abs=1e-12)

    def test_spam_robustness(self):
        for spam in (0.5, 0.9, 1.0):
            samples = [NoisySample(d, spam * 0.97**d, 1e-9) for d in (2, 4, 8, 16)]
            _, f, _ = decay_fit(samples)
            assert abs(f - 0.97) < 1e-12

    def test_noisy_calibration(self):
        # sigma = 1e-4 on A = 0.9, f = 0.99 at depths 4..32: the fit lands
        # within 5e-4 of the truth in at least 99% of seeds.
        hits = 0
        trials = 400
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            samples = [
                NoisySample(d, 0.9 * 0.99**d + rng.normal(0, 1e-4), 1e-4)
                for d in (4, 8, 16, 32)
            ]
            _, f, _ = decay_fit(samples)
            if abs(f - 0.99) < 5e-4:
                hits += 1
        assert hits >= 0.99 * trials

    def test_degenerate_depths_rejected(self):
        with pytest.raises(ValueError):
            decay_fit([NoisySample(2, 0.9, 1e-4), NoisySample(2, 0.89, 1e-4)])

    def test_nonpositive_sample_fallback(self):
        rng = np.random.default_rng(3)
        samples = [
            NoisySample(d, 0.4 * 0.6**d + rng.normal(0, 1e-3), 1e-3)
            for d in (1, 2, 4, 8, 16)
        ]
        # Deep samples go slightly negative; the nonlinear path still fits.
        samples.append(NoisySample(32, -1e-4, 1e-3))
        _, f, _ = decay_fit(samples)
        assert abs(f - 0.6) < 0.05

    def test_stderr_scales_with_sigma(self):
        fits = []
        for sigma in (1e-5, 1e-3):
            rng = np.random.default_rng(0)
            samples = [
                NoisySample(d, 0.9 * 0.99**d + rng.normal(0, sigma), sigma)
                for d in (4, 8, 16, 32)
            ]
            fits.append(decay_fit(samples)[2])
        assert fits[1] > 10 * fits[0]


class TestLowAccuracyEstimators:
    def test_symmetry_square_root(self):
        rec = FidelityRecord(
            targets=(("C", PauliString.from_label("XI")), ("C", PauliString.from_label("XZ"))),
            estimate=0.9801, sigma=1e-4, accuracy="high",
        )
        est = symmetry_estimate(rec)
        assert est.estimate == pytest.approx(0.99)
        assert est.accuracy == "low"
        assert est.targets == (("C", PauliString.from_label("XI")),)

    def test_symmetry_exact_on_symmetric_model(self):
        topo = Topology(2, ((0, 1),))
        gens = GeneratorSet(topo)
        # Rates chosen so f_XI = f_XZ exactly: ZZ anticommutes with both
        # strings, so it contributes identically.
        lam = np.zeros(15)
        lam[gens.index(PauliString.from_label("ZZ"))] = 3e-3
        model = SplModel("C", gens, lam)
        fxi = model.fidelity(PauliString.from_label("XI"))
        fxz = model.fidelity(PauliString.from_label("XZ"))
        assert fxi == pytest.approx(fxz)
        rec = FidelityRecord(
            targets=(("C", PauliString.from_label("XI")), ("C", PauliString.from_label("XZ"))),
            estimate=fxi * fxz, sigma=1e-6, accuracy="high",
        )
        assert symmetry_estimate(rec).estimate == pytest.approx(fxi, rel=1e-12)

    def test_symmetry_bias_on_asymmetric_model(self):
        rec = FidelityRecord(
            targets=(("C", PauliString.from_label("XI")), ("C", PauliString.from_label("XZ"))),
            estimate=0.98 * 0.995, sigma=1e-6, accuracy="high",
        )
        est = symmetry_estimate(rec)
        assert est.estimate == pytest.approx(np.sqrt(0.98 * 0.995))
        assert abs(est.estimate - 0.98) == pytest.approx(0.0075, abs=3e-4)

    def test_symmetry_clamps_above_one(self):
        rec = FidelityRecord(
            targets=(("C", PauliString.from_label("XI")), ("C", PauliString.from_label("XZ"))),
            estimate=1.0 + 1e-5, sigma=1e-4, accuracy="high",
        )
        with pytest.warns(UserWarning):
            est = symmetry_estimate(rec)
        assert est.estimate == 1.0

    def test_unit_depth_exact_at_zero_noise(self):
        topo, b, g, models = make_models()
        alpha = PauliString.from_label("XII")
        rec = unit_depth_estimate(models, "B", alpha, 0.0, np.random.default_rng(0))
        assert rec.estimate == pytest.approx(models["B"].fidelity(alpha))
        assert rec.accuracy == "low"

    def test_unit_depth_dispersion(self):
        topo, b, g, models = make_models()
        alpha = PauliString.from_label("XII")
        rng = np.random.default_rng(1)
        draws = [
            unit_depth_estimate(models, "B", alpha, 1e-3, rng).estimate
            for _ in range(3000)
        ]
        assert np.std(draws) == pytest.approx(1e-3, rel=0.1)

    def test_unit_depth_clamped_into_unit_interval(self):
        topo, b, g, models = make_models()
        alpha = PauliString.from_label("XII")
        rng = np.random.default_rng(2)
        for _ in range(200):
            est = unit_depth_estimate(models, "B", alpha, 0.5, rng).estimate
            assert 0.0 < est <= 1.0


class TestInstancePacking:
    def test_covers_all_orbit_starts(self):
        topo = Topology(4, ((0, 1), (1, 2), (2, 3)))
        layer = CliffordLayer(4, ((0, 1), (2, 3)), (), "L")
        gens = GeneratorSet(topo)
        instances = pack_instances(layer, gens)
        covered = {p.key() for inst in instances for p in inst["covers"]}
        starts = {orbit(layer, a)[0].key() for a in gens.strings}
        assert starts <= covered
        for inst in instances:
            basis = inst["basis"]
            for p in inst["covers"]:
                for q in p.support():
                    assert basis[q] == p.label()[q]

    def test_instance_count_small_on_line(self):
        topo = Topology(6, tuple((i, i + 1) for i in range(5)))
        layer = CliffordLayer(6, ((0, 1), (2, 3), (4, 5)), (), "L")
        gens = GeneratorSet(topo)
        assert len(pack_instances(layer, gens)) <= 12
