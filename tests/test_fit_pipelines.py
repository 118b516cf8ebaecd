"""Record-driven fitting entry points: conventional, ratio-refined, joint."""

import numpy as np
import pytest

from cyclebench.experiment import FidelityRecord, pack_instances
from cyclebench.fitting import MuRecord, fit_conventional, fit_joint, fit_mlcb
from cyclebench.layers import CliffordLayer
from cyclebench.learnability import orbit_learnables
from cyclebench.pauli import PauliString
from cyclebench.spl import GeneratorSet, random_model
from cyclebench.topology import Topology


@pytest.fixture(scope="module")
def setup():
    topo = Topology(3, ((0, 1), (1, 2)))
    gens = GeneratorSet(topo)
    b = CliffordLayer(3, ((0, 1),), (), "B")
    g = CliffordLayer(3, ((1, 2),), (), "G")
    rng = np.random.default_rng(12)
    models = {"B": random_model(gens, b, rng=rng), "G": random_model(gens, g, rng=rng)}
    return topo, gens, b, g, models


def exact_records(models, gens, layers, symmetric_lows=False):
    high, low = [], []
    for layer in layers:
        lab = layer.label
        for prod in orbit_learnables(layer, gens):
            val = float(np.prod([models[lab].fidelity(p) for p in prod.strings]))
            high.append(FidelityRecord(tuple((lab, p) for p in prod.strings), val, 1e-6, "high"))
        for pair in layer.cz_pairs:
            for q in pair:
                alpha = PauliString.single(layer.n, q, "X")
                if symmetric_lows:
                    from cyclebench.layers import conjugate

                    conj = conjugate(layer, alpha).unsigned()
                    val = float(np.sqrt(models[lab].fidelity(alpha) * models[lab].fidelity(conj)))
                else:
                    val = models[lab].fidelity(alpha)
                low.append(FidelityRecord(((lab, alpha),), val, 1e-5, "low"))
    return high, low


class TestFitConventional:
    def test_exact_recovery(self, setup):
        topo, gens, b, g, models = setup
        high, low = exact_records(models, gens, [b, g])
        fits = fit_conventional(high, low, {"B": gens, "G": gens})
        for lab in ("B", "G"):
            assert np.max(np.abs(fits[lab].lambdas - models[lab].lambdas)) < 1e-8

    def test_symmetry_lows_recover_when_symmetric(self, setup):
        # On a symmetric model the square-root estimate is exact, so the
        # conventional fit recovers the truth too.
        topo, gens, b, g, _ = setup
        lam = np.zeros(len(gens))
        lam[gens.index(PauliString.from_label("ZZI"))] = 2e-3
        from cyclebench.spl import SplModel

        models = {"B": SplModel("B", gens, lam), "G": SplModel("G", gens, lam.copy())}
        high, low = exact_records(models, gens, [b, g], symmetric_lows=True)
        fits = fit_conventional(high, low, {"B": gens, "G": gens})
        for lab in ("B", "G"):
            assert np.max(np.abs(fits[lab].lambdas - models[lab].lambdas)) < 1e-7


class TestFitMlcb:
    def test_exact_ratios_fix_biased_lows(self, setup):
        topo, gens, b, g, models = setup
        high, low = exact_records(models, gens, [b, g])
        # Bias one member of the bulk-qubit cluster; the exact measured
        # ratio then pulls both members back toward consistency (it cannot
        # touch a common-mode error, only the differential one).
        biased = []
        for rec in low:
            (lab, alpha), = rec.targets
            scale = 1.008 if (lab, alpha.support()) == ("B", (0,)) else 1.0
            biased.append(FidelityRecord(rec.targets, rec.estimate * scale, rec.sigma, "low"))
        mu = MuRecord(
            qubit=1, pair=("B", "G"),
            value=models["B"].fidelity(PauliString.from_label("XII"))
            / models["G"].fidelity(PauliString.from_label("IIX")),
        )
        conv = fit_conventional(high, biased, {"B": gens, "G": gens})
        refd = fit_mlcb(high, biased, [mu], {"B": gens, "G": gens}, [b, g])
        err_c = sum(np.abs(conv[lab].lambdas - models[lab].lambdas).sum() for lab in ("B", "G"))
        err_m = sum(np.abs(refd[lab].lambdas - models[lab].lambdas).sum() for lab in ("B", "G"))
        assert err_m < err_c

    def test_missing_ratio_falls_back(self, setup):
        topo, gens, b, g, models = setup
        high, low = exact_records(models, gens, [b, g])
        conv = fit_conventional(high, low, {"B": gens, "G": gens})
        refd = fit_mlcb(high, low, [], {"B": gens, "G": gens}, [b, g])
        for lab in ("B", "G"):
            assert np.allclose(conv[lab].lambdas, refd[lab].lambdas)


class TestFitJoint:
    def test_joint_matches_layerwise_on_consistent_data(self, setup):
        topo, gens, b, g, models = setup
        high, low = exact_records(models, gens, [b, g])
        layerwise = fit_conventional(high, low, {"B": gens, "G": gens})
        joint = fit_joint(high + low, {"B": gens, "G": gens}, ("B", "G"))
        stacked = np.concatenate([layerwise["B"].lambdas, layerwise["G"].lambdas])
        assert np.max(np.abs(joint.lambdas - stacked)) < 1e-8

    def test_joint_accepts_cross_layer_rows(self, setup):
        topo, gens, b, g, models = setup
        high, low = exact_records(models, gens, [b, g])
        o3 = (("B", PauliString.from_label("XIX")), ("G", PauliString.from_label("XZX")))
        val = models["B"].fidelity(o3[0][1]) * models["G"].fidelity(o3[1][1])
        records = high + low + [FidelityRecord(o3, val, 1e-6, "high")]
        joint = fit_joint(records, {"B": gens, "G": gens}, ("B", "G"))
        truth = np.concatenate([models["B"].lambdas, models["G"].lambdas])
        assert np.max(np.abs(joint.lambdas - truth)) < 1e-8


class TestInstancePacking:
    def test_covers_all_orbit_starts(self):
        from cyclebench.layers import orbit

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
