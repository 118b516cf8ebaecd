import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyclebench import fitting
from cyclebench.fitting import distance_metrics, nnls, refine_unlearnable
from cyclebench.layers import CliffordLayer
from cyclebench.pipeline import MAX_INV_GRAM_COND, build_plan
from cyclebench.spl import GeneratorSet, SplModel
from cyclebench.topology import Topology


def inv_gram(A):
    """H = (A^T A)^-1, the inverse Gram every nnls fit takes."""
    A = np.asarray(A, dtype=float)
    return np.linalg.inv(A.T @ A)


class TestNnls:
    def test_exact_recovery_consistent_system(self):
        # The single-CZ fit matrix: learnable orbit products plus the two
        # unlearnable singles, b = -log(f)/2 of the exact fidelities.
        plan = build_plan(Topology(2, ((0, 1),)), [CliffordLayer(2, ((0, 1),), (), "C")])
        S = plan.layers["C"].s.astype(float)
        lam = np.random.default_rng(5).uniform(0, 5e-3, 15)
        fit = nnls(S, S @ lam, inv_gram(S))
        assert np.max(np.abs(fit.lambdas - lam)) < 1e-8

    def test_zero_rhs_gives_zero(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(8, 5))
        fit = nnls(A, np.zeros(8), inv_gram(A))
        assert np.all(fit.lambdas == 0.0)

    def test_two_generator_active_set_enumeration(self):
        # Overestimating one fidelity above 1 makes its rate row demand a
        # negative rate; enumerating active sets of the 2-variable problem
        # fixes the expected projection.
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        b = np.array([-0.05, 0.2, 0.15])  # first row pulls negative
        best, best_x = None, None
        for mask in ((0, 0), (0, 1), (1, 0), (1, 1)):
            x = np.zeros(2)
            cols = [i for i, m in enumerate(mask) if m]
            if cols:
                sol, *_ = np.linalg.lstsq(A[:, cols], b, rcond=None)
                x[cols] = sol
            if np.any(x < 0):
                continue
            r = np.linalg.norm(A @ x - b)
            if best is None or r < best - 1e-15:
                best, best_x = r, x
        fit = nnls(A, b, inv_gram(A))
        assert fit.lambdas == pytest.approx(best_x, abs=1e-12)
        assert fit.lambdas[0] == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scipy_oracle(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(30, 12))
        b = rng.normal(size=30)
        ours = nnls(A, b, inv_gram(A))
        ref, _ = scipy.optimize.nnls(A, b)
        assert np.max(np.abs(ours.lambdas - ref)) < 1e-9

    def test_kkt_reported(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(40, 10))
        b = rng.normal(size=40)
        fit = nnls(A, b, inv_gram(A))
        assert fit.kkt_residual < 1e-10

    @pytest.mark.parametrize("integer", [False, True])
    def test_wide_system_rejected(self, integer):
        # Fewer rows than columns cannot have full column rank, the contract
        # every solve of the passive-set loop relies on.  Dense matrices and
        # int8 ones like the plan's fit matrices are refused alike.
        rng = np.random.default_rng(2)
        A = rng.integers(0, 3, size=(12, 26)).astype(np.int8) if integer else rng.normal(size=(12, 26))
        with pytest.raises(ValueError, match="at least as many rows as columns, got 12 x 26"):
            nnls(A, A @ np.ones(26), np.eye(26))

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        extra=st.integers(0, 40),
        kind=st.sampled_from(["dense", "integer"]),
    )
    def test_matches_scipy_on_tall_systems(self, seed, n, extra, kind):
        # Random m x n systems with m >= n, solved through H = (A^T A)^-1:
        # dense ones, which have full column rank as every fit matrix of a
        # plan does, and int8 ones with 0-2 entries like the plan's fit
        # matrices.  Within the plan's bound on ||G||_inf ||G^-1||_inf, or
        # for cond(A) < 1e3, the fit is scipy's.  Above both (near-singular
        # square systems) nnls promises nonnegative rates within its
        # iteration guard only; the plan's fits check the KKT residual.
        rng = np.random.default_rng(seed)
        m = n + extra
        if kind == "integer":
            A = rng.integers(0, 3, size=(m, n)).astype(np.int8)
            b = A @ rng.uniform(-1e-3, 5e-3, n) + rng.normal(0.0, 1e-3, m)
        else:
            A = rng.normal(size=(m, n))
            b = rng.normal(size=m)
        A_f = A.astype(float)
        # Solves through H lose gradient accuracy like cond(A)^4 eps; the
        # plan's fit matrices have cond(A) < 300.
        well_conditioned = np.linalg.cond(A_f) < 1e3
        assume(kind == "dense" or well_conditioned)
        gram = A_f.T @ A_f
        H = np.linalg.inv(gram)
        fit = nnls(A, b, H)
        assert fit.iterations <= 10 * n + 100  # nnls's iteration guard
        assert np.all(fit.lambdas >= 0)
        bound = np.abs(gram).sum(axis=1).max() * np.abs(H).sum(axis=1).max()
        if bound > MAX_INV_GRAM_COND and not well_conditioned:
            return
        assert fit.kkt_residual <= 1e-10
        ref, ref_norm = scipy.optimize.nnls(A_f, b)
        assert fit.residual_norm**2 == pytest.approx(ref_norm**2, rel=1e-9, abs=1e-12)
        assert np.max(np.abs(fit.lambdas - ref)) < 1e-7

    @pytest.mark.parametrize("integer", [False, True])
    def test_backup_rule_matches_scipy(self, monkeypatch, integer):
        # With no full exchange allowed that leaves the infeasible count
        # where it was, every such step exchanges the largest infeasible
        # index alone.  Columns sharing one random component make such
        # steps common; the fits still end at scipy's minimizer.  The
        # systems are dense, or int8 with 0-2 entries plus the shared
        # component, like the plan's fit matrices.
        systems = []
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 40))
            if integer:
                A = rng.integers(0, 3, size=(2 * n, n)) + 2 * rng.integers(0, 3, size=(2 * n, 1))
                A = A.astype(np.int8)
            else:
                A = rng.normal(size=(2 * n, n)) + 2.0 * rng.normal(size=(2 * n, 1))
            b = rng.normal(size=2 * n)
            H = inv_gram(A)
            systems.append((A, b, H, nnls(A, b, H).iterations))
        monkeypatch.setattr(fitting, "FULL_EXCHANGES", 0)
        changed = 0
        for A, b, H, full_iterations in systems:
            fit = nnls(A, b, H)
            assert fit.kkt_residual <= 1e-10
            assert np.all(fit.lambdas >= 0)
            ref, _ = scipy.optimize.nnls(A.astype(float), b)
            assert np.max(np.abs(fit.lambdas - ref)) < 1e-9
            changed += fit.iterations != full_iterations
        # The backup rule took a different path in some of the fits.
        assert changed >= 3


class TestRefineUnlearnable:
    def test_single_estimate_unchanged(self):
        assert refine_unlearnable([0.97], []) == [0.97]

    def test_exact_inputs_exact_output(self):
        truth = [0.95, 0.97, 0.93, 0.96]
        ratios = [truth[i] / truth[i + 1] for i in range(3)]
        refined = refine_unlearnable(list(truth), ratios)
        assert refined == pytest.approx(truth, rel=1e-12)

    def test_symmetric_perturbations_average(self):
        # l = 2 with exact ratio 1: u = (f+delta + f-delta)/2 = f.
        f, delta = 0.95, 0.004
        refined = refine_unlearnable([f + delta, f - delta], [1.0])
        assert refined[0] == pytest.approx(f, rel=1e-12)
        assert refined[1] == pytest.approx(f, rel=1e-12)

    def test_error_shrinks_like_sqrt_l(self):
        rng = np.random.default_rng(0)
        f = 0.95
        for l in (2, 4):
            errs = []
            for _ in range(4000):
                noisy = f + rng.normal(0, 1e-3, l)
                refined = refine_unlearnable(list(noisy), [1.0] * (l - 1))
                errs.append(refined[0] - f)
            assert np.std(errs) == pytest.approx(1e-3 / np.sqrt(l), rel=0.1)

    def test_extreme_ratios_stay_finite(self):
        # The factors 1, 1e300, 1e600 overflow as floats; scaled by a power
        # of two they give the least-squares values, and no warning.
        refined = refine_unlearnable([0.9, 0.8, 0.7], [1e-300, 1e-300])
        assert all(np.isfinite(refined))
        assert refined[2] == pytest.approx(0.7, rel=1e-12)
        assert refined[1] == pytest.approx(0.7e-300, rel=1e-12)
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                refine_unlearnable([0.9, 0.9], [bad])

    def test_ratio_count_checked(self):
        with pytest.raises(ValueError):
            refine_unlearnable([0.9, 0.9], [1.0, 1.0])


class TestDistanceMetrics:
    def test_zero_for_exact_fit(self):
        topo = Topology(2, ((0, 1),))
        gens = GeneratorSet(topo)
        model = SplModel("C", gens, np.full(15, 1e-3))
        assert distance_metrics({"C": model}, {"C": model.lambdas.copy()}) == 0.0

    def test_single_offset(self):
        topo = Topology(2, ((0, 1),))
        gens = GeneratorSet(topo)
        model = SplModel("C", gens, np.full(15, 1e-3))
        lam = model.lambdas.copy()
        lam[3] += 2.5e-4
        assert distance_metrics({"C": model}, {"C": lam}) == pytest.approx(2.5e-4)

    def test_shape_mismatch(self):
        topo = Topology(2, ((0, 1),))
        gens = GeneratorSet(topo)
        model = SplModel("C", gens, np.full(15, 1e-3))
        with pytest.raises(ValueError):
            distance_metrics({"C": model}, {"C": np.zeros(3)})
