import numpy as np
import pytest

from cyclebench.experiment import NoisySample, decay_fit


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
