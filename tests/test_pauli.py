import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cyclebench.pauli import (
    FidelityVector,
    PauliString,
    all_pauli_strings,
    digits,
    from_digits,
    inverse_walsh_hadamard,
    multiply,
    symplectic_inner,
    walsh_hadamard,
)

I2 = np.eye(2, dtype=complex)
XM = np.array([[0, 1], [1, 0]], dtype=complex)
YM = np.array([[0, -1j], [1j, 0]])
ZM = np.diag([1.0, -1.0]).astype(complex)
MATS = {"I": I2, "X": XM, "Y": YM, "Z": ZM}


def pauli_matrix(label):
    m = np.array([[1.0]], dtype=complex)
    for c in label:
        m = np.kron(m, MATS[c])
    return m


def random_string(draw_n=3):
    return st.tuples(
        st.integers(0, (1 << draw_n) - 1), st.integers(0, (1 << draw_n) - 1)
    ).map(lambda xz: PauliString(draw_n, xz[0], xz[1]))


class TestPauliString:
    def test_label_roundtrip(self):
        for label in ("III", "XIZ", "YYX", "IZY"):
            assert PauliString.from_label(label).label() == label

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            PauliString.from_label("XQZ")

    def test_weight_and_support(self):
        p = PauliString.from_label("XIYZI")
        assert p.weight() == 3
        assert p.support() == (0, 2, 3)

    def test_identity(self):
        p = PauliString.identity(4)
        assert p.is_identity() and p.sign == 1 and p.weight() == 0

    def test_dense_index_roundtrip(self):
        for p in all_pauli_strings(3):
            assert PauliString.from_dense_index(3, p.dense_index()).key() == p.key()

    def test_mask_guard(self):
        with pytest.raises(ValueError):
            PauliString(2, 0b100, 0)

    @pytest.mark.parametrize("n", [1, 8, 9, 70])
    def test_digits_roundtrip(self, n):
        rng = np.random.default_rng(n)
        strings = [
            PauliString(n, *(int.from_bytes(rng.bytes(9), "little") % (1 << n) for _ in "xz"))
            for _ in range(12)
        ]
        rows = digits(strings, n)
        assert rows.dtype == np.uint8 and rows.shape == (12, n)
        assert rows[0].tolist() == [
            ((strings[0].x_bits >> q) & 1) + 2 * ((strings[0].z_bits >> q) & 1) for q in range(n)
        ]
        assert from_digits(rows, n) == strings


class TestSymplecticInner:
    def test_xi_zi_anticommute(self):
        assert symplectic_inner(
            PauliString.from_label("XI"), PauliString.from_label("ZI")
        ) == 1

    def test_xx_yy_commute(self):
        assert symplectic_inner(
            PauliString.from_label("XX"), PauliString.from_label("YY")
        ) == 0

    def test_iz_zz_commute(self):
        # Brute-force commutator check fixes the expected value.
        a, b = pauli_matrix("IZ"), pauli_matrix("ZZ")
        assert np.allclose(a @ b - b @ a, 0)
        assert symplectic_inner(
            PauliString.from_label("IZ"), PauliString.from_label("ZZ")
        ) == 0

    def test_matches_matrix_commutators(self):
        for la, lb in itertools.product(
            ["".join(t) for t in itertools.product("IXYZ", repeat=2)], repeat=2
        ):
            a, b = pauli_matrix(la), pauli_matrix(lb)
            commute = np.allclose(a @ b, b @ a)
            got = symplectic_inner(
                PauliString.from_label(la), PauliString.from_label(lb)
            )
            assert got == (0 if commute else 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            symplectic_inner(PauliString.identity(2), PauliString.identity(3))

    @given(random_string(), random_string(), random_string())
    def test_bilinear_over_products(self, a, b, c):
        bc = multiply(b, c)
        assert symplectic_inner(a, bc) == symplectic_inner(a, b) ^ symplectic_inner(a, c)

    @given(random_string(), random_string())
    def test_symmetric(self, a, b):
        assert symplectic_inner(a, b) == symplectic_inner(b, a)


class TestMultiply:
    def test_x_times_z_is_unsigned_y(self):
        p = multiply(PauliString.from_label("X"), PauliString.from_label("Z"))
        assert p.label() == "Y"
        assert p.sign == -1  # -i folded to the sign of its imaginary part

    def test_involution(self):
        for label in ("XZ", "YY", "IZ"):
            p = PauliString.from_label(label)
            sq = multiply(p, p)
            assert sq.is_identity() and sq.sign == 1

    def test_disjoint_supports(self):
        p = multiply(PauliString.from_label("XI"), PauliString.from_label("IZ"))
        assert p.label() == "XZ" and p.sign == 1

    @given(random_string(), random_string())
    def test_weight_subadditive(self, a, b):
        assert multiply(a, b).weight() <= a.weight() + b.weight()

    @given(random_string(), random_string())
    def test_unsigned_part_is_xor(self, a, b):
        p = multiply(a, b)
        assert p.x_bits == a.x_bits ^ b.x_bits
        assert p.z_bits == a.z_bits ^ b.z_bits


class TestWalshHadamard:
    def test_noiseless_channel(self):
        f = FidelityVector.from_function(2, lambda p: 1.0)
        probs = walsh_hadamard(f)
        for p, v in probs.items():
            assert v == pytest.approx(1.0 if p.is_identity() else 0.0, abs=1e-14)

    def test_single_x_error_channel(self):
        # rho -> (1-p) rho + p X rho X has f_I = f_X = 1, f_Y = f_Z = 1 - 2p.
        p_err = 0.03

        def fid(p):
            if p.is_identity() or p.label() == "X":
                return 1.0
            return 1.0 - 2.0 * p_err

        probs = walsh_hadamard(FidelityVector.from_function(1, fid))
        assert probs[PauliString.from_label("X")] == pytest.approx(p_err, abs=1e-14)
        assert probs[PauliString.from_label("I")] == pytest.approx(1 - p_err, abs=1e-14)
        assert probs[PauliString.from_label("Y")] == pytest.approx(0.0, abs=1e-14)

    def test_roundtrip(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            vals = 1.0 - 0.05 * rng.random(4**n)
            vals[0] = 1.0
            f = FidelityVector(n, tuple(vals))
            back = inverse_walsh_hadamard(walsh_hadamard(f))
            assert np.max(np.abs(back.as_array() - f.as_array())) < 1e-12

    def test_incomplete_vector_rejected(self):
        with pytest.raises(ValueError):
            FidelityVector(2, (1.0, 0.9))

    def test_qubit_guard(self):
        with pytest.raises(ValueError):
            walsh_hadamard(FidelityVector(13, tuple([1.0] * 4**13)))


class TestSplChannelOracle:
    """Probabilities from the rate model's fidelities must match composing
    the per-generator channels directly."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_probabilities_match_channel_composition(self, seed):
        from cyclebench.spl import GeneratorSet
        from cyclebench.topology import Topology

        n = 3
        topo = Topology(n, ((0, 1), (1, 2)))
        gens = GeneratorSet(topo)
        rng = np.random.default_rng(seed)
        lam = rng.uniform(0, 0.02, len(gens))

        def fid(p):
            total = 0.0
            for g, l in zip(gens.strings, lam):
                total += symplectic_inner(p, g) * l
            return float(np.exp(-2.0 * total))

        probs = walsh_hadamard(FidelityVector.from_function(n, fid))
        # Oracle: compose single-generator channels as index convolutions.
        dist = {PauliString.identity(n).key(): 1.0}
        for g, l in zip(gens.strings, lam):
            w = (1.0 + np.exp(-2.0 * l)) / 2.0
            nxt = {}
            for key, pr in dist.items():
                p = PauliString(n, *key)
                flip = multiply(p, g).unsigned()
                nxt[key] = nxt.get(key, 0.0) + w * pr
                nxt[flip.key()] = nxt.get(flip.key(), 0.0) + (1.0 - w) * pr
            dist = nxt
        for p, v in probs.items():
            assert v == pytest.approx(dist.get(p.key(), 0.0), abs=1e-12)
            assert v >= -1e-12
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
