import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cyclebench.pauli import PauliString, digits, from_digits

I2 = np.eye(2, dtype=complex)
XM = np.array([[0, 1], [1, 0]], dtype=complex)
YM = np.array([[0, -1j], [1j, 0]])
ZM = np.diag([1.0, -1.0]).astype(complex)
MATS = {"I": I2, "X": XM, "Y": YM, "Z": ZM}


def symplectic_inner(a, b):
    """0 if the two Paulis commute, 1 if they anticommute: the per-string
    reference that the overlap rows and Clifford conjugation are checked
    against."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} != {b.n}")
    return ((a.x_bits & b.z_bits).bit_count() + (a.z_bits & b.x_bits).bit_count()) & 1


def pauli_matrix(label):
    m = np.array([[1.0]], dtype=complex)
    for c in label:
        m = np.kron(m, MATS[c])
    return m


def product(a, b):
    """a b up to phase: the XOR of the masks."""
    return PauliString(a.n, a.x_bits ^ b.x_bits, a.z_bits ^ b.z_bits)


def proportional(matrix, label):
    """Whether `matrix` is a unit-modulus multiple of the Pauli of `label`."""
    pauli = pauli_matrix(label)
    c = np.trace(pauli @ matrix) / len(pauli)
    return np.isclose(abs(c), 1) and np.allclose(matrix, c * pauli)


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
        assert len(p.support()) == 3
        assert p.support() == (0, 2, 3)

    def test_identity(self):
        p = PauliString.identity(4)
        assert p.key() == (0, 0) and len(p.support()) == 0

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
        bc = product(b, c)
        assert symplectic_inner(a, bc) == symplectic_inner(a, b) ^ symplectic_inner(a, c)

    @given(random_string(), random_string())
    def test_symmetric(self, a, b):
        assert symplectic_inner(a, b) == symplectic_inner(b, a)


class TestMultiply:
    """Up to phase, the product of two Paulis is the XOR of their masks:
    the two-qubit generators and the Y entry of every digit row rely on it.
    Checked against matrix products."""

    def test_x_times_z_is_unsigned_y(self):
        assert product(PauliString.from_label("X"), PauliString.from_label("Z")).label() == "Y"
        assert proportional(XM @ ZM, "Y")

    def test_involution(self):
        for label in ("XZ", "YY", "IZ"):
            p = PauliString.from_label(label)
            assert len(product(p, p).support()) == 0
            assert proportional(pauli_matrix(label) @ pauli_matrix(label), "II")

    def test_disjoint_supports(self):
        p = product(PauliString.from_label("XI"), PauliString.from_label("IZ"))
        assert p.label() == "XZ"
        assert np.allclose(pauli_matrix("XI") @ pauli_matrix("IZ"), pauli_matrix("XZ"))

    @given(random_string(), random_string())
    def test_unsigned_part_is_xor(self, a, b):
        assert proportional(pauli_matrix(a.label()) @ pauli_matrix(b.label()), product(a, b).label())


def error_probabilities(n, fid):
    """p_alpha = 4^-n sum_beta f_beta (-1)^<alpha, beta> over all 4^n
    strings: the dense reference transform from Pauli fidelities to the
    channel's error probabilities, keyed by `PauliString.key()`."""
    strings = [PauliString(n, x, z) for x in range(1 << n) for z in range(1 << n)]
    f = np.array([fid(p) for p in strings])
    signs = np.array([[(-1) ** symplectic_inner(a, b) for b in strings] for a in strings])
    return {p.key(): float(v) for p, v in zip(strings, signs @ f / 4**n)}


class TestSplChannelOracle:
    """Probabilities from the rate model's fidelities must match composing
    the per-generator channels directly."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_probabilities_match_channel_composition(self, seed):
        from cyclebench.spl import GeneratorSet, SplModel
        from cyclebench.topology import Topology

        n = 3
        topo = Topology(n, ((0, 1), (1, 2)))
        gens = GeneratorSet(topo)
        rng = np.random.default_rng(seed)
        lam = rng.uniform(0, 0.02, len(gens))

        probs = error_probabilities(n, SplModel("L", gens, lam).fidelity)
        # Oracle: compose single-generator channels as index convolutions.
        dist = {PauliString.identity(n).key(): 1.0}
        for g, l in zip(gens.strings, lam):
            w = (1.0 + np.exp(-2.0 * l)) / 2.0
            nxt = {}
            for key, pr in dist.items():
                p = PauliString(n, *key)
                flip = product(p, g)
                nxt[key] = nxt.get(key, 0.0) + w * pr
                nxt[flip.key()] = nxt.get(flip.key(), 0.0) + (1.0 - w) * pr
            dist = nxt
        for key, v in probs.items():
            assert v == pytest.approx(dist.get(key, 0.0), abs=1e-12)
            assert v >= -1e-12
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
