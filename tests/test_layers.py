import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclebench.layers import (
    CATALOG,
    SQ_DIGITS,
    SQ_INVERSE_DIGITS,
    CliffordLayer,
    all_single_qubit_cliffords,
    chain_decomposition,
    conjugate,
    conjugate_inverse,
    cz_partners,
    digit_orbits,
    s_dressing,
    sq_layer,
)
from cyclebench.pauli import PauliString, digits, from_digits, symplectic_inner

from test_pauli import pauli_matrix

# Conjugation of the fifteen non-trivial two-qubit Paulis under a single CZ
# and under CZ followed by S on both qubits.
PAULIS2 = "IX IY IZ XI XX XY XZ YI YX YY YZ ZI ZX ZY ZZ".split()
CZ_IMAGES = "ZX ZY IZ XZ YY YX XI YZ XY XX YI ZI IX IY ZZ".split()
CZ_S_IMAGES = "ZY ZX IZ YZ XX XY YI XZ YX YY XI ZI IY IX ZZ".split()

CZ = CliffordLayer(2, ((0, 1),), (), "C")
CZ_S = CliffordLayer(2, ((0, 1),), tuple((q, CATALOG["S"]) for q in (0, 1)), "C+S")


class TestConjugationFixtures:
    @pytest.mark.parametrize("label,image", list(zip(PAULIS2, CZ_IMAGES)))
    def test_cz_row(self, label, image):
        assert conjugate(CZ, PauliString.from_label(label)).label() == image

    @pytest.mark.parametrize("label,image", list(zip(PAULIS2, CZ_S_IMAGES)))
    def test_cz_with_s_row(self, label, image):
        got = conjugate(CZ_S, PauliString.from_label(label))
        assert got.label() == image

    def test_identity_fixed(self):
        assert conjugate(CZ, PauliString.identity(2)).is_identity()

    def test_signs_match_matrix_conjugation(self):
        czm = np.diag([1, 1, 1, -1]).astype(complex)
        for label in PAULIS2:
            got = conjugate(CZ, PauliString.from_label(label))
            expect = czm @ pauli_matrix(label) @ czm.conj().T
            assert np.allclose(expect, got.sign * pauli_matrix(got.label()))


class TestSingleQubitCatalog:
    def test_group_size(self):
        assert len(all_single_qubit_cliffords()) == 24

    def test_actions_match_matrices(self):
        sx = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
        mats = {
            "I": np.eye(2, dtype=complex),
            "S": np.diag([1, 1j]).astype(complex),
            "Sdg": np.diag([1, -1j]).astype(complex),
            "SX": sx,
            "SXdg": sx.conj().T,
            "H": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
            "X": pauli_matrix("X"),
            "Y": pauli_matrix("Y"),
            "Z": pauli_matrix("Z"),
        }
        for name, u in mats.items():
            layer = sq_layer(1, {0: name})
            for label in "XYZ":
                got = conjugate(layer, PauliString.from_label(label))
                expect = u @ pauli_matrix(label) @ u.conj().T
                assert np.allclose(expect, got.sign * pauli_matrix(got.label())), name

    def test_inverse(self):
        for g in all_single_qubit_cliffords():
            inv = g.inverse()
            fwd = sq_layer(1, {0: g})
            back = sq_layer(1, {0: inv})
            for label in "XYZ":
                p = PauliString.from_label(label)
                q = conjugate(back, conjugate(fwd, p))
                assert q.key() == p.key() and q.sign == p.sign

    def test_conjugate_inverse_roundtrip(self):
        rng = np.random.default_rng(5)
        group = all_single_qubit_cliffords()
        layer = CliffordLayer(
            4, ((0, 1), (2, 3)),
            tuple((q, group[rng.integers(24)]) for q in range(4)), "L",
        )
        for _ in range(50):
            p = PauliString(4, int(rng.integers(16)), int(rng.integers(16)))
            assert conjugate_inverse(layer, conjugate(layer, p)) == p


class TestLayerValidation:
    def test_overlapping_pairs_rejected(self):
        with pytest.raises(ValueError):
            CliffordLayer(3, ((0, 1), (1, 2)))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CliffordLayer(2, ((0, 2),))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            conjugate(CZ, PauliString.identity(3))


def orbit(layer, p, dressing=None):
    """The unsigned strings of p's orbit, in visit order, from `digit_orbits`."""
    path, length = digit_orbits(layer, digits([p], layer.n), (dressing,))
    return from_digits(path[: length[0], 0], layer.n)


def reference_orbit(layer, p, dressing=None):
    """The same orbit from repeated `conjugate` calls."""
    out = [p.unsigned()]
    while True:
        cur = conjugate(layer, out[-1])
        if dressing is not None:
            cur = conjugate(dressing, cur)
        if cur.key() == out[0].key():
            return out
        out.append(cur.unsigned())


class TestDigitTables:
    def test_tables_match_conjugate(self):
        for g, gate in enumerate(all_single_qubit_cliffords()):
            layer = sq_layer(1, {0: gate})
            for d in range(4):
                image = conjugate(layer, PauliString(1, d & 1, d >> 1))
                assert SQ_DIGITS[g, d] == image.x_bits + 2 * image.z_bits
                assert SQ_INVERSE_DIGITS[g, SQ_DIGITS[g, d]] == d

    def test_cz_partners(self):
        layers = [CliffordLayer(4, ((0, 2),)), CliffordLayer(4, ((0, 1), (2, 3)))]
        partner, paired = cz_partners(layers, 4)
        assert partner.tolist() == [[2, 1, 0, 3], [1, 0, 3, 2]]
        assert paired.tolist() == [[2, 0, 2, 0], [2, 2, 2, 2]]

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=40)
    def test_cz_rule_matches_conjugate(self, x, z):
        layer = CliffordLayer(8, ((0, 3), (1, 2), (5, 7)))
        (partner,), (paired,) = cz_partners([layer], 8)
        p = digits([PauliString(8, x, z)], 8)
        got = from_digits(p ^ ((p[:, partner] << 1) & paired), 8)[0]
        assert got == conjugate(layer, PauliString(8, x, z)).unsigned()


class TestOrbits:
    def test_zz_singleton(self):
        assert [p.label() for p in orbit(CZ, PauliString.from_label("ZZ"))] == ["ZZ"]

    def test_ix_pair(self):
        assert [p.label() for p in orbit(CZ, PauliString.from_label("IX"))] == ["IX", "ZX"]

    def test_dressed_xx_singleton(self):
        got = orbit(CZ, PauliString.from_label("XX"), s_dressing(CZ))
        assert [p.label() for p in got] == ["XX"]

    @given(st.integers(0, 3), st.integers(0, 3))
    def test_orbit_size_divides_action_order(self, x, z):
        p = PauliString(2, x, z)
        # CZ-only layers square to the identity, so orbits have size 1 or 2.
        assert len(orbit(CZ, p)) in (1, 2)

    def test_all_rows_and_dressings_at_once(self):
        # Every two-qubit string under the bare and the S-dressed CZ, and
        # under a layer with its own single-qubit gates, in one pass each.
        strings = [PauliString(2, x, z) for x in range(4) for z in range(4)]
        for layer, dressings in ((CZ, (None, s_dressing(CZ))), (CZ_S, (None, sq_layer(2, {1: "H"})))):
            path, length = digit_orbits(layer, digits(strings, 2), dressings)
            assert path.shape == (length.max(), len(dressings) * len(strings), 2)
            for d, dressing in enumerate(dressings):
                for r, p in enumerate(strings):
                    i = d * len(strings) + r
                    assert from_digits(path[: length[i], i], 2) == reference_orbit(layer, p, dressing)

    @pytest.mark.parametrize("dressed", [False, True])
    def test_seventy_qubit_line(self, dressed):
        # Past the 63 qubits of an int64 mask: every weight-1 and weight-2
        # local string of a CZ layer on a line, against `conjugate`.
        n = 70
        layer = CliffordLayer(n, tuple((q, q + 1) for q in range(0, n - 1, 2)), (), "L")
        dressing = s_dressing(layer) if dressed else None
        rng = np.random.default_rng(70)
        strings = []
        for q in map(int, rng.choice(n - 1, 12, replace=False)):
            for la, lb in ((1, 0), (2, 0), (3, 1), (1, 3), (2, 2)):
                x = (la & 1) << q | (lb & 1) << (q + 1)
                z = (la >> 1) << q | (lb >> 1) << (q + 1)
                strings.append(PauliString(n, x, z))
        path, length = digit_orbits(layer, digits(strings, n), (dressing,))
        for i, p in enumerate(strings):
            assert from_digits(path[: length[i], i], n) == reference_orbit(layer, p, dressing)

    @given(st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=30)
    def test_dressed_orbit_size_divides_order(self, x, z):
        # The S-dressed CZ acts with order 4 on unsigned strings.
        dressed = s_dressing(CZ)
        p = PauliString(2, x, z).unsigned()
        cur, order = p, 0
        for m in range(1, 5):
            cur = conjugate(dressed, conjugate(CZ, cur)).unsigned()
            if cur.key() == p.key():
                order = m
                break
        assert order and 4 % order == 0
        assert order == len(orbit(CZ, p, dressed))


class TestConjugationProperties:
    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=60)
    def test_symplectic_products_preserved(self, xa, za, xb, zb):
        layer = CliffordLayer(8, ((0, 1), (3, 6)), ((2, CATALOG["S"]), (4, CATALOG["H"])))
        a, b = PauliString(8, xa, za), PauliString(8, xb, zb)
        assert symplectic_inner(conjugate(layer, a), conjugate(layer, b)) == symplectic_inner(a, b)

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=60)
    def test_cz_only_involution(self, x, z):
        layer = CliffordLayer(8, ((0, 3), (1, 2), (5, 7)))
        p = PauliString(8, x, z)
        assert conjugate(layer, conjugate(layer, p)) == p


def alternate(layers, p, m):
    """p after m alternating conjugations, the first-listed layer first."""
    for j in range(m):
        p = conjugate(layers[j % len(layers)], p)
    return p


class TestAlternatingConjugation:
    # The alternating sequences that `mlcb_targets` closes into products.
    def setup_method(self):
        self.b = CliffordLayer(3, ((0, 1),), (), "B")
        self.g = CliffordLayer(3, ((1, 2),), (), "G")

    def test_three_qubit_sequence(self):
        p = PauliString.from_label("XIX")
        assert alternate([self.b, self.g], p, 1).label() == "XZX"
        assert alternate([self.b, self.g], p, 2).label() == "XIX"

    @given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 4))
    @settings(max_examples=40)
    def test_cz_layers_are_four_periodic(self, x, z, m):
        b = CliffordLayer(6, ((0, 1), (2, 3), (4, 5)), (), "B")
        g = CliffordLayer(6, ((1, 2), (3, 4)), (), "G")
        p = PauliString(6, x, z).unsigned()
        a = alternate([b, g], p, m).unsigned()
        b4 = alternate([b, g], p, m + 4).unsigned()
        assert a.key() == b4.key()


class TestChainDecomposition:
    def test_three_qubit_open_chain(self):
        b = CliffordLayer(3, ((0, 1),), (), "B")
        g = CliffordLayer(3, ((1, 2),), (), "G")
        chains = chain_decomposition(b, g)
        assert len(chains) == 1
        chain = chains[0]
        assert chain.kind == "open"
        assert chain.qubits == (0, 1, 2)
        assert chain.bulk() == (1,)

    def test_identical_pair_closed_chain(self):
        b = CliffordLayer(2, ((0, 1),), (), "B")
        g = CliffordLayer(2, ((0, 1),), (), "G")
        (chain,) = chain_decomposition(b, g)
        assert chain.kind == "closed"
        assert len(chain.edges) == 2
        assert set(chain.bulk()) == {0, 1}

    def test_disjoint_supports(self):
        b = CliffordLayer(4, ((0, 1),), (), "B")
        g = CliffordLayer(4, ((2, 3),), (), "G")
        chains = chain_decomposition(b, g)
        assert len(chains) == 2
        assert all(c.kind == "open" and not c.bulk() for c in chains)

    def test_square_cycle(self):
        b = CliffordLayer(4, ((0, 1), (2, 3)), (), "B")
        g = CliffordLayer(4, ((0, 2), (1, 3)), (), "G")
        (chain,) = chain_decomposition(b, g)
        assert chain.kind == "closed"
        assert len(chain.qubits) == 4 and len(chain.edges) == 4
        labels = [lab for _, lab in chain.edges]
        assert labels == ["B", "G", "B", "G"]

    def test_colors_alternate_and_qubits_unique(self):
        b = CliffordLayer(8, ((0, 1), (2, 3), (4, 5), (6, 7)), (), "B")
        g = CliffordLayer(8, ((1, 2), (5, 6)), (), "G")
        seen = set()
        for chain in chain_decomposition(b, g):
            assert not (set(chain.qubits) & seen)
            seen.update(chain.qubits)
            for (e1, l1), (e2, l2) in zip(chain.edges, chain.edges[1:]):
                assert l1 != l2

    def test_requires_cz_only(self):
        b = CliffordLayer(2, ((0, 1),), ((0, CATALOG["S"]),), "B")
        g = CliffordLayer(2, (), (), "G")
        with pytest.raises(ValueError):
            chain_decomposition(b, g)
