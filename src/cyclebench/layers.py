"""Clifford layers (parallel CZ gates plus single-qubit Cliffords), their
conjugation action on one Pauli string (`conjugate`) and on arrays of
digits x + 2z (every propagation), and chain decomposition of CZ-only layer
pairs.

Paulis are kept up to phase, so a single-qubit Clifford is its digit row:
entry d is the digit of the image of digit d.  Cliffords that differ by a
Pauli (S and Sdg, SX and SXdg, I and X, Y, Z) share a row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliString

# The digit row of every named single-qubit gate.
CATALOG: dict[str, tuple[int, int, int, int]] = {
    "I": (0, 1, 2, 3),
    "S": (0, 3, 2, 1),
    "Sdg": (0, 3, 2, 1),
    "SX": (0, 1, 3, 2),
    "SXdg": (0, 1, 3, 2),
    "H": (0, 2, 1, 3),
    "X": (0, 1, 2, 3),
    "Y": (0, 1, 2, 3),
    "Z": (0, 1, 2, 3),
}

# (24, 4) uint8: row g is the digit row of single-qubit Clifford g
# (SQ_DIGITS) or of its inverse (SQ_INVERSE_DIGITS).  The 24 Cliffords are
# enumerated by (+/-, X image, +/-, Z image), the two images distinct; the
# image of Y = iXZ is the product of the two.  Each row appears four times,
# once per pair of phases; PEC circuits draw row indices, so this order
# fixes their streams.
SQ_DIGITS = np.array(
    [(0, x, z, x ^ z) for _ in "+-" for x in (1, 2, 3) for _ in "+-" for z in (1, 2, 3) if x != z],
    dtype=np.uint8,
)
SQ_INVERSE_DIGITS = np.argsort(SQ_DIGITS, axis=1).astype(np.uint8)
_SQ_ROWS = frozenset(map(tuple, SQ_DIGITS.tolist()))


def is_qubit(q, n: int) -> bool:
    """Whether q indexes one of n qubits.  1.0 and True equal 1 in every
    comparison and set lookup, so only integers pass."""
    return isinstance(q, (int, np.integer)) and not isinstance(q, bool) and 0 <= q < n


@dataclass(frozen=True)
class CliffordLayer:
    """A layer of non-overlapping gates: CZ pairs plus single-qubit Cliffords.

    The layer's unitary is (single-qubit part) o (CZ part): single-qubit
    gates act after the entangling gates, matching the interleaved-CB usage
    where S gates are inserted after each execution of the CZ layer.  Each
    single-qubit gate is (qubit, digit row), the row one of `SQ_DIGITS`.
    """

    n: int
    cz_pairs: tuple[tuple[int, int], ...] = ()
    sq_gates: tuple[tuple[int, tuple[int, int, int, int]], ...] = ()
    label: str = ""

    def __post_init__(self):
        for pair in self.cz_pairs:
            if len(pair) != 2 or not all(is_qubit(q, self.n) for q in pair):
                raise ValueError(f"CZ pair {list(pair)} is not two integer qubits in [0, {self.n})")
        qubits = [q for q, _ in self.sq_gates]
        if len(set(qubits)) < len(qubits) or not all(is_qubit(q, self.n) for q in qubits):
            raise ValueError(f"sq_gates qubits {qubits} are not distinct integers in [0, {self.n})")
        bad = [row for _, row in self.sq_gates if not isinstance(row, tuple) or row not in _SQ_ROWS]
        if bad:
            raise ValueError(f"sq_gates rows {bad} are not rows of SQ_DIGITS")
        pairs = tuple(sorted(tuple(sorted(p)) for p in self.cz_pairs))
        object.__setattr__(self, "cz_pairs", pairs)
        object.__setattr__(self, "sq_gates", tuple(sorted(self.sq_gates)))
        seen = set()
        for a, b in pairs:
            if a == b:
                raise ValueError("CZ pair must join two distinct qubits")
            if a in seen or b in seen:
                raise ValueError("CZ pairs must have non-overlapping supports")
            seen.update((a, b))

    def support(self) -> frozenset[int]:
        qs = {q for pair in self.cz_pairs for q in pair}
        qs.update(q for q, _ in self.sq_gates)
        return frozenset(qs)

    def is_cz_only(self) -> bool:
        return not self.sq_gates


def sq_layer(n: int, gates: dict[int, str | tuple[int, ...]], label: str = "") -> CliffordLayer:
    """Convenience constructor for a single-qubit-only layer: each gate is
    a `CATALOG` name or a digit row."""
    resolved = tuple((q, CATALOG[g] if isinstance(g, str) else g) for q, g in gates.items())
    return CliffordLayer(n, (), resolved, label)


def s_dressing(layer: CliffordLayer) -> CliffordLayer:
    """S on every qubit in the layer's CZ support (the interleaved variant)."""
    qs = sorted({q for pair in layer.cz_pairs for q in pair})
    return sq_layer(layer.n, {q: "S" for q in qs}, label=layer.label + "+S")


def covering_layers(layers, n: int) -> list[list[int]]:
    """Per qubit q of n, the indices of the layers whose support holds q,
    in order."""
    supports = [layer.support() for layer in layers]
    return [[i for i, s in enumerate(supports) if q in s] for q in range(n)]


def conjugate(layer: CliffordLayer, p: PauliString) -> PauliString:
    """U_C P U_C^dagger with the CZ part applied first, then the SQ part."""
    if p.n != layer.n:
        raise ValueError(f"dimension mismatch: {p.n} != {layer.n}")
    x, z = p.x_bits, p.z_bits
    for a, b in layer.cz_pairs:
        if (x >> a) & 1:
            z ^= 1 << b
        if (x >> b) & 1:
            z ^= 1 << a
    for q, row in layer.sq_gates:
        d = row[((x >> q) & 1) + 2 * ((z >> q) & 1)]
        x = (x & ~(1 << q)) | ((d & 1) << q)
        z = (z & ~(1 << q)) | ((d >> 1) << q)
    return PauliString(p.n, x, z)


def conjugate_inverse(layer: CliffordLayer, p: PauliString) -> PauliString:
    """U_C^dagger P U_C (the CZ part is self-inverse, SQ parts are inverted)."""
    if p.n != layer.n:
        raise ValueError(f"dimension mismatch: {p.n} != {layer.n}")
    inv_sq = tuple((q, tuple(row.index(d) for d in range(4))) for q, row in layer.sq_gates)
    p = conjugate(CliffordLayer(layer.n, (), inv_sq), p)
    return conjugate(CliffordLayer(layer.n, layer.cz_pairs, ()), p)


def cz_partners(layers, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(partner, paired), both (len(layers), n): partner[i, q] is the qubit
    a CZ of layers[i] joins to q (q itself when none), and paired[i, q] is 2
    where there is one, else 0.  The CZ part of layer i, which is its own
    inverse, maps digits p to p ^ ((p[partner[i]] << 1) & paired[i]), that
    is z_q ^= x_partner(q)."""
    partner = np.tile(np.arange(n), (len(layers), 1))
    paired = np.zeros((len(layers), n), dtype=np.uint8)
    for i, layer in enumerate(layers):
        pairs = np.array(layer.cz_pairs, dtype=np.intp).reshape(-1, 2)
        partner[i, pairs] = pairs[:, ::-1]
        paired[i, pairs] = 2
    return partner, paired


def digit_orbits(
    layer: CliffordLayer, strings: np.ndarray, dressings=(None,)
) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of the (R, n) digit rows `strings` under the cycle map
    P -> D (C P C^) D^ of `layer` C and each dressing D in `dressings`
    (None for none), all rows advancing together until each is back at its
    start: (path, length), (M, D R, n) and (D R,), where row d R + r
    follows strings[r] under dressings[d] and orbit i, in visit order, is
    path[:length[i], i]."""
    start = np.tile(strings, (len(dressings), 1))
    (partner,), (paired,) = cz_partners([layer], layer.n)
    # Per dressing, qubit and digit: the image under both single-qubit parts.
    tables = np.tile(np.arange(4, dtype=np.uint8), (len(dressings), layer.n, 1))
    for d, dressing in enumerate(dressings):
        for q, row in layer.sq_gates + (dressing.sq_gates if dressing else ()):
            tables[d, q] = np.take(row, tables[d, q])
    # Flat index of (dressing d, qubit q, digit 0) for row d R + r.
    offsets = np.repeat(4 * np.arange(tables.size // 4).reshape(-1, layer.n), len(strings), axis=0)
    tables = tables.ravel()
    path, length = [start], np.zeros(len(start), dtype=np.intp)
    cur = start
    while not length.all():
        cur = cur ^ ((cur[:, partner] << 1) & paired)
        cur = tables.take(offsets + cur)
        length[(length == 0) & (cur == start).all(axis=1)] = len(path)
        path.append(cur)
    return np.stack(path[:-1]), length


@dataclass(frozen=True)
class Chain:
    """A connected component of the two-colored gate graph of a layer pair."""

    qubits: tuple[int, ...]
    edges: tuple[tuple[tuple[int, int], str], ...]  # ((a, b), layer label)
    kind: str  # "open" | "closed"
    pair: tuple[str, str] = ("", "")  # (first layer label, second layer label)

    def bulk(self) -> tuple[int, ...]:
        """Qubits touched by both layers (degree 2 in the component)."""
        deg: dict[int, int] = {}
        for (a, b), _ in self.edges:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        return tuple(q for q in self.qubits if deg.get(q, 0) == 2)

    def neighbors_via(self, qubit: int) -> dict[str, int]:
        """Map layer label -> qubit joined to `qubit` by that layer's edge."""
        out: dict[str, int] = {}
        for (a, b), lab in self.edges:
            if qubit == a:
                out[lab] = b
            elif qubit == b:
                out[lab] = a
        return out


def chain_decomposition(a: CliffordLayer, b: CliffordLayer) -> list[Chain]:
    """Connected components of the two-colored edge multigraph of (a, b).

    Both layers must be CZ-only.  Each component is a path or a cycle with
    alternating colors; two layers sharing an identical pair yield a 2-qubit
    closed chain.
    """
    if a.n != b.n:
        raise ValueError("layers must have equal qubit counts")
    if not (a.is_cz_only() and b.is_cz_only()):
        raise ValueError("chain decomposition requires CZ-only layers")
    edges = [(pair, a.label) for pair in a.cz_pairs] + [
        (pair, b.label) for pair in b.cz_pairs
    ]
    adj: dict[int, list[tuple[int, int]]] = {}  # qubit -> [(edge index, other)]
    for i, (pair, _) in enumerate(edges):
        p0, p1 = pair
        adj.setdefault(p0, []).append((i, p1))
        adj.setdefault(p1, []).append((i, p0))

    chains = []
    visited_edges: set[int] = set()
    endpoints = sorted(q for q, nb in adj.items() if len(nb) == 1)
    starts = endpoints + sorted(adj)
    for start in starts:
        nxt = [i for i, _ in adj[start] if i not in visited_edges]
        if not nxt:
            continue
        # Walk the component from here; prefer starting along the first
        # layer's edge so closed chains lead with layer `a`.
        nxt.sort(key=lambda i: (edges[i][1] != a.label, edges[i][0]))
        qubits = [start]
        chain_edges = []
        cur = start
        while True:
            options = [(i, o) for i, o in adj[cur] if i not in visited_edges]
            if not options:
                break
            options.sort(key=lambda io: (edges[io[0]][1] != a.label, io[0]))
            i, other = options[0]
            visited_edges.add(i)
            chain_edges.append((edges[i][0], edges[i][1]))
            if other == qubits[0] and len(chain_edges) > 1:
                break  # cycle closed
            qubits.append(other)
            cur = other
        kind = "closed" if len(chain_edges) == len(qubits) else "open"
        chains.append(
            Chain(tuple(qubits), tuple(chain_edges), kind, (a.label, b.label))
        )
    return chains
