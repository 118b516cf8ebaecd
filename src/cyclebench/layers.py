"""Clifford layers (parallel CZ gates plus single-qubit Cliffords), their
conjugation action on one signed Pauli string (`conjugate`) and on arrays
of unsigned digits x + 2z (every propagation), and chain decomposition of
CZ-only layer pairs."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .pauli import PauliString

# Signed single-qubit Pauli as (sign, x, z).
SignedPauli1q = tuple[int, int, int]


@dataclass(frozen=True)
class SingleQubitClifford:
    """A single-qubit Clifford defined by its conjugation action on X and Z."""

    name: str
    x_image: SignedPauli1q
    z_image: SignedPauli1q

    def __post_init__(self):
        # The images must anticommute, otherwise this is not a valid Clifford.
        (_, xx, xz), (_, zx, zz) = self.x_image, self.z_image
        if ((xx & zz) ^ (xz & zx)) != 1:
            raise ValueError(f"images of X and Z must anticommute ({self.name})")

    @functools.cached_property
    def table(self) -> dict[tuple[int, int], SignedPauli1q]:
        """Conjugation images of all four (x, z) single-qubit Paulis."""
        tab = {(0, 0): (1, 0, 0), (1, 0): self.x_image, (0, 1): self.z_image}
        # Y = iXZ, so U Y U^ = i (U X U^)(U Z U^); tracking the leftover
        # power of i exactly keeps the result Hermitian.
        sx, xx, xz = self.x_image
        sz, zx, zz = self.z_image
        x, z = xx ^ zx, xz ^ zz
        k = ((xx & xz) + (zx & zz) + 2 * (xz & zx) - (x & z)) % 4
        k = (k + 1) % 4  # extra factor i from Y = iXZ
        if k % 2 != 0:
            raise ValueError("image of Y is not Hermitian; invalid action")
        tab[(1, 1)] = (sx * sz * (1 if k == 0 else -1), x, z)
        return tab

    def inverse(self) -> "SingleQubitClifford":
        return _inverse_action(self.x_image, self.z_image)


@functools.lru_cache(maxsize=None)
def _inverse_action(x_image: SignedPauli1q, z_image: SignedPauli1q) -> SingleQubitClifford:
    probe = SingleQubitClifford("_probe", x_image, z_image)
    for cand in all_single_qubit_cliffords():
        # cand is the inverse iff applying probe after cand fixes X and Z.
        ok = True
        for start in ((1, 1, 0), (1, 0, 1)):
            s, x, z = cand.table[(start[1], start[2])]
            s2, x2, z2 = probe.table[(x, z)]
            if (s * s2, x2, z2) != start:
                ok = False
                break
        if ok:
            return cand
    raise RuntimeError("no inverse found; catalog incomplete")


_NAMED_ACTIONS = {
    "I": ((1, 1, 0), (1, 0, 1)),
    "S": ((1, 1, 1), (1, 0, 1)),
    "Sdg": ((-1, 1, 1), (1, 0, 1)),
    "SX": ((1, 1, 0), (-1, 1, 1)),
    "SXdg": ((1, 1, 0), (1, 1, 1)),
    "H": ((1, 0, 1), (1, 1, 0)),
    "X": ((1, 1, 0), (-1, 0, 1)),
    "Y": ((-1, 1, 0), (-1, 0, 1)),
    "Z": ((-1, 1, 0), (1, 0, 1)),
}

CATALOG: dict[str, SingleQubitClifford] = {
    name: SingleQubitClifford(name, xi, zi) for name, (xi, zi) in _NAMED_ACTIONS.items()
}


@functools.lru_cache(maxsize=1)
def all_single_qubit_cliffords() -> tuple[SingleQubitClifford, ...]:
    """All 24 single-qubit Cliffords, identified by their Pauli action."""
    named = {(g.x_image, g.z_image): g.name for g in CATALOG.values()}
    out = []
    letters = [(1, 0), (0, 1), (1, 1)]
    idx = 0
    for sx in (1, -1):
        for lx in letters:
            for sz in (1, -1):
                for lz in letters:
                    if ((lx[0] & lz[1]) ^ (lx[1] & lz[0])) != 1:
                        continue
                    xi, zi = (sx, *lx), (sz, *lz)
                    name = named.get((xi, zi), f"C{idx}")
                    out.append(SingleQubitClifford(name, xi, zi))
                    idx += 1
    assert len(out) == 24
    return tuple(out)


def _digit_images(gate: SingleQubitClifford) -> list[int]:
    """The digit of each digit's image under `gate`, sign dropped."""
    return [nx + 2 * nz for _, nx, nz in (gate.table[d & 1, d >> 1] for d in range(4))]


# (24, 4) uint8: row g maps a digit x + 2z to that of its conjugation by
# `all_single_qubit_cliffords()[g]` (SQ_DIGITS) or by its inverse
# (SQ_INVERSE_DIGITS), sign dropped.
SQ_DIGITS = np.array([_digit_images(g) for g in all_single_qubit_cliffords()], dtype=np.uint8)
SQ_INVERSE_DIGITS = np.argsort(SQ_DIGITS, axis=1).astype(np.uint8)


@dataclass(frozen=True)
class CliffordLayer:
    """A layer of non-overlapping gates: CZ pairs plus single-qubit Cliffords.

    The layer's unitary is (single-qubit part) o (CZ part): single-qubit
    gates act after the entangling gates, matching the interleaved-CB usage
    where S gates are inserted after each execution of the CZ layer.
    """

    n: int
    cz_pairs: tuple[tuple[int, int], ...] = ()
    sq_gates: tuple[tuple[int, SingleQubitClifford], ...] = ()
    label: str = ""

    def __post_init__(self):
        pairs = tuple(sorted(tuple(sorted(p)) for p in self.cz_pairs))
        object.__setattr__(self, "cz_pairs", pairs)
        object.__setattr__(self, "sq_gates", tuple(sorted(self.sq_gates)))
        seen = set()
        for a, b in pairs:
            if a == b:
                raise ValueError("CZ pair must join two distinct qubits")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError("CZ pair references qubit outside layer")
            if a in seen or b in seen:
                raise ValueError("CZ pairs must have non-overlapping supports")
            seen.update((a, b))
        for q, _ in self.sq_gates:
            if not 0 <= q < self.n:
                raise ValueError("single-qubit gate outside layer")

    def support(self) -> frozenset[int]:
        qs = {q for pair in self.cz_pairs for q in pair}
        qs.update(q for q, _ in self.sq_gates)
        return frozenset(qs)

    def is_cz_only(self) -> bool:
        return not self.sq_gates


def sq_layer(n: int, gates: dict[int, str | SingleQubitClifford], label: str = "") -> CliffordLayer:
    """Convenience constructor for a single-qubit-only layer."""
    resolved = tuple(
        (q, CATALOG[g] if isinstance(g, str) else g) for q, g in gates.items()
    )
    return CliffordLayer(n, (), resolved, label)


def s_dressing(layer: CliffordLayer) -> CliffordLayer:
    """S on every qubit in the layer's CZ support (the interleaved variant)."""
    qs = sorted({q for pair in layer.cz_pairs for q in pair})
    return sq_layer(layer.n, {q: "S" for q in qs}, label=layer.label + "+S")


def conjugate(layer: CliffordLayer, p: PauliString) -> PauliString:
    """U_C P U_C^dagger with the CZ part applied first, then the SQ part."""
    if p.n != layer.n:
        raise ValueError(f"dimension mismatch: {p.n} != {layer.n}")
    x, z, sign = p.x_bits, p.z_bits, p.sign
    for a, b in layer.cz_pairs:
        xa = (x >> a) & 1
        xb = (x >> b) & 1
        if xa & xb & (((z >> a) ^ (z >> b)) & 1):
            sign = -sign
        if xa:
            z ^= 1 << b
        if xb:
            z ^= 1 << a
    for q, gate in layer.sq_gates:
        xq = (x >> q) & 1
        zq = (z >> q) & 1
        if not (xq | zq):
            continue
        s, nx, nz = gate.table[(xq, zq)]
        sign *= s
        x = (x & ~(1 << q)) | (nx << q)
        z = (z & ~(1 << q)) | (nz << q)
    return PauliString(p.n, x, z, sign)


def conjugate_inverse(layer: CliffordLayer, p: PauliString) -> PauliString:
    """U_C^dagger P U_C (the CZ part is self-inverse, SQ parts are inverted)."""
    if p.n != layer.n:
        raise ValueError(f"dimension mismatch: {p.n} != {layer.n}")
    inv_sq = tuple((q, g.inverse()) for q, g in layer.sq_gates)
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
        for a, b in layer.cz_pairs:
            partner[i, a], partner[i, b] = b, a
            paired[i, [a, b]] = 2
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
        for q, gate in layer.sq_gates + (dressing.sq_gates if dressing else ()):
            tables[d, q] = np.take(_digit_images(gate), tables[d, q])
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
