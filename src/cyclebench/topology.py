"""Qubit connectivity graphs and the standard four-layer CZ coverings used
for dense-circuit characterization on square lattices."""

from __future__ import annotations

import re
from dataclasses import dataclass

from .layers import CliffordLayer, is_qubit

LAYER_LABELS = ("B", "G", "R", "O")


@dataclass(frozen=True)
class Topology:
    """Nearest-neighbour connectivity graph of a device."""

    n: int
    edges: tuple[tuple[int, int], ...]
    coords: tuple[tuple[int, int], ...] | None = None  # (x, y) per qubit
    preset: str = ""

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"qubit count n must be an integer >= 1, got {self.n!r}")
        norm = []
        seen = set()
        for a, b in self.edges:
            if not (is_qubit(a, self.n) and is_qubit(b, self.n)):
                raise ValueError(f"edge {[a, b]} is not two integer qubits in [0, {self.n})")
            if a == b:
                raise ValueError("self-loop in topology")
            e = (min(a, b), max(a, b))
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        if self.coords is not None:
            object.__setattr__(self, "coords", tuple(tuple(c) for c in self.coords))
            if len(self.coords) != self.n:
                raise ValueError("coords must cover every qubit")

    def induced(self, qubits: tuple[int, ...]) -> "Topology":
        """Subgraph on the given qubits, relabelled 0..k-1 in list order."""
        index = {q: i for i, q in enumerate(qubits)}
        edges = tuple(
            (index[a], index[b])
            for a, b in self.edges
            if a in index and b in index
        )
        return Topology(len(qubits), edges)

    def to_dict(self) -> dict:
        d = {"n": self.n, "edges": [list(e) for e in self.edges]}
        if self.preset:
            d["preset"] = self.preset
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Topology":
        if not isinstance(d, dict) or not isinstance(d.get("preset", ""), str):
            raise ValueError(f"topology must be a preset name or an object, got {d!r}")
        if d.get("preset"):
            topo = preset(d["preset"])
            if "n" in d and d["n"] != topo.n:
                raise ValueError("preset/qubit-count mismatch")
            if d.get("edges") and tuple(sorted(tuple(e) for e in d["edges"])) != topo.edges:
                raise ValueError("preset/edge-list mismatch")
            return topo
        return cls(d["n"], tuple(tuple(e) for e in d["edges"]))


def square_lattice(width: int, height: int, name: str = "") -> Topology:
    """width x height grid; qubit index = x + width * y."""

    def idx(x, y):
        return x + width * y

    edges = []
    coords = []
    for y in range(height):
        for x in range(width):
            coords.append((x, y))
            if x + 1 < width:
                edges.append((idx(x, y), idx(x + 1, y)))
            if y + 1 < height:
                edges.append((idx(x, y), idx(x, y + 1)))
    return Topology(
        width * height, tuple(edges), tuple(coords), name or f"square{width}x{height}"
    )


def garnet20() -> Topology:
    """20-qubit square-lattice layout (4 x 5 grid) used as the device preset."""
    return square_lattice(4, 5, name="garnet20")


def preset(name: str) -> Topology:
    if name == "garnet20":
        return garnet20()
    dims = re.fullmatch(r"square([0-9]+)x([0-9]+)", name)
    if dims:
        return square_lattice(int(dims[1]), int(dims[2]))
    raise ValueError(f"unknown topology preset {name!r}; use garnet20 or squareWxH")


def _edge_class(topology: Topology, edge: tuple[int, int], scheme: str) -> int:
    """Class 0..3 of an edge under one of the two four-layer coverings.

    "closed_squares": horizontal edges split by x parity, vertical by y
    parity; each pair of consecutive layers decomposes into disjoint 4-cycles
    (plus boundary fragments).

    "open_chains": horizontal and vertical edges split by (x + y) parity of
    the lower-left endpoint; consecutive pairs decompose into rows, monotone
    staircases and columns - open chains of variable length.
    """
    if topology.coords is None:
        raise ValueError("layer configurations require grid coordinates")
    (xa, ya), (xb, yb) = topology.coords[edge[0]], topology.coords[edge[1]]
    horizontal = ya == yb
    x, y = min(xa, xb), min(ya, yb)
    if scheme == "closed_squares":
        par = x % 2 if horizontal else y % 2
    elif scheme == "open_chains":
        par = (x + y) % 2
    else:
        raise ValueError(f"unknown layer scheme {scheme!r}")
    return (0 if horizontal else 2) + par


def four_layer_config(topology: Topology, scheme: str) -> list[CliffordLayer]:
    """Four parallel-CZ layers covering every edge of a grid topology."""
    buckets: dict[int, list[tuple[int, int]]] = {0: [], 1: [], 2: [], 3: []}
    for e in topology.edges:
        buckets[_edge_class(topology, e, scheme)].append(e)
    order = [0, 1, 2, 3] if scheme == "open_chains" else [0, 2, 1, 3]
    layers = []
    for lab, cls in zip(LAYER_LABELS, order):
        layers.append(CliffordLayer(topology.n, tuple(buckets[cls]), (), lab))
    return layers


LAYER_SCHEMES = ("open_chains", "closed_squares")
