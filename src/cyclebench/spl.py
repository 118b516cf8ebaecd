"""Sparse Pauli-Lindblad noise models: local low-weight generator sets on a
topology, rate vectors, the rate <-> fidelity map and realistic random
model generation."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .layers import CliffordLayer
from .pauli import PauliString, digits
from .topology import Topology

_LETTERS = ("X", "Y", "Z")

# Parity of every 4-bit value.
_PARITY16 = np.array([bin(v).count("1") & 1 for v in range(16)], dtype=np.int8)


@dataclass(frozen=True)
class GeneratorSet:
    """The ordered generator set K of weight <= w_max local Pauli strings.

    Ordering is fixed so rate vectors are portable: first the single-qubit
    strings (qubit ascending, letter in X, Y, Z order), then for every
    topology edge (ascending) the nine two-qubit strings in (X, Y, Z) x
    (X, Y, Z) order, the first letter on the lower qubit.
    """

    topology: Topology
    strings: tuple[PauliString, ...] = field(default=None)  # type: ignore[assignment]
    w_max: ClassVar[int] = 2

    def __post_init__(self):
        if self.strings is None:
            object.__setattr__(self, "strings", self._build())
        object.__setattr__(self, "_activity", {})

    def _build(self) -> tuple[PauliString, ...]:
        n = self.topology.n
        out = []
        for q in range(n):
            for letter in _LETTERS:
                out.append(PauliString.single(n, q, letter))
        for a, b in self.topology.edges:
            for la in _LETTERS:
                for lb in _LETTERS:
                    pa = PauliString.single(n, a, la)
                    pb = PauliString.single(n, b, lb)
                    out.append(PauliString(n, pa.x_bits | pb.x_bits, pa.z_bits | pb.z_bits))
        return tuple(out)

    def __len__(self) -> int:
        return len(self.strings)

    def overlaps(self, alpha: PauliString) -> np.ndarray:
        """Vector of symplectic products <alpha, kappa> over the whole set."""
        if alpha.n != self.topology.n:
            raise ValueError(f"dimension mismatch: {alpha.n} != {self.topology.n}")
        return self.digit_overlaps(digits([alpha], alpha.n))[0]

    @functools.cached_property
    def support_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """(qubits, masks), both (K, 2): the (at most two) qubits each
        generator acts on and, on each, its digit x + 2z with x and z
        swapped, so that a string digit d anticommutes with the generator's
        letter iff d & mask has odd parity.  A weight-1 generator repeats
        its qubit with mask 0."""
        qubits = np.zeros((len(self), 2), dtype=np.intp)
        masks = np.zeros((len(self), 2), dtype=np.uint8)
        for i, p in enumerate(self.strings):
            sup = p.support()
            qubits[i] = sup[0], sup[-1]
            for k, q in enumerate(sup):
                masks[i, k] = ((p.z_bits >> q) & 1) + 2 * ((p.x_bits >> q) & 1)
        return qubits, masks

    @functools.cached_property
    def site_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sites, site_of, ov16): the sites as (S, 2) sorted qubit pairs,
        each generator's site index (K,), and the (16, K) int8 overlap of
        generator k with the digits d_lo, d_hi on its site's two qubits, at
        row d_lo + 4 d_hi.  A string's overlap with generator k is then
        ov16[code, k] for its site code p[lo] | p[hi] << 2, in any
        generator order.

        The sites are the edges (a, b) the weight-2 generators act on.  A
        single-qubit generator on q sits on the first edge, in sorted
        order, that holds q, and reads q's two bits of its code; a qubit on
        no edge keeps its own site (q, q)."""
        qubits, masks = self.support_masks
        qubits, masks = qubits.copy(), masks.copy()
        single = np.flatnonzero(qubits[:, 0] == qubits[:, 1])
        # Each qubit's site: the first edge holding it, else (q, q).
        host = np.repeat(np.arange(self.topology.n)[:, None], 2, axis=1)
        edges = sorted(set(map(tuple, qubits[qubits[:, 0] != qubits[:, 1]].tolist())))
        for a, b in reversed(edges):
            host[[a, b]] = a, b
        q = qubits[single, 0]
        qubits[single] = host[q]
        # The higher qubit of its edge reads the code's high two bits.
        on_hi = host[q, 0] != q
        masks[single[on_hi]] = masks[single[on_hi]][:, ::-1]
        sites, site_of = np.unique(qubits, axis=0, return_inverse=True)
        codes = np.arange(16, dtype=np.uint8)[:, None]
        ov16 = np.take(
            _PARITY16, (codes & 3 & masks[:, 0]) | (((codes >> 2) & masks[:, 1]) << 2)
        )
        return sites, site_of.reshape(-1), ov16

    def gate_activity(self, cz_pairs) -> tuple[np.ndarray, np.ndarray]:
        """(gate, weight), both (K,): the index in `cz_pairs` (disjoint
        pairs) of the gate whose qubits hold the generator's whole support,
        or -1, and 0 / 1 for a weight-1 / weight-2 generator.  Computed
        once per pair tuple."""
        out = self._activity.get(cz_pairs)
        if out is None:
            qubits, _ = self.support_masks
            gate_of = np.full(self.topology.n, -1, dtype=np.intp)
            for g, pair in enumerate(cz_pairs):
                gate_of[list(pair)] = g
            first, last = gate_of[qubits[:, 0]], gate_of[qubits[:, 1]]
            gate = np.where(first == last, first, -1)
            weight = (qubits[:, 0] != qubits[:, 1]).astype(np.intp)
            out = self._activity[cz_pairs] = (gate, weight)
        return out

    def digit_overlaps(self, strings: np.ndarray) -> np.ndarray:
        """(C, K) symplectic products of every row of `strings` ((C, n)
        uint8 digits x + 2z) with every generator, by lookup on the
        generators' supports."""
        qubits, masks = self.support_masks
        bits = (strings[:, qubits[:, 0]] & masks[:, 0]) | (
            (strings[:, qubits[:, 1]] & masks[:, 1]) << 2
        )
        return np.take(_PARITY16, bits)


@dataclass(frozen=True)
class SplModel:
    """Generator rates for one layer; fidelities via f = exp(-2 M lambda)."""

    layer_label: str
    generators: GeneratorSet
    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float).copy()
        if lam.shape != (len(self.generators),):
            raise ValueError(
                f"rate vector length {lam.shape} does not match generator count "
                f"{len(self.generators)}"
            )
        if np.any(lam < 0):
            raise ValueError("rates must be nonnegative")
        lam.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)

    def log_fidelity(self, alpha: PauliString) -> float:
        return -2.0 * float(self.generators.overlaps(alpha) @ self.lambdas)

    def fidelity(self, alpha: PauliString) -> float:
        return float(np.exp(self.log_fidelity(alpha)))

    def to_dict(self) -> dict:
        return {
            "schema": "spl-model/1",
            "label": self.layer_label,
            "topology": self.generators.topology.to_dict(),
            "w_max": self.generators.w_max,
            "lambdas": [float(v) for v in self.lambdas],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SplModel":
        if d.get("w_max", GeneratorSet.w_max) != GeneratorSet.w_max:
            raise ValueError(f"only weight-{GeneratorSet.w_max} generator sets are supported")
        gens = GeneratorSet(Topology.from_dict(d["topology"]))
        return cls(d["label"], gens, np.array(d["lambdas"], dtype=float))


@dataclass(frozen=True)
class RandomModelParams:
    """Gaussian hyperparameters for realistic random rate vectors.

    Inactive generators (support not fully inside the layer's gate support)
    draw from N(mean_inactive, std_inactive); active generators draw from
    N(m_gate, std_active) where each gate's m_gate is itself drawn once from
    N(mean_active, spread_active).  Negative draws are clamped to zero.
    """

    mean_inactive: tuple[float, float] = (2e-4, 1.5e-4)  # weight 1, weight 2
    std_inactive: tuple[float, float] = (8e-4, 1e-3)
    mean_active: tuple[float, float] = (1e-3, 2e-3)
    spread_active: tuple[float, float] = (7.5e-4, 1.5e-3)
    std_active: tuple[float, float] = (1e-3, 2e-3)


def random_model(
    generators: GeneratorSet,
    layer: CliffordLayer,
    rng: np.random.Generator,
    params: RandomModelParams = RandomModelParams(),
) -> SplModel:
    """Draw a realistic rate vector for one layer over the generator set
    (and so the topology) `generators`.

    A generator is active when its whole support lies inside a single gate
    of the layer (that gate's per-gate mean then applies); generators
    straddling two gates, or touching idling qubits, are inactive.
    """
    # One draw in gate order, weight 1 before weight 2 per gate: the same
    # stream as one draw per gate mean.
    gate_means = rng.normal(
        params.mean_active, params.spread_active, size=(len(layer.cz_pairs), 2)
    )
    gate, w = generators.gate_activity(layer.cz_pairs)
    active = gate >= 0
    loc = np.take(params.mean_inactive, w)
    scale = np.take(params.std_inactive, w)
    loc[active] = gate_means[gate[active], w[active]]
    scale[active] = np.take(params.std_active, w[active])
    # One draw in generator order: the same stream as one draw per generator.
    lam = np.clip(rng.normal(loc, scale), 0.0, None)
    return SplModel(layer.label, generators, lam)

