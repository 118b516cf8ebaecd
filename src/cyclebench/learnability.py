"""Learnability analysis of Pauli fidelities for Clifford layers.

Which functions of fidelities can cycle-benchmarking protocols determine
with multiplicative, SPAM-robust precision?  Orbit products (standard and
interleaved) span the learnable space; certified modular ranks count it
and complete it to full rank; a randomized row-elimination
search produces certificates expressing an unlearnable target through a
measured multi-layer product plus learnable terms.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from . import exactla
from .layers import Chain, CliffordLayer, conjugate, covering_layers, digit_orbits, s_dressing
from .pauli import PauliString, digits, from_digits
from .spl import GeneratorSet, SplModel
from .topology import Topology


@dataclass(frozen=True)
class FidelityFunction:
    """A linear combination of log-fidelities: sum gamma * log f^L_alpha."""

    terms: tuple[tuple[str, PauliString, Fraction], ...]

    @classmethod
    def product(cls, label: str, strings) -> "FidelityFunction":
        return cls(tuple((label, s, Fraction(1)) for s in strings))

    @classmethod
    def ratio(cls, num: tuple[str, PauliString], den: tuple[str, PauliString]) -> "FidelityFunction":
        return cls(
            (
                (num[0], num[1], Fraction(1)),
                (den[0], den[1], Fraction(-1)),
            )
        )

    def evaluate_log(self, models: dict[str, SplModel]) -> float:
        """sum gamma * log f, one overlap lookup per layer label."""
        total = 0.0
        for lab in dict.fromkeys(lab for lab, _, _ in self.terms):
            model = models[lab]
            n = model.generators.topology.n
            terms = [(p, g) for l, p, g in self.terms if l == lab]
            for p, _ in terms:
                if p.n != n:
                    raise ValueError(f"dimension mismatch: {p.n} != {n}")
            rows = model.generators.digit_overlaps(digits([p for p, _ in terms], n))
            gammas = np.array([float(g) for _, g in terms])
            total -= 2.0 * float(gammas @ (rows @ model.lambdas))
        return total

    def scaled(self, factor: Fraction) -> "FidelityFunction":
        return FidelityFunction(
            tuple((lab, p, g * factor) for lab, p, g in self.terms)
        )

    def __add__(self, other: "FidelityFunction") -> "FidelityFunction":
        acc: dict[tuple[str, tuple[int, int]], tuple[str, PauliString, Fraction]] = {}
        for lab, p, g in self.terms + other.terms:
            key = (lab, p.key())
            if key in acc:
                lab0, p0, g0 = acc[key]
                acc[key] = (lab0, p0, g0 + g)
            else:
                acc[key] = (lab, p, g)
        return FidelityFunction(
            tuple((lab, p, g) for lab, p, g in acc.values() if g != 0)
        )


def int_row(generators: GeneratorSet, fn: FidelityFunction) -> np.ndarray:
    """The rate-space row of `fn` (sum of g * overlaps over its terms, all
    on the one layer whose rates `generators` index), scaled by the lcm of
    its denominators, in integers.

    With D the lcm of the coefficient denominators, R = sum (g D) *
    overlaps is D times the row, and R / gcd(D, R) is the row times the
    lcm of its own denominators (terms may cancel; a zero row stays 0).
    """
    if len({lab for lab, _, _ in fn.terms}) > 1:
        raise ValueError("int_row takes the terms of one layer")
    den = lcm(*(g.denominator for _, _, g in fn.terms))
    weights = [int(g * den) for _, _, g in fn.terms]
    # Overlaps are 0 or 1, so int64 is exact below this bound.
    dtype = object if sum(map(abs, weights)) >= 2**63 else np.int64
    rows = generators.digit_overlaps(digits([p for _, p, _ in fn.terms], generators.topology.n))
    out = np.array(weights, dtype=dtype) @ rows.astype(dtype)
    return out // gcd(den, int(np.gcd.reduce(out)))


@dataclass(frozen=True)
class LearnableProduct:
    """A (product of) fidelities measurable with high accuracy by one layer's
    cycle-benchmarking orbits, standard or interleaved."""

    label: str
    strings: tuple[PauliString, ...]
    source: str  # "standard" | "dressed"

    def function(self) -> FidelityFunction:
        return FidelityFunction.product(self.label, self.strings)

    @functools.cached_property
    def key(self) -> tuple[str, frozenset[PauliString]]:
        """(label, frozenset of the strings), equal for equal products;
        computed once per product."""
        return (self.label, frozenset(self.strings))


def orbit_learnables(layer: CliffordLayer, generators: GeneratorSet) -> list[LearnableProduct]:
    """Orbit products for every generator string, including interleaved
    variants (S on every gate qubit), deduplicated, from one `digit_orbits`
    pass: each product is kept at its first orbit (standard before dressed,
    then generator order), its strings sorted by (x_bits, z_bits)."""
    dressings = [None, s_dressing(layer)] if layer.cz_pairs else [None]
    n = layer.n
    path, length = digit_orbits(layer, digits(generators.strings, n), dressings)
    flat = path.reshape(-1, n)
    # Rank the strings in (x_bits, z_bits) order, equal strings equally:
    # lexsort's last key, the x bit of the highest qubit, leads.
    order = np.lexsort(np.vstack([flat.T >> 1, flat.T & 1]))
    new = np.r_[True, (flat[order[1:]] != flat[order[:-1]]).any(axis=1)]
    rank = np.empty(len(flat), dtype=np.intp)
    rank[order] = np.cumsum(new) - 1
    rank = rank.reshape(len(path), -1)
    by_rank = from_digits(flat[order[new]], n)
    products: dict[tuple, LearnableProduct] = {}
    for i, size in enumerate(length):
        key = tuple(sorted(rank[:size, i].tolist()))
        if key not in products:
            products[key] = LearnableProduct(
                layer.label,
                tuple(by_rank[r] for r in key),
                "standard" if i < len(generators) else "dressed",
            )
    return list(products.values())


def product_rows(generators: GeneratorSet, products) -> np.ndarray:
    """(P, K) int8 overlap rows of learnable products: row i sums the
    symplectic products of every string of products[i] (never empty) with
    every generator.

    Products go 64 at a time through one `digit_overlaps` pass and one int8
    `reduceat`, so no temporary is wider than a byte or larger than a few
    tens of kB (the allocator keeps larger transients, raising peak RSS).
    """
    out = np.empty((len(products), len(generators)), dtype=np.int8)
    for lo in range(0, len(products), 64):
        block = products[lo : lo + 64]
        strings = [p for prod in block for p in prod.strings]
        starts = np.cumsum([0] + [len(prod.strings) for prod in block[:-1]])
        overlaps = generators.digit_overlaps(digits(strings, generators.topology.n))
        np.add.reduceat(overlaps, starts, axis=0, out=out[lo : lo + 64])
    return out


@dataclass(frozen=True)
class EquivalenceCertificate:
    """log F1 = epsilon * log F2 + sum_i sigma_i * log F_i, exactly in lambda,
    with F_i the fidelity product of basis_products[i]."""

    f1: FidelityFunction
    f2: FidelityFunction
    epsilon: Fraction
    sigma: tuple[Fraction, ...]
    basis_products: tuple[LearnableProduct, ...]

    def residual_log(self, models: dict[str, SplModel]) -> float:
        val = self.f1.evaluate_log(models) - float(self.epsilon) * self.f2.evaluate_log(models)
        for s, prod in zip(self.sigma, self.basis_products):
            val -= float(s) * prod.function().evaluate_log(models)
        return val


class NotEquivalentError(ValueError):
    pass


def express_search(
    target: FidelityFunction,
    anchor: FidelityFunction,
    generators: GeneratorSet,
    products: list[LearnableProduct],
    seed: int = 0,
    retries: int = 32,
) -> EquivalenceCertificate:
    """Express `target` through `anchor` plus few of the learnable
    `products`, all functions of one layer's rates over `generators`.

    Randomized greedy elimination over the learnable rows (runs modulo a
    31-bit prime for speed), then one exact rational solve on the surviving
    support; the returned certificate is verified symbolically.  A solve
    that finds no checked solution (a coefficient beyond the reconstruction
    bound, or a modular accident) raises NotEquivalentError: another row
    order modulo the same prime would not avoid it, and no certificate is
    ever wrong.
    """
    t = int_row(generators, target)
    cols = np.vstack([int_row(generators, anchor), product_rows(generators, products)])
    rng = np.random.default_rng(seed)
    support = exactla.modular_support_search(cols, t, rng, retries)
    if support is None:
        raise NotEquivalentError("target is not expressible through the anchor and learnable rows")
    coeffs = exactla.solve_rational([cols[i].tolist() for i in support], t.tolist())
    if coeffs is None:
        raise NotEquivalentError("exact solve failed on the support found mod p")
    eps = Fraction(0)
    sigma, basis = [], []
    for idx, c in zip(support, coeffs):
        if idx == 0:
            eps = c
        elif c != 0:
            sigma.append(c)
            basis.append(products[idx - 1])
    cert = EquivalenceCertificate(target, anchor, eps, tuple(sigma), tuple(basis))
    _verify_certificate(cert, generators)
    return cert


def _verify_certificate(cert: EquivalenceCertificate, generators: GeneratorSet) -> None:
    """f1 - epsilon f2 - sum sigma_i f_i must vanish exactly on the rate
    space; checked in integers, scaled by the lcm of all denominators."""
    terms = list(cert.f1.terms) + list(cert.f2.scaled(-cert.epsilon).terms)
    for s, prod in zip(cert.sigma, cert.basis_products):
        terms += prod.function().scaled(-s).terms
    if int_row(generators, FidelityFunction(tuple(terms))).any():
        raise NotEquivalentError("certificate failed exact verification")


def pattern_transfer_unlearnable(layers, n: int | None = None) -> int:
    """Count unlearnable degrees of freedom over all Pauli noise.

    The count is 2^n - c with c the number of connected components of the
    pattern transfer graph (support patterns linked by conjugation;
    single-qubit dressing never changes a pattern).  Guarded at n <= 8
    since it enumerates 4^n strings.
    """
    if n is None:
        n = layers[0].n
    if n > 8:
        raise ValueError("enumerates 4^n strings; n <= 8 required")
    parent = list(range(1 << n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    for layer in layers:
        for xz in itertools.product(range(1 << n), repeat=2):
            p = PauliString(n, xz[0], xz[1])
            q = conjugate(layer, p)
            union(p.x_bits | p.z_bits, q.x_bits | q.z_bits)
    comps = len({find(i) for i in range(1 << n)})
    return (1 << n) - comps


# ---------------------------------------------------------------------------
# Multi-layer targets on chains


@dataclass(frozen=True)
class MlcbTarget:
    """One multi-layer experiment on a chain: preparation string, the
    fidelity product it measures, and the unlearnable ratio it unlocks."""

    chain: Chain
    qubit: int
    prep: PauliString
    product: FidelityFunction
    mu: FidelityFunction


def mlcb_targets(chain: Chain, la: CliffordLayer, lb: CliffordLayer) -> list[MlcbTarget]:
    """Per-bulk-qubit preparation strings and measured products for a chain
    of the CZ-only pair (la, lb) that `chain_decomposition(la, lb)` returns.

    Open chains (and closed chains of six or more qubits) prepare X on the
    two chain neighbours of the bulk qubit; the relevant strings never leave
    a five-qubit window.  Two-qubit closed chains prepare X on the partner
    qubit; four-qubit closed chains prepare X on all three other qubits.
    The products alternate the pair's own layers: the chain is a connected
    component of their CZ graph, so every CZ that touches a chain qubit is
    a chain edge, and the layers' other CZs leave its strings alone.
    """
    n = la.n
    first, second = chain.pair
    out = []
    for q in chain.bulk():
        if chain.kind == "closed" and len(chain.qubits) == 4:
            xs = [p for p in chain.qubits if p != q]
        else:
            xs = sorted(set(chain.neighbors_via(q).values()))
        xmask = 0
        for p in xs:
            xmask |= 1 << p
        prep = PauliString(n, xmask, 0)
        seq = [prep]
        cur = prep
        period = None
        for m in range(1, 9):
            cur = conjugate((la, lb)[(m - 1) % 2], cur)
            seq.append(cur)
            if m % 2 == 0 and cur.key() == prep.key():
                period = m
                break
        if period is None:
            raise RuntimeError("alternating sequence did not close within 8 steps")
        terms = tuple(
            ((first if m % 2 == 0 else second), seq[m], Fraction(1))
            for m in range(period)
        )
        nb = chain.neighbors_via(q)
        mu = FidelityFunction.ratio(
            (first, PauliString(n, 1 << nb[first], 0)),
            (second, PauliString(n, 1 << nb[second], 0)),
        )
        out.append(MlcbTarget(chain, q, prep, FidelityFunction(terms), mu))
    return out


@dataclass(frozen=True)
class MuExpression:
    """An unlearnable fidelity ratio written via one measured multi-layer
    product and learnable single-layer products (exact rational weights)."""

    qubit: int
    pair: tuple[str, str]
    target: MlcbTarget
    epsilon: Fraction
    learnable_terms: tuple[tuple[LearnableProduct, Fraction], ...]
    certificates: tuple[EquivalenceCertificate, EquivalenceCertificate]

    def mu_function(self) -> FidelityFunction:
        out = self.target.product.scaled(self.epsilon)
        for prod, coeff in self.learnable_terms:
            out = out + prod.function().scaled(coeff)
        return out


def _chain_cache_key(chain: Chain, topology: Topology, q: int):
    index = {g: i for i, g in enumerate(chain.qubits)}
    colors = tuple(lab == chain.pair[0] for _, lab in chain.edges)
    local_edges = tuple(
        sorted(
            (min(index[a], index[b]), max(index[a], index[b]))
            for a, b in topology.edges
            if a in index and b in index
        )
    )
    return (chain.kind, colors, local_edges, index[q])


def _mapped(
    fn: FidelityFunction, labels: dict[str, str], src, dst, n: int
) -> FidelityFunction:
    """`fn` on n qubits with each label l renamed labels[l] and the letter
    of qubit src[i] moved to qubit dst[i] (other qubits dropped)."""
    moves = tuple(zip(src, dst))
    terms = []
    for lab, p, g in fn.terms:
        x = z = 0
        for s, d in moves:
            x |= ((p.x_bits >> s) & 1) << d
            z |= ((p.z_bits >> s) & 1) << d
        terms.append((labels[lab], PauliString(n, x, z), g))
    return FidelityFunction(tuple(terms))


def mu_expression(
    target: MlcbTarget,
    topology: Topology,
    seed: int = 0,
    retries: int = 32,
    cache: dict | None = None,
) -> MuExpression:
    """Build the exact expression of mu_q through the chain's measured
    product, searching one certificate per layer on the chain-local model.

    Chain-local validity extends to the full device: every cross-boundary
    generator acts on a chain-supported string exactly like the weight-one
    generator at the boundary qubit, which the local space already contains.
    `cache` keeps the certificates across the calls of one caller (a plan).
    """
    if cache is None:
        cache = {}
    chain = target.chain
    n = topology.n
    key = _chain_cache_key(chain, topology, target.qubit)
    # Certificates are cached in chain-local, label-agnostic form ("0"/"1"
    # for the pair's first/second layer) so identical chain shapes from
    # different layer pairs share the search.
    relabel = {chain.pair[0]: "0", chain.pair[1]: "1"}
    qubits = chain.qubits
    k = len(qubits)
    if key not in cache:
        index = {g: i for i, g in enumerate(qubits)}
        gens = GeneratorSet(topology.induced(qubits))
        product = _mapped(target.product, relabel, qubits, range(k), k)
        mu = _mapped(target.mu, relabel, qubits, range(k), k)
        certs = []
        for which, lab in enumerate(chain.pair):
            loc = relabel[lab]
            layer_edges = tuple(
                (index[a], index[b]) for (a, b), elab in chain.edges if elab == lab
            )
            products = orbit_learnables(CliffordLayer(k, layer_edges, (), loc), gens)
            anchor = FidelityFunction(tuple(t for t in product.terms if t[0] == loc))
            tgt = FidelityFunction(tuple((l, p, abs(g)) for l, p, g in mu.terms if l == loc))
            certs.append(
                express_search(tgt, anchor, gens, products, seed=seed + which, retries=retries)
            )
        cache[key] = tuple(certs)
    cert1, cert2 = cache[key]
    if cert1.epsilon != -cert2.epsilon:
        raise NotEquivalentError(
            "layer certificates disagree on the product exponent; "
            "the measured product cannot isolate the ratio"
        )
    unlabel = {"0": chain.pair[0], "1": chain.pair[1]}

    def globalize(fn: FidelityFunction) -> FidelityFunction:
        return _mapped(fn, unlabel, range(k), qubits, n)

    gcerts = tuple(
        EquivalenceCertificate(
            globalize(c.f1),
            globalize(c.f2),
            c.epsilon,
            c.sigma,
            tuple(
                LearnableProduct(
                    unlabel[prod.label],
                    tuple(p for _, p, _ in globalize(prod.function()).terms),
                    prod.source,
                )
                for prod in c.basis_products
            ),
        )
        for c in (cert1, cert2)
    )
    terms: dict = {}
    for sgn, cert in zip((Fraction(1), Fraction(-1)), gcerts):
        for prod, coeff in zip(cert.basis_products, cert.sigma):
            k2 = prod.key
            if k2 in terms:
                terms[k2] = (terms[k2][0], terms[k2][1] + sgn * coeff)
            else:
                terms[k2] = (prod, sgn * coeff)
    return MuExpression(
        qubit=target.qubit,
        pair=chain.pair,
        target=target,
        epsilon=cert1.epsilon,
        learnable_terms=tuple((p, c) for p, c in terms.values() if c != 0),
        certificates=gcerts,
    )


# ---------------------------------------------------------------------------
# Reports


@dataclass
class LayerLearnability:
    label: str
    num_generators: int
    products: list[LearnableProduct]
    rank: int
    unlearnable_dof: int
    unlearnable_basis: list[PauliString]
    standard_singletons: list[PauliString]
    dressed_singletons: list[PauliString]
    independent_pair_constraints: int


def analyze_layer(layer: CliffordLayer, generators: GeneratorSet) -> LayerLearnability:
    products = orbit_learnables(layer, generators)
    rows = product_rows(generators, products)
    singles_std = [
        p.strings[0] for p in products if len(p.strings) == 1 and p.source == "standard"
    ]
    std_keys = {s.key() for s in singles_std}
    singles_dr = [
        p.strings[0]
        for p in products
        if len(p.strings) == 1 and p.source == "dressed" and p.strings[0].key() not in std_keys
    ]
    n_singleton_strings = len(std_keys | {s.key() for s in singles_dr})
    # The generator strings, in generator order, whose single fidelities
    # extend the product rows to full rank (the generators' own fidelities
    # have full rank), and the rows' rank, proven by its certificate.
    rank, taken = exactla.extend_to_full_rank(
        rows, generators.digit_overlaps(digits(generators.strings, layer.n))
    )
    basis = [generators.strings[i] for i in taken]
    if rank + len(basis) != len(generators):
        raise RuntimeError(f"layer {layer.label!r}: incomplete unlearnable basis")
    return LayerLearnability(
        label=layer.label,
        num_generators=len(generators),
        products=products,
        rank=rank,
        unlearnable_dof=len(generators) - rank,
        unlearnable_basis=basis,
        standard_singletons=singles_std,
        dressed_singletons=singles_dr,
        independent_pair_constraints=rank - n_singleton_strings,
    )


def mlcb_recovery(
    topology: Topology, layers: list[CliffordLayer]
) -> dict[int, tuple[int, int]]:
    """Per qubit: (number of covering layers l_q, ratios recovered by the
    multi-layer protocol).

    Scheduling one experiment per covering-consecutive layer pair makes the
    l_q - 1 consecutive ratios of every covered qubit measurable, which is
    all of them: the remaining pairings are products of consecutive ones.
    """
    return {
        q: (len(covering), len(covering) - 1)
        for q, covering in enumerate(covering_layers(layers, topology.n))
        if covering
    }
