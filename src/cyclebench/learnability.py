"""Learnability analysis of Pauli fidelities for Clifford layers.

Which functions of fidelities can cycle-benchmarking protocols determine
with multiplicative, SPAM-robust precision?  Orbit products (standard and
interleaved) span the learnable space; exact and modular rank tests
count it and complete it to full rank; a randomized row-elimination
search produces certificates expressing an unlearnable target through a
measured multi-layer product plus learnable terms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from . import exactla
from .layers import Chain, CliffordLayer, conjugate, digit_orbits, s_dressing
from .pauli import PauliString, digits, from_digits
from .spl import GeneratorSet, SplModel
from .topology import Topology


@dataclass(frozen=True)
class FidelityFunction:
    """A linear combination of log-fidelities: sum gamma * log f^L_alpha."""

    terms: tuple[tuple[str, PauliString, Fraction], ...]

    @classmethod
    def product(cls, label: str, strings) -> "FidelityFunction":
        return cls(tuple((label, s.unsigned(), Fraction(1)) for s in strings))

    @classmethod
    def ratio(cls, num: tuple[str, PauliString], den: tuple[str, PauliString]) -> "FidelityFunction":
        return cls(
            (
                (num[0], num[1].unsigned(), Fraction(1)),
                (den[0], den[1].unsigned(), Fraction(-1)),
            )
        )

    def evaluate_log(self, models: dict[str, SplModel]) -> float:
        return sum(
            float(g) * models[lab].log_fidelity(p) for lab, p, g in self.terms
        )

    def evaluate(self, models: dict[str, SplModel]) -> float:
        return float(np.exp(self.evaluate_log(models)))

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


@dataclass(frozen=True)
class LambdaSpace:
    """Concatenated rate space over an ordered set of layers."""

    labels: tuple[str, ...]
    generators: dict[str, GeneratorSet] = field(hash=False)

    @property
    def dim(self) -> int:
        return sum(len(self.generators[lab]) for lab in self.labels)

    def offsets(self) -> dict[str, int]:
        off, total = {}, 0
        for lab in self.labels:
            off[lab] = total
            total += len(self.generators[lab])
        return off

    def int_row(self, fn: FidelityFunction) -> np.ndarray:
        """The rate-space row of `fn` (sum of g * overlaps over its terms),
        scaled by the lcm of its denominators, in integers.

        With D the lcm of the coefficient denominators, R = sum (g D) *
        overlaps is D times the row, and R / gcd(D, R) is the row times the
        lcm of its own denominators (terms may cancel; a zero row stays 0).
        """
        den = lcm(*(g.denominator for _, _, g in fn.terms))
        weights = [int(g * den) for _, _, g in fn.terms]
        # Overlaps are 0 or 1, so int64 is exact below this bound.
        wide = sum(map(abs, weights)) >= 2**63
        out = np.zeros(self.dim, dtype=object if wide else np.int64)
        off = self.offsets()
        for lab in dict.fromkeys(lab for lab, _, _ in fn.terms):
            gens = self.generators[lab]
            idx = [i for i, (l, _, _) in enumerate(fn.terms) if l == lab]
            rows = gens.digit_overlaps(digits([fn.terms[i][1] for i in idx], gens.topology.n))
            w = np.array([weights[i] for i in idx], dtype=out.dtype)
            out[off[lab] : off[lab] + len(gens)] += w @ rows.astype(out.dtype)
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

    def key(self):
        return (self.label, frozenset(p.key() for p in self.strings))


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


class LearnableSpan:
    """Learnable-product rows over a rate space, echelonized lazily."""

    def __init__(self, space: LambdaSpace, products: list[LearnableProduct]):
        self.space = space
        self.products = list(products)
        self.rows = np.zeros((len(self.products), space.dim), dtype=np.int8)
        off = space.offsets()
        for lab in space.labels:
            idx = [i for i, p in enumerate(self.products) if p.label == lab]
            if idx:
                gens = space.generators[lab]
                block = product_rows(gens, [self.products[i] for i in idx])
                self.rows[idx, off[lab] : off[lab] + len(gens)] = block
        self._basis: exactla.SpanBasis | None = None

    @property
    def basis(self) -> exactla.SpanBasis:
        if self._basis is None:
            self._basis = exactla.SpanBasis(self.rows)
        return self._basis

    @property
    def rank(self) -> int:
        return self.basis.rank


@dataclass(frozen=True)
class EquivalenceCertificate:
    """log F1 = epsilon * log F2 + sum_i sigma_i * log F_i, exactly in lambda."""

    f1: FidelityFunction
    f2: FidelityFunction
    epsilon: Fraction
    sigma: tuple[Fraction, ...]
    learnable_basis: tuple[FidelityFunction, ...]
    basis_products: tuple[LearnableProduct, ...] = ()

    def residual_log(self, models: dict[str, SplModel]) -> float:
        val = self.f1.evaluate_log(models) - float(self.epsilon) * self.f2.evaluate_log(models)
        for s, fn in zip(self.sigma, self.learnable_basis):
            val -= float(s) * fn.evaluate_log(models)
        return val

    def combined_function(self) -> FidelityFunction:
        """f1 expressed as a single FidelityFunction of the RHS terms."""
        out = self.f2.scaled(self.epsilon)
        for s, fn in zip(self.sigma, self.learnable_basis):
            out = out + fn.scaled(s)
        return out


class NotEquivalentError(ValueError):
    pass


def express_search(
    target: FidelityFunction,
    anchor: FidelityFunction,
    span: LearnableSpan,
    seed: int = 0,
    retries: int = 32,
) -> EquivalenceCertificate:
    """Express `target` through `anchor` plus few learnable rows.

    Randomized greedy elimination over the learnable rows (runs modulo a
    31-bit prime for speed), then an exact rational solve on the surviving
    support; the returned certificate is verified symbolically, so a modular
    accident can only cost a retry, never correctness.
    """
    space = span.space
    t = space.int_row(target)
    row_a = space.int_row(anchor)
    cols = np.vstack([row_a, span.rows])
    rng = np.random.default_rng(seed)
    support = exactla.modular_support_search(cols, t, rng, retries)
    if support is None:
        raise NotEquivalentError("target is not expressible through the anchor and learnable rows")
    for attempt in range(3):
        coeffs = exactla.solve_rational([cols[i].tolist() for i in support], t.tolist())
        if coeffs is not None:
            break
        # Modular false positive: re-run with a fresh stream and fewer drops.
        support = exactla.modular_support_search(
            cols, t, np.random.default_rng(seed + 1000 + attempt), 1
        )
        if support is None:
            raise NotEquivalentError("target left the span on exact recheck")
    else:
        raise NotEquivalentError("exact solve failed after retries")
    eps = Fraction(0)
    sigma, basis_fns, basis_prods = [], [], []
    for idx, c in zip(support, coeffs):
        if idx == 0:
            eps = c
            continue
        if c == 0:
            continue
        prod = span.products[idx - 1]
        sigma.append(c)
        basis_fns.append(prod.function())
        basis_prods.append(prod)
    cert = EquivalenceCertificate(
        target, anchor, eps, tuple(sigma), tuple(basis_fns), tuple(basis_prods)
    )
    _verify_certificate(cert, space)
    return cert


def _verify_certificate(cert: EquivalenceCertificate, space: LambdaSpace) -> None:
    """f1 - epsilon f2 - sum sigma_i f_i must vanish exactly on the rate
    space; checked in integers, scaled by the lcm of all denominators."""
    terms = list(cert.f1.terms) + list(cert.f2.scaled(-cert.epsilon).terms)
    for s, fn in zip(cert.sigma, cert.learnable_basis):
        terms += fn.scaled(-s).terms
    if space.int_row(FidelityFunction(tuple(terms))).any():
        raise NotEquivalentError("certificate failed exact verification")


def pattern_transfer_unlearnable(
    layers,
    n: int | None = None,
    mode: str = "general",
    topology: Topology | None = None,
) -> int:
    """Count unlearnable degrees of freedom.

    "general" counts over all Pauli noise: 2^n - c with c the number of
    connected components of the pattern transfer graph (support patterns
    linked by conjugation; single-qubit dressing never changes a pattern).
    Guarded at n <= 8 since it enumerates 4^n strings.

    "spl" counts over the local model's generator-indexed fidelities: for
    each layer, |K| minus the rank of its learnable orbit-product rows,
    summed over the layers.
    """
    if isinstance(layers, CliffordLayer):
        layers = [layers]
    if mode == "general":
        if n is None:
            n = layers[0].n
        if n > 8:
            raise ValueError("general mode enumerates 4^n strings; n <= 8 required")
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
    if mode == "spl":
        if topology is None:
            raise ValueError("spl mode requires a topology")
        total = 0
        for layer in layers:
            gens = GeneratorSet(topology)
            span = LearnableSpan(
                LambdaSpace((layer.label,), {layer.label: gens}),
                orbit_learnables(layer, gens),
            )
            total += len(gens) - exactla.rank_checked(span.rows)
        return total
    raise ValueError(f"unknown mode {mode!r}")


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


def _chain_layers(chain: Chain, n: int) -> tuple[CliffordLayer, CliffordLayer]:
    first, second = chain.pair
    e1 = tuple(pair for pair, lab in chain.edges if lab == first)
    e2 = tuple(pair for pair, lab in chain.edges if lab == second)
    return (
        CliffordLayer(n, e1, (), first),
        CliffordLayer(n, e2, (), second),
    )


def mlcb_targets(chain: Chain, n: int) -> list[MlcbTarget]:
    """Per-bulk-qubit preparation strings and measured products for a chain.

    Open chains (and closed chains of six or more qubits) prepare X on the
    two chain neighbours of the bulk qubit; the relevant strings never leave
    a five-qubit window.  Two-qubit closed chains prepare X on the partner
    qubit; four-qubit closed chains prepare X on all three other qubits.
    """
    la, lb = _chain_layers(chain, n)
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
            cur = conjugate((la, lb)[(m - 1) % 2], cur).unsigned()
            seq.append(cur)
            if m % 2 == 0 and cur.key() == prep.key():
                period = m
                break
        if period is None:
            raise RuntimeError("alternating sequence did not close within 8 steps")
        terms = tuple(
            ((first if m % 2 == 0 else second), seq[m].unsigned(), Fraction(1))
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

    def evaluate(self, models: dict[str, SplModel]) -> float:
        return self.mu_function().evaluate(models)


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


def _localize(fn: FidelityFunction, index: dict[int, int], k: int) -> FidelityFunction:
    terms = []
    for lab, p, g in fn.terms:
        x = z = 0
        for gq, lq in index.items():
            x |= ((p.x_bits >> gq) & 1) << lq
            z |= ((p.z_bits >> gq) & 1) << lq
        terms.append((lab, PauliString(k, x, z), g))
    return FidelityFunction(tuple(terms))


def _globalize_string(p: PauliString, qubits: tuple[int, ...], n: int) -> PauliString:
    x = z = 0
    for lq, gq in enumerate(qubits):
        x |= ((p.x_bits >> lq) & 1) << gq
        z |= ((p.z_bits >> lq) & 1) << gq
    return PauliString(n, x, z)


def _globalize_product(prod: LearnableProduct, qubits, n) -> LearnableProduct:
    return LearnableProduct(
        prod.label,
        tuple(_globalize_string(p, qubits, n) for p in prod.strings),
        prod.source,
    )


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
    if key not in cache:
        qubits = chain.qubits
        index = {g: i for i, g in enumerate(qubits)}
        k = len(qubits)
        local_topo = topology.induced(qubits)
        gens = GeneratorSet(local_topo)
        certs = []
        for which, lab in enumerate(chain.pair):
            loc = relabel[lab]
            layer_edges = tuple(
                (index[a], index[b]) for (a, b), elab in chain.edges if elab == lab
            )
            layer = CliffordLayer(k, layer_edges, (), loc)
            span = LearnableSpan(
                LambdaSpace((loc,), {loc: gens}), orbit_learnables(layer, gens)
            )
            anchor = FidelityFunction(
                tuple(
                    (relabel[l], p, g)
                    for l, p, g in _localize(target.product, index, k).terms
                    if l == lab
                )
            )
            tgt = FidelityFunction(
                tuple(
                    (relabel[l], p, abs(g))
                    for l, p, g in _localize(target.mu, index, k).terms
                    if l == lab
                )
            )
            certs.append(express_search(tgt, anchor, span, seed=seed + which, retries=retries))
        cache[key] = tuple(certs)
    unlabel = {"0": chain.pair[0], "1": chain.pair[1]}
    cert1, cert2 = (_relabel_cert(c, unlabel) for c in cache[key])
    if cert1.epsilon != -cert2.epsilon:
        raise NotEquivalentError(
            "layer certificates disagree on the product exponent; "
            "the measured product cannot isolate the ratio"
        )
    terms: dict = {}
    for sgn, cert in ((Fraction(1), cert1), (Fraction(-1), cert2)):
        for prod, coeff in zip(cert.basis_products, cert.sigma):
            gprod = _globalize_product(prod, chain.qubits, n)
            k2 = gprod.key()
            if k2 in terms:
                terms[k2] = (terms[k2][0], terms[k2][1] + sgn * coeff)
            else:
                terms[k2] = (gprod, sgn * coeff)
    gcerts = tuple(
        EquivalenceCertificate(
            _globalize_fn(c.f1, chain.qubits, n),
            _globalize_fn(c.f2, chain.qubits, n),
            c.epsilon,
            c.sigma,
            tuple(_globalize_fn(f, chain.qubits, n) for f in c.learnable_basis),
            tuple(_globalize_product(p, chain.qubits, n) for p in c.basis_products),
        )
        for c in (cert1, cert2)
    )
    return MuExpression(
        qubit=target.qubit,
        pair=chain.pair,
        target=target,
        epsilon=cert1.epsilon,
        learnable_terms=tuple((p, c) for p, c in terms.values() if c != 0),
        certificates=gcerts,
    )


def _globalize_fn(fn: FidelityFunction, qubits, n) -> FidelityFunction:
    return FidelityFunction(
        tuple((lab, _globalize_string(p, qubits, n), g) for lab, p, g in fn.terms)
    )


def _relabel_fn(fn: FidelityFunction, mapping: dict[str, str]) -> FidelityFunction:
    return FidelityFunction(tuple((mapping[l], p, g) for l, p, g in fn.terms))


def _relabel_cert(cert: EquivalenceCertificate, mapping: dict[str, str]) -> EquivalenceCertificate:
    return EquivalenceCertificate(
        _relabel_fn(cert.f1, mapping),
        _relabel_fn(cert.f2, mapping),
        cert.epsilon,
        cert.sigma,
        tuple(_relabel_fn(f, mapping) for f in cert.learnable_basis),
        tuple(
            LearnableProduct(mapping[p.label], p.strings, p.source)
            for p in cert.basis_products
        ),
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
    rank = exactla.rank_checked(rows)
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
    # have full rank).
    singles = generators.digit_overlaps(digits(generators.strings, layer.n))
    basis = [generators.strings[i] for i in exactla.extend_to_full_rank(rows, singles)]
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
    supports = [layer.support() for layer in layers]
    out = {}
    for q in range(topology.n):
        l_q = sum(q in s for s in supports)
        if l_q:
            out[q] = (l_q, l_q - 1)
    return out
