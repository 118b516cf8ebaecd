"""End-to-end characterization pipeline: generate a random model, compute
every measurable (product of) fidelities, add Gaussian measurement noise,
fit rate vectors with and without the multi-layer data, and compare the
reconstructions to the truth."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fitting import RankDeficientError, distance_metrics, nnls, refine_unlearnable
from .layers import CliffordLayer, chain_decomposition, cz_partners
from .learnability import (
    LearnableProduct,
    MuExpression,
    NotEquivalentError,
    mlcb_targets,
    mu_expression,
    orbit_learnables,
    product_rows,
)
from .pauli import PauliString, digits
from .spl import GeneratorSet, RandomModelParams, SplModel, random_model
from .topology import Topology


# Largest cond(S^T S) whose inverse Gram the fits use: the Schur solves'
# gradient error grows like cond^2 eps, which one refinement step absorbs
# well below this bound.  Worse-conditioned layers fit by factoring.
MAX_INV_GRAM_COND = 1e6


@dataclass
class MuPlanEntry:
    qubit: int
    pair: tuple[str, str]
    epsilon: float
    product_terms: tuple[tuple[str, PauliString], ...]
    learn_refs: tuple[tuple[str, int, float], ...]  # (label, high-row index, coeff)
    expression: MuExpression


@dataclass
class CharacterizationPlan:
    """Model-independent description of one characterization campaign.

    Holds the learnable-product rows, the low-accuracy single-fidelity
    targets, and the multi-layer ratio expressions with their certificates;
    building it once amortizes the certificate searches across a sweep.
    """

    topology: Topology
    layers: list[CliffordLayer]
    generators: GeneratorSet
    products: dict[str, list[LearnableProduct]]
    # S = [s_high; s_low] per layer, the fit matrix; s_high and s_low are
    # row views of it.
    s_fit: dict[str, np.ndarray]
    s_high: dict[str, np.ndarray]
    low_qubits: dict[str, list[int]]  # gate qubits, in order, per layer
    s_low: dict[str, np.ndarray]
    # (S^T S)^-1 of S = [s_high; s_low] per full-rank layer with
    # cond(S^T S) <= MAX_INV_GRAM_COND, for nnls.
    inv_gram: dict[str, np.ndarray]
    # Per layer whose S lacks full column rank: (rank, unconstrained generators).
    unconstrained: dict[str, tuple[int, list[str]]]
    symmetry_row: dict[str, list[int]]  # per low target: index of its orbit product
    mu_entries: list[MuPlanEntry]
    # Per layer: the overlap rows of every ratio entry's product terms in
    # that layer, with each row's entry index.
    ratio_rows: dict[str, tuple[np.ndarray, np.ndarray]]
    # mu_hat's references: epsilon per entry and, per layer, the (entry,
    # high-row index, coefficient) arrays of every learn_refs item.
    mu_epsilon: np.ndarray
    mu_refs: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]
    # Per qubit covered by two or more layers: the covering labels, in
    # order, and the low-row index of the qubit's partner in each.
    low_clusters: list[tuple[int, tuple[str, ...], tuple[int, ...]]]
    mu_failures: int = 0

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(layer.label for layer in self.layers)


def build_plan(
    topology: Topology,
    layers: list[CliffordLayer],
    seed: int = 0,
    retries: int = 16,
) -> CharacterizationPlan:
    gens = GeneratorSet(topology)
    products: dict[str, list[LearnableProduct]] = {}
    s_fit: dict[str, np.ndarray] = {}
    s_high: dict[str, np.ndarray] = {}
    low_qubits: dict[str, list[int]] = {}
    s_low: dict[str, np.ndarray] = {}
    inv_gram: dict[str, np.ndarray] = {}
    unconstrained: dict[str, tuple[int, list[str]]] = {}
    symmetry_row: dict[str, list[int]] = {}
    key_index: dict[str, dict] = {}
    for layer in layers:
        lab = layer.label
        prods = orbit_learnables(layer, gens)
        products[lab] = prods
        rows = product_rows(gens, prods)
        key_index[lab] = {prod.key()[1]: i for i, prod in enumerate(prods)}
        qubits = sorted(q for pair in layer.cz_pairs for q in pair)
        low_qubits[lab] = qubits
        singles = [PauliString.single(topology.n, q, "X") for q in qubits]
        lrows = gens.digit_overlaps(digits(singles, topology.n))
        # Standard orbits are disjoint: each single fidelity lies in one.
        standard = {
            s.key(): i for i, p in enumerate(prods) if p.source == "standard" for s in p.strings
        }
        symmetry_row[lab] = [standard[alpha.key()] for alpha in singles]
        stacked = s_fit[lab] = np.vstack([rows, lrows])
        s_high[lab], s_low[lab] = stacked[: len(rows)], stacked[len(rows) :]
        # Integer entries far below 2**53, so the float product is exact.
        floats = stacked.astype(float)
        g = floats.T @ floats
        del floats  # freed before the inverse's workspace: lower peak RSS
        rank, cond = gram_rank(g)
        if rank < len(g):
            unconstrained[lab] = null_generators(g, gens)
        elif cond <= MAX_INV_GRAM_COND:
            inv_gram[lab] = np.linalg.inv(g)
    mu_entries: list[MuPlanEntry] = []
    failures = 0
    # Chain-shape certificates shared by this plan's layer pairs only, so a
    # plan never depends on the plans built before it.
    certificates: dict = {}
    pairs, wanted = covering_pairs(topology, layers)
    index_of = {layer.label: i for i, layer in enumerate(layers)}
    by_label = {layer.label: layer for layer in layers}
    for pair in pairs:
        la, lb = by_label[pair[0]], by_label[pair[1]]
        for chain in chain_decomposition(la, lb):
            for target in mlcb_targets(chain, topology.n):
                if (target.qubit, pair) not in wanted:
                    continue
                try:
                    expr = mu_expression(
                        target,
                        topology,
                        seed=seed + index_of[pair[0]],
                        retries=retries,
                        cache=certificates,
                    )
                except NotEquivalentError:
                    failures += 1
                    continue
                refs = []
                for prod, coeff in expr.learnable_terms:
                    row = key_index[prod.label][prod.key()[1]]
                    refs.append((prod.label, row, float(coeff)))
                mu_entries.append(
                    MuPlanEntry(
                        qubit=target.qubit,
                        pair=chain.pair,
                        epsilon=float(expr.epsilon),
                        product_terms=tuple(
                            (l, p) for l, p, _ in target.product.terms
                        ),
                        learn_refs=tuple(refs),
                        expression=expr,
                    )
                )
    ratio_rows, mu_refs = _ratio_arrays(gens, layers, mu_entries)
    low_clusters = []
    partner, _ = cz_partners(layers, topology.n)
    for q in range(topology.n):
        covering = [i for i, layer in enumerate(layers) if q in layer.support()]
        if len(covering) > 1:
            low_clusters.append((
                q,
                tuple(layers[i].label for i in covering),
                tuple(low_qubits[layers[i].label].index(partner[i, q]) for i in covering),
            ))
    return CharacterizationPlan(
        topology=topology,
        layers=list(layers),
        generators=gens,
        products=products,
        s_fit=s_fit,
        s_high=s_high,
        low_qubits=low_qubits,
        s_low=s_low,
        inv_gram=inv_gram,
        unconstrained=unconstrained,
        symmetry_row=symmetry_row,
        mu_entries=mu_entries,
        ratio_rows=ratio_rows,
        mu_epsilon=np.array([e.epsilon for e in mu_entries], dtype=float),
        mu_refs=mu_refs,
        low_clusters=low_clusters,
        mu_failures=failures,
    )


def _ratio_arrays(gens: GeneratorSet, layers, mu_entries):
    """Per layer: (the overlap rows of the ratio entries' product terms in
    the layer, their entry indices), and (entry, high-row index,
    coefficient) of the entries' learn_refs items in the layer."""
    ratio_rows, mu_refs = {}, {}
    for layer in layers:
        lab = layer.label
        terms = [
            (e, p) for e, entry in enumerate(mu_entries)
            for l, p in entry.product_terms if l == lab
        ]
        rows = gens.digit_overlaps(digits([p for _, p in terms], gens.topology.n))
        ratio_rows[lab] = (rows, np.array([e for e, _ in terms], dtype=np.intp))
        refs = [
            (e, row, coeff) for e, entry in enumerate(mu_entries)
            for l, row, coeff in entry.learn_refs if l == lab
        ]
        mu_refs[lab] = (
            np.array([e for e, _, _ in refs], dtype=np.intp),
            np.array([row for _, row, _ in refs], dtype=np.intp),
            np.array([coeff for _, _, coeff in refs], dtype=float),
        )
    return ratio_rows, mu_refs


def gram_rank(gram: np.ndarray) -> tuple[int, float]:
    """Numerical rank of a symmetric Gram matrix, with the tolerance of
    `np.linalg.matrix_rank(gram, hermitian=True)`, and its condition number
    (inf when the rank is not full), from one eigenvalue decomposition."""
    s = np.abs(np.linalg.eigvalsh(gram))
    top = s.max(initial=0.0)
    rank = int(np.count_nonzero(s > top * len(gram) * np.finfo(float).eps))
    return rank, (top / s.min() if rank == len(gram) else np.inf)


def null_generators(gram: np.ndarray, gens: GeneratorSet) -> tuple[int, list[str]]:
    """Numerical rank of a fit matrix's Gram and the generators whose rates
    it leaves undetermined: those with weight in the null-space eigenvectors,
    most weight first (none when the rank is full)."""
    rank = gram_rank(gram)[0]
    if rank == len(gram):
        return rank, []
    _, vecs = np.linalg.eigh(gram)  # ascending eigenvalues
    weight = np.square(vecs[:, : len(gram) - rank]).sum(axis=1)
    order = np.argsort(-weight, kind="stable")
    return rank, [gens.strings[i].label() for i in order if weight[i] > 1e-9]


def covering_pairs(topology: Topology, layers: list[CliffordLayer]):
    """Layer pairs the multi-layer protocol must run.

    Each qubit q covered by layers (L_1, ..., L_l) (in configuration order)
    needs the l-1 ratios of consecutive covering layers, so every pair that
    is covering-consecutive for some qubit is scheduled.  Returns the pair
    list and the wanted (qubit, pair) combinations.
    """
    supports = [layer.support() for layer in layers]
    labels = [layer.label for layer in layers]
    pairs: list[tuple[str, str]] = []
    wanted: set[tuple[int, tuple[str, str]]] = set()
    for q in range(topology.n):
        covering = [i for i, s in enumerate(supports) if q in s]
        for a, b in zip(covering, covering[1:]):
            pair = (labels[a], labels[b])
            if pair not in pairs:
                pairs.append(pair)
            wanted.add((q, pair))
    return pairs, wanted


def generate_models(
    plan: CharacterizationPlan,
    rng: np.random.Generator,
    params: RandomModelParams = RandomModelParams(),
) -> dict[str, SplModel]:
    return {
        layer.label: random_model(plan.generators, layer, params, rng)
        for layer in plan.layers
    }


@dataclass
class RunResult:
    delta: dict[str, float]
    fitted: dict[str, dict[str, np.ndarray]]  # pipeline -> label -> lambdas
    ratio: float | None
    fit_meta: dict[str, dict[str, dict]] = field(default_factory=dict)

    @property
    def delta_c(self) -> float:
        return self.delta.get("conventional", float("nan"))

    @property
    def delta_m(self) -> float:
        return self.delta.get("mlcb", float("nan"))


@dataclass
class NoisyRecords:
    """One model's simulated measurements.

    `high`: every orbit product per layer, with its Gaussian noise and
    unclipped; `low`: the low-accuracy single-fidelity estimates per layer,
    in `plan.low_qubits` order; `ratio_products`: each ratio entry's noisy
    multi-layer product, in `plan.mu_entries` order.
    """

    high: dict[str, np.ndarray]
    low: dict[str, np.ndarray]
    ratio_products: np.ndarray


def noisy_records(
    plan: CharacterizationPlan,
    models: dict[str, SplModel],
    sigma: float,
    sigma_prime: float,
    baseline: str,
    rng: np.random.Generator,
) -> NoisyRecords:
    """Step (ii): the noisy measured data of one noise model.

    The `symmetry` baseline estimates each single fidelity as the square
    root of its clipped orbit product; `unit_depth` measures it directly
    with noise `sigma_prime`, clipped into (0, 1].
    """
    if baseline not in ("symmetry", "unit_depth"):
        raise ValueError(f"unknown baseline {baseline!r}")
    high: dict[str, np.ndarray] = {}
    low: dict[str, np.ndarray] = {}
    for lab in plan.labels:
        lam = models[lab].lambdas
        # einsum reads the int8 rows without a float copy.
        exact = np.exp(-2.0 * np.einsum("ij,j->i", plan.s_high[lab], lam))
        noisy = exact + (rng.normal(0.0, sigma, exact.shape) if sigma > 0 else 0.0)
        high[lab] = noisy
        if baseline == "symmetry":
            prods = np.clip(noisy[plan.symmetry_row[lab]], 1e-12, 1.0)
            low[lab] = np.sqrt(prods)
        else:
            exact_low = np.exp(-2.0 * np.einsum("ij,j->i", plan.s_low[lab], lam))
            noise = (
                rng.normal(0.0, sigma_prime, exact_low.shape)
                if sigma_prime > 0
                else 0.0
            )
            low[lab] = np.clip(exact_low + noise, 1e-12, 1.0)
    # Sum over every entry's product terms of <alpha, lambda>, layer by layer.
    overlap = np.zeros(len(plan.mu_entries))
    for lab, (rows, entry) in plan.ratio_rows.items():
        terms = np.einsum("ij,j->i", rows, models[lab].lambdas)
        overlap += np.bincount(entry, terms, minlength=len(overlap))
    exact = np.exp(-2.0 * overlap)
    # One draw in entry order: the same stream as one draw per entry.
    noise = rng.normal(0.0, sigma, exact.shape) if sigma > 0 else 0.0
    return NoisyRecords(high=high, low=low, ratio_products=exact + noise)


def estimate_mu(
    plan: CharacterizationPlan, records: NoisyRecords
) -> dict[tuple[int, tuple[str, str]], float]:
    """mu_hat per (qubit, pair) of every ratio entry whose noisy product
    o_noisy is positive and finite and whose mu_hat is finite and positive:
    o_noisy^epsilon times the powers of its learnable products (each
    clipped at 1e-12), from the plan's arrays in one pass.  The other
    entries count as unmeasured."""
    o_noisy = records.ratio_products
    measured = np.isfinite(o_noisy) & (o_noisy > 0)
    log_mu = plan.mu_epsilon * np.log(np.where(measured, o_noisy, 1.0))
    for lab, (entry, row, coeff) in plan.mu_refs.items():
        logs = np.log(np.maximum(records.high[lab][row], 1e-12))
        log_mu += np.bincount(entry, coeff * logs, minlength=len(log_mu))
    with np.errstate(over="ignore"):
        mu = np.exp(log_mu)
    measured &= np.isfinite(mu) & (mu > 0)
    return {
        (e.qubit, e.pair): float(v)
        for e, v, ok in zip(plan.mu_entries, mu, measured)
        if ok
    }


def characterize_and_fit(
    plan: CharacterizationPlan,
    models: dict[str, SplModel],
    sigma: float,
    sigma_prime: float,
    baseline: str,
    rng: np.random.Generator,
    pipelines: tuple[str, ...] = ("conventional", "mlcb"),
) -> RunResult:
    """Steps (ii)-(v) for one noise model: noisy records, both fits, L1
    distances and their ratio.

    Every record row weighs the same, matching the published nonnegative
    least-squares objective.  A plan with a rank-deficient layer raises
    RankDeficientError: its fits would not determine the rates.
    """
    records = noisy_records(plan, models, sigma, sigma_prime, baseline, rng)
    if plan.unconstrained:
        raise RankDeficientError("; ".join(
            f"layer {lab!r} fit matrix has rank {rank} < {len(plan.generators)}, "
            f"unconstrained generators include {' '.join(names[:4])}"
            for lab, (rank, names) in plan.unconstrained.items()
        ))
    labels = plan.labels
    for lab in labels:
        if not (np.isfinite(records.high[lab]).all() and np.isfinite(records.low[lab]).all()):
            raise RuntimeError(f"non-finite noisy record on layer {lab!r}")
    mu_hat = estimate_mu(plan, records)
    rhs_low = {
        pipeline: _refined_low(plan, records.low, mu_hat) if pipeline == "mlcb" else records.low
        for pipeline in pipelines
    }
    fitted: dict[str, dict[str, np.ndarray]] = {p: {} for p in pipelines}
    fit_meta: dict[str, dict[str, dict]] = {p: {} for p in pipelines}
    # One float64 copy of each layer's S per call, shared by the pipelines'
    # fits, so that nnls multiplies by BLAS.  The buffer lives for this call
    # only: the allocator reuses it from call to call.
    rows = max((len(plan.s_fit[lab]) for lab in labels), default=0)
    workspace = np.empty((rows, len(plan.generators)))
    for lab in labels:
        s = plan.s_fit[lab]
        a = workspace[: len(s)]
        np.copyto(a, s)
        log_high = np.log(np.clip(records.high[lab], 1e-12, None))
        for pipeline in pipelines:
            rhs = -0.5 * np.concatenate([log_high, np.log(rhs_low[pipeline][lab])])
            fit = nnls(a, rhs, inv_gram=plan.inv_gram.get(lab))
            fitted[pipeline][lab] = fit.lambdas
            fit_meta[pipeline][lab] = {
                "residual_norm": fit.residual_norm,
                "kkt_residual": fit.kkt_residual,
                "iterations": fit.iterations,
            }
    delta = {pipeline: distance_metrics(models, fitted[pipeline]) for pipeline in pipelines}
    ratio = None
    if "conventional" in delta and "mlcb" in delta and delta["conventional"] > 0:
        ratio = delta["mlcb"] / delta["conventional"]
    return RunResult(delta=delta, fitted=fitted, ratio=ratio, fit_meta=fit_meta)


def _refined_low(
    plan: CharacterizationPlan,
    low_est: dict[str, np.ndarray],
    mu_hat: dict[tuple[int, tuple[str, str]], float],
) -> dict[str, np.ndarray]:
    """Impose the measured ratios on the low-accuracy estimates, one bulk
    qubit cluster at a time (consecutive covering layers with a ratio)."""
    refined = {lab: low_est[lab].copy() for lab in plan.labels}
    for q, covering, idxs in plan.low_clusters:
        start = 0
        for end in range(1, len(covering) + 1):
            if end < len(covering) and (q, covering[end - 1 : end + 1]) in mu_hat:
                continue
            run = range(start, end)
            start = end
            if len(run) < 2:
                continue
            estimates = [float(low_est[covering[j]][idxs[j]]) for j in run]
            ratios = [mu_hat[(q, covering[j : j + 2])] for j in run[:-1]]
            values = refine_unlearnable(estimates, ratios)
            for j, v in zip(run, values):
                refined[covering[j]][idxs[j]] = min(max(v, 1e-12), 1.0)
    return refined


_PLAN_CACHE: dict = {}


def cached_plan(topology: Topology, layers: list[CliffordLayer], **kw) -> CharacterizationPlan:
    key = (
        topology.n,
        topology.edges,
        tuple(layers),
        tuple(sorted(kw.items())),
    )
    if key not in _PLAN_CACHE:
        _PLAN_CACHE[key] = build_plan(topology, layers, **kw)
    return _PLAN_CACHE[key]


def model_rng(master_seed: int, index: int) -> np.random.Generator:
    """Deterministic per-item generator; independent of execution order."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    )


def sweep_item(
    plan: CharacterizationPlan,
    master_seed: int,
    index: int,
    sigma: float,
    sigma_prime: float,
    baseline: str,
    params: RandomModelParams = RandomModelParams(),
    pipelines: tuple[str, ...] = ("conventional", "mlcb"),
) -> tuple[dict[str, SplModel], RunResult]:
    rng = model_rng(master_seed, index)
    models = generate_models(plan, rng, params)
    result = characterize_and_fit(
        plan, models, sigma, sigma_prime, baseline, rng, pipelines
    )
    return models, result
