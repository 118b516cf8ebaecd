"""End-to-end characterization pipeline: generate a random model, compute
every measurable (product of) fidelities, add Gaussian measurement noise,
fit rate vectors with and without the multi-layer data, and compare the
reconstructions to the truth."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exactla
from .fitting import RankDeficientError, distance_metrics, nnls, refine_unlearnable
from .layers import CliffordLayer, chain_decomposition, covering_layers, cz_partners
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
from .spl import GeneratorSet, SplModel, random_model
from .topology import Topology


# Largest ||G||_inf ||G^-1||_inf of a layer's Gram matrix G = S^T S whose
# inverse is kept without further work.  Above it `classify_gram` decides
# the rank of S exactly; every full-rank layer keeps its inverse, and the
# fits' KKT check rejects one that the inverse cannot carry.
MAX_INV_GRAM_COND = 1e6


@dataclass
class MuPlanEntry:
    qubit: int
    pair: tuple[str, str]
    expression: MuExpression


@dataclass(frozen=True, eq=False)
class LayerPlan:
    """One layer's part of a plan: its orbit products, and its int8 fit
    matrix S whose first `n_high` rows are their overlap rows and whose
    other rows are the low-accuracy single fidelities on `low_qubits`, each
    lying in orbit product `symmetry_row[i]`.  `inv_gram` is (S^T S)^-1 for
    nnls when S has full column rank, and `unconstrained` is None; else
    `inv_gram` is None and `unconstrained` is S's certified rank and the
    generators that `classify_gram` finds unconstrained.  `ratio_rows`
    holds the overlap rows of the ratio entries' product terms in this
    layer with each row's entry index, and `mu_refs` the (entry, high-row
    index, coefficient) arrays of the entries' learnable terms in this
    layer."""

    layer: CliffordLayer
    products: list[LearnableProduct]
    s: np.ndarray
    n_high: int
    low_qubits: list[int]
    symmetry_row: list[int]
    inv_gram: np.ndarray | None
    unconstrained: tuple[int, list[str]] | None
    ratio_rows: tuple[np.ndarray, np.ndarray]
    mu_refs: tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class CharacterizationPlan:
    """Model-independent description of one characterization campaign.

    Holds one LayerPlan per layer, in configuration order, and the
    multi-layer ratio expressions with their certificates; building it once
    amortizes the certificate searches across a sweep.
    """

    topology: Topology
    generators: GeneratorSet
    layers: dict[str, LayerPlan]
    mu_entries: list[MuPlanEntry]
    mu_epsilon: np.ndarray  # per ratio entry
    # Per qubit covered by two or more layers: the covering labels, in
    # order, and the low-row index of the qubit's partner in each.
    low_clusters: list[tuple[int, tuple[str, ...], tuple[int, ...]]]
    mu_failures: int = 0

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.layers)


def build_plan(
    topology: Topology,
    layers: list[CliffordLayer],
    seed: int = 0,
    retries: int = 16,
) -> CharacterizationPlan:
    """The ratio expressions first, then one LayerPlan per layer, built in
    one pass with its share of the entries' terms."""
    gens = GeneratorSet(topology)
    expressions, failures = ratio_expressions(topology, layers, seed, retries)
    # Each entry's measured product terms and learnable terms, by layer.
    terms = {layer.label: [] for layer in layers}
    refs = {layer.label: [] for layer in layers}
    for e, expr in enumerate(expressions):
        for l, p, _ in expr.target.product.terms:
            terms[l].append((e, p))
        for prod, coeff in expr.learnable_terms:
            refs[prod.label].append((e, prod.key[1], float(coeff)))
    plans: dict[str, LayerPlan] = {}
    for layer in layers:
        lab = layer.label
        prods = orbit_learnables(layer, gens)
        rows = product_rows(gens, prods)
        qubits = sorted(q for pair in layer.cz_pairs for q in pair)
        singles = [PauliString.single(topology.n, q, "X") for q in qubits]
        lrows = gens.digit_overlaps(digits(singles, topology.n))
        # Standard orbits are disjoint: each single fidelity lies in one.
        standard = {
            s.key(): i for i, p in enumerate(prods) if p.source == "standard" for s in p.strings
        }
        stacked = np.vstack([rows, lrows])
        inv, deficient = classify_gram(stacked, gens, lab)
        # Each product of the plan is looked up once here, so its string set
        # is not cached on it (`LearnableProduct.key` would keep it).
        row_of = {frozenset(prod.strings): i for i, prod in enumerate(prods)}
        plans[lab] = LayerPlan(
            layer=layer,
            products=prods,
            s=stacked,
            n_high=len(rows),
            low_qubits=qubits,
            symmetry_row=[standard[alpha.key()] for alpha in singles],
            inv_gram=inv,
            unconstrained=deficient,
            ratio_rows=(
                gens.digit_overlaps(digits([p for _, p in terms[lab]], topology.n)),
                np.array([e for e, _ in terms[lab]], dtype=np.intp),
            ),
            mu_refs=(
                np.array([e for e, _, _ in refs[lab]], dtype=np.intp),
                np.array([row_of[key] for _, key, _ in refs[lab]], dtype=np.intp),
                np.array([coeff for _, _, coeff in refs[lab]], dtype=float),
            ),
        )
    low_clusters = []
    partner, _ = cz_partners(layers, topology.n)
    for q, covering in enumerate(covering_layers(layers, topology.n)):
        if len(covering) > 1:
            low_clusters.append((
                q,
                tuple(layers[i].label for i in covering),
                tuple(plans[layers[i].label].low_qubits.index(partner[i, q]) for i in covering),
            ))
    return CharacterizationPlan(
        topology=topology,
        generators=gens,
        layers=plans,
        mu_entries=[MuPlanEntry(expr.qubit, expr.pair, expr) for expr in expressions],
        mu_epsilon=np.array([float(expr.epsilon) for expr in expressions], dtype=float),
        low_clusters=low_clusters,
        mu_failures=failures,
    )


def ratio_expressions(
    topology: Topology, layers: list[CliffordLayer], seed: int, retries: int
) -> tuple[list[MuExpression], int]:
    """The exact expression of every ratio the multi-layer protocol
    measures, in schedule order, and the number of ratios whose certificate
    search failed.

    Chain-shape certificates are shared by this call's layer pairs only, so
    the result never depends on the calls made before it.
    """
    expressions: list[MuExpression] = []
    failures = 0
    certificates: dict = {}
    pairs, wanted = covering_pairs(topology, layers)
    index_of = {layer.label: i for i, layer in enumerate(layers)}
    by_label = {layer.label: layer for layer in layers}
    for pair in pairs:
        la, lb = by_label[pair[0]], by_label[pair[1]]
        for chain in chain_decomposition(la, lb):
            for target in mlcb_targets(chain, la, lb):
                if (target.qubit, pair) not in wanted:
                    continue
                try:
                    expressions.append(mu_expression(
                        target,
                        topology,
                        seed=seed + index_of[pair[0]],
                        retries=retries,
                        cache=certificates,
                    ))
                except NotEquivalentError:
                    failures += 1
    return expressions, failures


def classify_gram(
    s: np.ndarray, gens: GeneratorSet, label: str
) -> tuple[np.ndarray | None, tuple[int, list[str]] | None]:
    """(G^-1 or None, (rank, unconstrained generators) or None) of the Gram
    matrix G = S^T S of layer `label`'s integer fit matrix S over `gens`.

    G is inverted once.  When ||G||_inf ||G^-1||_inf, an upper bound on
    cond_2(G), is at most MAX_INV_GRAM_COND, the inverse is kept and
    nothing else runs.  Otherwise `exactla` decides the rank of S, proven
    by its certificate, as `learnability.analyze_layer` does: a full-rank
    layer keeps its inverse whatever its condition, and raises RuntimeError
    if the inverse failed or is not finite.  A rank-deficient layer keeps
    no inverse, and its unconstrained generators are those, in generator
    order, whose unit rows extend the rows of S to full rank."""
    # Integer entries far below 2**53, so the float product is exact.
    floats = s.astype(float)
    gram = floats.T @ floats
    del floats  # freed before the inverse's workspace: lower peak RSS
    try:
        inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        inv = None
    else:
        bound = np.abs(gram).sum(axis=1).max() * np.abs(inv).sum(axis=1).max()
        if bound <= MAX_INV_GRAM_COND:
            return inv, None
    k = s.shape[1]
    rank_p0, taken = exactla.extend_to_full_rank(s, np.eye(k, dtype=np.int8))
    rank = exactla.rank_checked(s, rank_p0)
    if rank + len(taken) != k:
        raise RuntimeError(f"layer {label!r}: incomplete set of unconstrained generators")
    if rank < k:
        return None, (rank, [gens.strings[i].label() for i in taken])
    if inv is None or not np.isfinite(inv).all():
        raise RuntimeError(f"layer {label!r}: full-rank fit matrix has no finite inverse Gram")
    return inv, None


def covering_pairs(topology: Topology, layers: list[CliffordLayer]):
    """Layer pairs the multi-layer protocol must run.

    Each qubit q covered by layers (L_1, ..., L_l) (in configuration order)
    needs the l-1 ratios of consecutive covering layers, so every pair that
    is covering-consecutive for some qubit is scheduled.  Returns the pair
    list and the wanted (qubit, pair) combinations.
    """
    labels = [layer.label for layer in layers]
    pairs: list[tuple[str, str]] = []
    wanted: set[tuple[int, tuple[str, str]]] = set()
    for q, covering in enumerate(covering_layers(layers, topology.n)):
        for a, b in zip(covering, covering[1:]):
            pair = (labels[a], labels[b])
            if pair not in pairs:
                pairs.append(pair)
            wanted.add((q, pair))
    return pairs, wanted


def generate_models(plan: CharacterizationPlan, rng: np.random.Generator) -> dict[str, SplModel]:
    return {lab: random_model(plan.generators, lp.layer, rng) for lab, lp in plan.layers.items()}


@dataclass
class RunResult:
    # L1 distances of the conventional and the multi-layer (mlcb) fits.
    delta_c: float
    delta_m: float
    fitted: dict[str, dict[str, np.ndarray]]  # pipeline -> label -> lambdas
    fit_meta: dict[str, dict[str, dict]]  # pipeline -> label -> nnls diagnostics
    ratio: float | None  # delta_m / delta_c; None when delta_c is 0


@dataclass
class NoisyRecords:
    """One model's simulated measurements.

    `high`: every orbit product per layer, with its Gaussian noise and
    unclipped; `low`: the low-accuracy single-fidelity estimates per layer,
    in `LayerPlan.low_qubits` order; `ratio_products`: each ratio entry's noisy
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
    for lab, lp in plan.layers.items():
        lam = models[lab].lambdas
        # einsum reads the int8 rows without a float copy.
        exact = np.exp(-2.0 * np.einsum("ij,j->i", lp.s[: lp.n_high], lam))
        noisy = exact + (rng.normal(0.0, sigma, exact.shape) if sigma > 0 else 0.0)
        high[lab] = noisy
        if baseline == "symmetry":
            prods = np.clip(noisy[lp.symmetry_row], 1e-12, 1.0)
            low[lab] = np.sqrt(prods)
        else:
            exact_low = np.exp(-2.0 * np.einsum("ij,j->i", lp.s[lp.n_high :], lam))
            noise = (
                rng.normal(0.0, sigma_prime, exact_low.shape)
                if sigma_prime > 0
                else 0.0
            )
            low[lab] = np.clip(exact_low + noise, 1e-12, 1.0)
    # Sum over every entry's product terms of <alpha, lambda>, layer by layer.
    overlap = np.zeros(len(plan.mu_entries))
    for lab, lp in plan.layers.items():
        rows, entry = lp.ratio_rows
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
    for lab, lp in plan.layers.items():
        entry, row, coeff = lp.mu_refs
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
) -> RunResult:
    """Steps (ii)-(v) for one noise model: noisy records, both fits, L1
    distances and their ratio.

    Every record row weighs the same, matching the published nonnegative
    least-squares objective.  A plan with a rank-deficient layer raises
    RankDeficientError: its fits would not determine the rates.  A fit
    whose relative KKT residual exceeds 1e-10 raises RuntimeError.
    """
    records = noisy_records(plan, models, sigma, sigma_prime, baseline, rng)
    deficient = [(lab, lp.unconstrained) for lab, lp in plan.layers.items() if lp.unconstrained]
    if deficient:
        raise RankDeficientError("; ".join(
            f"layer {lab!r} fit matrix has rank {rank} < {len(plan.generators)}, "
            f"unconstrained generators include {' '.join(names[:4])}"
            for lab, (rank, names) in deficient
        ))
    for lab in plan.labels:
        if not (np.isfinite(records.high[lab]).all() and np.isfinite(records.low[lab]).all()):
            raise RuntimeError(f"non-finite noisy record on layer {lab!r}")
    low = {
        "conventional": records.low,
        "mlcb": _refined_low(plan, records.low, estimate_mu(plan, records)),
    }
    fitted: dict[str, dict[str, np.ndarray]] = {p: {} for p in low}
    fit_meta: dict[str, dict[str, dict]] = {p: {} for p in low}
    # One float64 copy of each layer's S per call, shared by the pipelines'
    # fits, so that nnls multiplies by BLAS.  The buffer lives for this call
    # only: the allocator reuses it from call to call.
    rows = max((len(lp.s) for lp in plan.layers.values()), default=0)
    workspace = np.empty((rows, len(plan.generators)))
    for lab, lp in plan.layers.items():
        a = workspace[: len(lp.s)]
        np.copyto(a, lp.s)
        log_high = np.log(np.clip(records.high[lab], 1e-12, None))
        for pipeline, low_est in low.items():
            rhs = -0.5 * np.concatenate([log_high, np.log(low_est[lab])])
            fit = nnls(a, rhs, inv_gram=lp.inv_gram)
            if not fit.kkt_residual <= 1e-10:  # the fit contract; NaN fails it too
                raise RuntimeError(
                    f"layer {lab!r} {pipeline} fit has relative KKT residual {fit.kkt_residual:.3g} > 1e-10"
                )
            fitted[pipeline][lab] = fit.lambdas
            fit_meta[pipeline][lab] = {
                "residual_norm": fit.residual_norm,
                "kkt_residual": fit.kkt_residual,
                "iterations": fit.iterations,
            }
    delta_c = distance_metrics(models, fitted["conventional"])
    delta_m = distance_metrics(models, fitted["mlcb"])
    ratio = delta_m / delta_c if delta_c > 0 else None
    return RunResult(delta_c, delta_m, fitted, fit_meta, ratio)


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
) -> tuple[dict[str, SplModel], RunResult]:
    rng = model_rng(master_seed, index)
    models = generate_models(plan, rng)
    result = characterize_and_fit(plan, models, sigma, sigma_prime, baseline, rng)
    return models, result
