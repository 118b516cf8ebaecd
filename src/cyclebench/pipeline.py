"""End-to-end characterization pipeline: generate a random model, compute
every measurable (product of) fidelities, add Gaussian measurement noise,
fit rate vectors with and without the multi-layer data, and compare the
reconstructions to the truth."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fitting import RankDeficientError, distance_metrics, nnls, refine_unlearnable
from .layers import CliffordLayer, chain_decomposition
from .learnability import (
    LearnableProduct,
    MuExpression,
    NotEquivalentError,
    mlcb_targets,
    mu_expression,
    orbit_learnables,
    product_rows,
)
from .pauli import PauliString
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
        s_high[lab] = rows
        key_index[lab] = {prod.key()[1]: i for i, prod in enumerate(prods)}
        qubits = sorted(q for pair in layer.cz_pairs for q in pair)
        low_qubits[lab] = qubits
        lrows = np.zeros((len(qubits), len(gens)), dtype=np.int8)
        sym = []
        for i, q in enumerate(qubits):
            alpha = PauliString.single(topology.n, q, "X")
            lrows[i] = gens.overlaps(alpha)
            # The standard orbit product containing this single fidelity.
            orbit_key = frozenset(
                {alpha.key(), conjugate_key(layer, alpha)}
            )
            sym.append(key_index[lab][orbit_key])
        s_low[lab] = lrows
        symmetry_row[lab] = sym
        # Integer entries far below 2**53, so the float product is exact.
        stacked = np.vstack([rows, lrows]).astype(float)
        g = stacked.T @ stacked
        del stacked  # freed before the inverse's workspace: lower peak RSS
        rank, cond = gram_rank(g)
        if rank < len(g):
            unconstrained[lab] = null_generators(g, gens)
        elif cond <= MAX_INV_GRAM_COND:
            inv_gram[lab] = np.linalg.inv(g)
    mu_entries: list[MuPlanEntry] = []
    failures = 0
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
                        target, topology, seed=seed + index_of[pair[0]], retries=retries
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
    return CharacterizationPlan(
        topology=topology,
        layers=list(layers),
        generators=gens,
        products=products,
        s_high=s_high,
        low_qubits=low_qubits,
        s_low=s_low,
        inv_gram=inv_gram,
        unconstrained=unconstrained,
        symmetry_row=symmetry_row,
        mu_entries=mu_entries,
        mu_failures=failures,
    )


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


def conjugate_key(layer: CliffordLayer, p: PauliString):
    from .layers import conjugate

    return conjugate(layer, p).unsigned().key()


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
    if baseline not in ("symmetry", "unit_depth"):
        raise ValueError(f"unknown baseline {baseline!r}")
    if plan.unconstrained:
        raise RankDeficientError("; ".join(
            f"layer {lab!r} fit matrix has rank {rank} < {len(plan.generators)}, "
            f"unconstrained generators include {' '.join(names[:4])}"
            for lab, (rank, names) in plan.unconstrained.items()
        ))
    labels = plan.labels
    lam = {lab: models[lab].lambdas for lab in labels}
    noisy_high: dict[str, np.ndarray] = {}
    low_est: dict[str, np.ndarray] = {}
    for lab in labels:
        # einsum reads the int8 rows without a float copy.
        exact = np.exp(-2.0 * np.einsum("ij,j->i", plan.s_high[lab], lam[lab]))
        noisy = exact + (rng.normal(0.0, sigma, exact.shape) if sigma > 0 else 0.0)
        noisy_high[lab] = noisy
        if baseline == "symmetry":
            prods = np.clip(noisy[plan.symmetry_row[lab]], 1e-12, 1.0)
            low_est[lab] = np.sqrt(prods)
        else:
            exact_low = np.exp(-2.0 * np.einsum("ij,j->i", plan.s_low[lab], lam[lab]))
            noise = (
                rng.normal(0.0, sigma_prime, exact_low.shape)
                if sigma_prime > 0
                else 0.0
            )
            low_est[lab] = np.clip(exact_low + noise, 1e-12, 1.0)
    mu_hat: dict[tuple[int, tuple[str, str]], float] = {}
    for entry in plan.mu_entries:
        log_o = sum(
            models[l].log_fidelity(p) for l, p in entry.product_terms
        )
        o_noisy = np.exp(log_o) + (rng.normal(0.0, sigma) if sigma > 0 else 0.0)
        if o_noisy <= 0:
            continue
        log_mu = entry.epsilon * np.log(o_noisy)
        for l, row, coeff in entry.learn_refs:
            log_mu += coeff * np.log(max(noisy_high[l][row], 1e-12))
        mu_hat[(entry.qubit, entry.pair)] = float(np.exp(log_mu))

    fitted: dict[str, dict[str, np.ndarray]] = {}
    delta: dict[str, float] = {}
    fit_meta: dict[str, dict[str, dict]] = {}
    mats = {lab: np.vstack([plan.s_high[lab], plan.s_low[lab]]) for lab in labels}
    # Each fit of a layer starts from the passive set of its previous fit.
    warm: dict[str, np.ndarray] = {}
    for pipeline in pipelines:
        if pipeline == "mlcb":
            low_values = _refined_low(plan, low_est, mu_hat)
        else:
            low_values = low_est
        per_layer: dict[str, np.ndarray] = {}
        meta: dict[str, dict] = {}
        for lab in labels:
            values = np.concatenate(
                [np.clip(noisy_high[lab], 1e-12, None), low_values[lab]]
            )
            rhs = -0.5 * np.log(values)
            fit = nnls(
                mats[lab], rhs, inv_gram=plan.inv_gram.get(lab), passive=warm.get(lab)
            )
            warm[lab] = fit.lambdas > 0
            per_layer[lab] = fit.lambdas
            meta[lab] = {
                "residual_norm": fit.residual_norm,
                "kkt_residual": fit.kkt_residual,
                "iterations": fit.iterations,
            }
        fitted[pipeline] = per_layer
        fit_meta[pipeline] = meta
        delta[pipeline] = distance_metrics(models, per_layer)
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
    labels = plan.labels
    refined = {lab: low_est[lab].copy() for lab in labels}
    low_index = {
        lab: {q: i for i, q in enumerate(plan.low_qubits[lab])} for lab in labels
    }
    supports = {layer.label: layer.support() for layer in plan.layers}
    partners = {layer.label: layer for layer in plan.layers}
    for q in range(plan.topology.n):
        covering = [lab for lab in labels if q in supports[lab]]
        runs: list[list[str]] = []
        run: list[str] = []
        prev = None
        for lab in covering:
            if run and (q, (prev, lab)) not in mu_hat:
                runs.append(run)
                run = []
            run.append(lab)
            prev = lab
        if run:
            runs.append(run)
        for run in runs:
            if len(run) < 2:
                continue
            idxs = [low_index[lab][partners[lab].partner(q)] for lab in run]
            estimates = [float(low_est[lab][i]) for lab, i in zip(run, idxs)]
            ratios = [
                mu_hat[(q, (run[j], run[j + 1]))] for j in range(len(run) - 1)
            ]
            values = refine_unlearnable(estimates, ratios)
            for lab, i, v in zip(run, idxs, values):
                refined[lab][i] = min(max(v, 1e-12), 1.0)
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
