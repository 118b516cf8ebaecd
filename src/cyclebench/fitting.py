"""Assembling fidelity records into the linear constraint system and fitting
rate vectors by nonnegative least squares; accuracy metrics against the
generating model."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .experiment import FidelityRecord
from .spl import GeneratorSet, SplModel


class RankDeficientError(ValueError):
    def __init__(self, message, null_directions=None):
        super().__init__(message)
        self.null_directions = null_directions or []


@dataclass
class ConstraintSystem:
    """Rows of the rate <-> log-fidelity map: matrix @ lambda = rhs with
    rhs = -log(estimate)/2, weighted per record."""

    matrix: np.ndarray
    rhs: np.ndarray
    weights: np.ndarray
    layer_slices: dict[str, slice]
    records: list[FidelityRecord] = field(default_factory=list)

    def rank(self) -> int:
        return int(np.linalg.matrix_rank(self.matrix))

    def check_full_rank(self, generators_by_layer: dict[str, GeneratorSet]) -> None:
        ncols = self.matrix.shape[1]
        rank = self.rank()
        if rank < ncols:
            # Identify the unconstrained directions for the error message.
            _, s, vt = np.linalg.svd(self.matrix)
            null = vt[rank:]
            dirs = []
            for vec in null[: ncols - rank]:
                idx = np.argsort(-np.abs(vec))[:4]
                parts = []
                for i in idx:
                    if abs(vec[i]) < 1e-9:
                        continue
                    lab, gi = self._locate(i)
                    parts.append(f"{lab}:{generators_by_layer[lab].strings[gi].label()}")
                dirs.append(" / ".join(parts))
            raise RankDeficientError(
                f"constraint system rank {rank} < {ncols}; "
                f"unconstrained directions include: {dirs}",
                null_directions=dirs,
            )

    def _locate(self, col: int) -> tuple[str, int]:
        for lab, sl in self.layer_slices.items():
            if sl.start <= col < sl.stop:
                return lab, col - sl.start
        raise IndexError(col)


def assemble(
    records: list[FidelityRecord],
    generators_by_layer: dict[str, GeneratorSet],
    layer_order: tuple[str, ...],
) -> ConstraintSystem:
    """Build the weighted system from records over the concatenated rate
    space of the given layers."""
    offsets = {}
    total = 0
    for lab in layer_order:
        offsets[lab] = total
        total += len(generators_by_layer[lab])
    rows = np.zeros((len(records), total))
    rhs = np.empty(len(records))
    weights = np.empty(len(records))
    for j, rec in enumerate(records):
        if rec.estimate <= 0:
            raise ValueError(f"record {rec.provenance!r} has non-positive estimate")
        for lab, p in rec.targets:
            gens = generators_by_layer[lab]
            rows[j, offsets[lab] : offsets[lab] + len(gens)] += gens.overlaps(p)
        rhs[j] = -0.5 * np.log(rec.estimate)
        weights[j] = 1.0 / max(rec.sigma, 1e-15) ** 2
    slices = {
        lab: slice(offsets[lab], offsets[lab] + len(generators_by_layer[lab]))
        for lab in layer_order
    }
    return ConstraintSystem(rows, rhs, weights, slices, list(records))


@dataclass
class FitResult:
    lambdas: np.ndarray
    residual_norm: float
    kkt_residual: float
    iterations: int
    method: str = "layerwise_constrained"

    def split(self, slices: dict[str, slice]) -> dict[str, np.ndarray]:
        return {lab: self.lambdas[sl] for lab, sl in slices.items()}


def nnls(
    A: np.ndarray,
    b: np.ndarray,
    weights: np.ndarray | None = None,
    tol: float = 1e-12,
    max_iter: int | None = None,
    ata: np.ndarray | None = None,
) -> FitResult:
    """argmin_{x >= 0} || sqrt(W) (A x - b) ||_2 by block principal pivoting.

    Kim & Park's method on the normal equations: every iteration solves
    A_F^T A_F x_F = A_F^T b on the passive set F and exchanges the infeasible
    indices (passive with x_i <= 0, active with gradient above tol * scale).
    All of them are exchanged while their count keeps falling, with a budget
    of three non-improving exchanges.  The first passive set is the sign
    pattern x > 0 of the unconstrained solution.  When the budget runs out,
    Lawson-Hanson steps from x = 0 finish the fit: their objective falls at
    every step, so they end on any A, where Kim & Park's single-index backup
    rule can cycle once A lacks full column rank (wide systems).

    `ata` is a precomputed A^T A of the unweighted A (any numeric dtype),
    as `CharacterizationPlan.gram` holds per layer.  `iterations` counts the
    passive-set solves, the unconstrained one included; the KKT residual is
    measured on the true residual b - A x.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if weights is not None:
        if ata is not None:
            raise ValueError("a precomputed Gram matrix cannot be combined with weights")
        w = np.asarray(weights, dtype=float)
        sw = np.sqrt(w / w.max())  # normalization leaves the argmin unchanged
        A = A * sw[:, None]
        b = b * sw
    n = A.shape[1]
    if max_iter is None:
        max_iter = 10 * n + 100
    ata = A.T @ A if ata is None else np.asarray(ata, dtype=float)
    atb = A.T @ b
    scale = max(1.0, float(np.abs(atb).max(initial=0.0)))
    gtol = tol * scale
    iters = 0

    def solve(passive, rhs=atb):
        nonlocal iters
        iters += 1
        if iters > max_iter:
            raise RuntimeError("nonnegative least squares failed to converge")
        x = np.zeros(n)
        if passive.any():
            sub = ata[np.ix_(passive, passive)]
            try:
                x[passive] = np.linalg.solve(sub, rhs[passive])
            except np.linalg.LinAlgError:
                x[passive] = np.linalg.lstsq(sub, rhs[passive], rcond=None)[0]
        return x

    def kkt_of(x):
        resid = b - A @ x
        grad = A.T @ resid
        kkt = max(
            float(np.max(grad[x <= 0], initial=0.0)),
            float(np.max(np.abs(grad[x > 0]), initial=0.0)),
        )
        return resid, grad, kkt

    passive = solve(np.ones(n, dtype=bool)) > 0
    x = solve(passive)
    budget, fewest = 3, n + 1
    while True:
        grad = atb - ata @ x
        infeasible = np.where(passive, x <= 0, grad > gtol)
        count = int(infeasible.sum())
        if count == 0:
            break
        if count < fewest:
            fewest, budget = count, 3
        elif budget == 0:
            x = _lawson_hanson(ata, atb, gtol, solve)
            break
        else:
            budget -= 1
        passive ^= infeasible
        x = solve(passive)
    resid, grad, kkt = kkt_of(x)
    if kkt > gtol:
        # The normal equations square cond(A_F); one refinement step on the
        # true residual restores the accuracy of an ill-conditioned solve.
        x = np.maximum(x + solve(x > 0, grad), 0.0)
        resid, grad, kkt = kkt_of(x)
    return FitResult(
        lambdas=x,
        residual_norm=float(np.linalg.norm(resid)),
        kkt_residual=kkt / scale,
        iterations=iters,
        method="nnls",
    )


def _lawson_hanson(ata, atb, gtol, solve) -> np.ndarray:
    """Lawson-Hanson active-set steps from x = 0 on the normal equations.

    Each outer step frees the active index of largest gradient; the inner
    loop moves from the feasible x toward the new passive solution and
    drops whichever coordinates reach zero first.  An index whose own
    passive value comes out nonpositive is numerically dependent on the
    passive columns: it stays active until x next changes.
    """
    x = np.zeros(len(atb))
    passive = np.zeros(len(atb), dtype=bool)
    rejected = np.zeros(len(atb), dtype=bool)
    while True:
        grad = np.where(passive | rejected, -np.inf, atb - ata @ x)
        if grad.max() <= gtol:
            return x
        t = int(np.argmax(grad))
        passive[t] = True
        z = solve(passive)
        if z[t] <= 0:
            passive[t] = False
            rejected[t] = True
            continue
        rejected[:] = False
        while np.any(z[passive] <= 0):
            mask = passive & (z <= 0)
            denom = x[mask] - z[mask]
            ratios = np.where(denom > 0, x[mask] / np.maximum(denom, 1e-300), 0.0)
            x = x + float(ratios.min()) * (z - x)
            floor = 1e-12 * max(1.0, float(np.abs(x).max()))
            hit = mask & (x <= floor)
            passive &= ~(hit if hit.any() else mask)
            x[~passive] = 0.0
            z = solve(passive)
        x = z


def refine_unlearnable(estimates: list[float], ratios: list[float]) -> list[float]:
    """Impose measured consecutive ratios on low-accuracy fidelity estimates.

    With ratios mu_j = f_j / f_{j+1}, every fidelity in the cluster is u
    times a known factor; the single free parameter u minimizes the sum of
    squared residues against the low-accuracy estimates (closed form).
    """
    if len(ratios) != len(estimates) - 1:
        raise ValueError("need one ratio fewer than estimates")
    nu = [1.0]
    for mu in ratios:
        if mu <= 0:
            raise ValueError("ratios must be positive")
        nu.append(nu[-1] / mu)
    nu_arr = np.array(nu)
    est = np.array(estimates, dtype=float)
    u = float((nu_arr * est).sum() / (nu_arr**2).sum())
    return [float(u * v) for v in nu_arr]


@dataclass(frozen=True)
class MuRecord:
    """A measured ratio of two unlearnable single fidelities at one qubit."""

    qubit: int
    pair: tuple[str, str]
    value: float
    sigma: float = 0.0


def _by_layer(records: list[FidelityRecord]) -> dict[str, list[FidelityRecord]]:
    out: dict[str, list[FidelityRecord]] = {}
    for rec in records:
        labels = {lab for lab, _ in rec.targets}
        if len(labels) != 1:
            raise ValueError("layerwise fitting needs single-layer records")
        out.setdefault(labels.pop(), []).append(rec)
    return out


def fit_conventional(
    records_high: list[FidelityRecord],
    records_low: list[FidelityRecord],
    generators_by_layer: dict[str, GeneratorSet],
) -> dict[str, FitResult]:
    """Per-layer nonnegative least squares over high-accuracy products plus
    the low-accuracy unlearnable singles."""
    high = _by_layer(records_high)
    low = _by_layer(records_low)
    out = {}
    for lab in sorted(set(high) | set(low)):
        records = high.get(lab, []) + low.get(lab, [])
        system = assemble(records, {lab: generators_by_layer[lab]}, (lab,))
        system.check_full_rank({lab: generators_by_layer[lab]})
        out[lab] = nnls(system.matrix, system.rhs)
    return out


def fit_mlcb(
    records_high: list[FidelityRecord],
    records_low: list[FidelityRecord],
    mu_records: list[MuRecord],
    generators_by_layer: dict[str, GeneratorSet],
    layers,
) -> dict[str, FitResult]:
    """Refine the unlearnable singles with the measured ratios (per bulk
    qubit, consecutive covering layers), then fit each layer.

    A qubit whose ratios are missing falls back to the conventional
    estimates for the uncovered part of its cluster.
    """
    by_label = {layer.label: layer for layer in layers}
    labels = [layer.label for layer in layers]
    low_map = {}
    for rec in records_low:
        (lab, alpha), = rec.targets
        (qubit,) = alpha.support()
        low_map[(lab, qubit)] = rec
    mu_map = {(m.qubit, m.pair): m.value for m in mu_records}
    refined: dict[tuple[str, int], float] = {}
    n = layers[0].n
    for q in range(n):
        covering = [lab for lab in labels if by_label[lab].gate_of(q) is not None]
        run: list[str] = []
        prev = None
        runs = []
        for lab in covering:
            if run and (q, (prev, lab)) not in mu_map:
                runs.append(run)
                run = []
            run.append(lab)
            prev = lab
        if run:
            runs.append(run)
        for run in runs:
            keys = [(lab, by_label[lab].partner(q)) for lab in run]
            if len(run) < 2 or any(k not in low_map for k in keys):
                continue
            estimates = [low_map[k].estimate for k in keys]
            ratios = [mu_map[(q, (run[j], run[j + 1]))] for j in range(len(run) - 1)]
            for k, v in zip(keys, refine_unlearnable(estimates, ratios)):
                refined[k] = min(max(v, 1e-12), 1.0)
    new_low = []
    for rec in records_low:
        (lab, alpha), = rec.targets
        (qubit,) = alpha.support()
        value = refined.get((lab, qubit), rec.estimate)
        new_low.append(
            FidelityRecord(rec.targets, value, rec.sigma, "low", rec.provenance + "+mlcb")
        )
    return fit_conventional(records_high, new_low, generators_by_layer)


def fit_joint(
    records: list[FidelityRecord],
    generators_by_layer: dict[str, GeneratorSet],
    layer_order: tuple[str, ...],
) -> FitResult:
    """One nonnegative least squares over the concatenated rate space;
    records may span layers (multi-layer products enter as single rows)."""
    system = assemble(records, generators_by_layer, layer_order)
    fit = nnls(system.matrix, system.rhs)
    fit.method = "joint"
    return fit


def distance_metrics(
    true_models: dict[str, SplModel], fitted: dict[str, np.ndarray]
) -> float:
    """L1 distance between true and fitted rate vectors, summed over layers."""
    total = 0.0
    for lab, model in true_models.items():
        lam_fit = np.asarray(fitted[lab], dtype=float)
        if lam_fit.shape != model.lambdas.shape:
            raise ValueError(f"rate vector shape mismatch for layer {lab}")
        total += float(np.abs(model.lambdas - lam_fit).sum())
    return total
