"""Fitting rate vectors by nonnegative least squares, refining unlearnable
fidelities with measured ratios, and accuracy metrics against the
generating model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spl import SplModel


class RankDeficientError(ValueError):
    """A fit matrix leaves some rate directions unconstrained."""


@dataclass
class FitResult:
    lambdas: np.ndarray
    residual_norm: float
    kkt_residual: float
    iterations: int


def nnls(
    A: np.ndarray,
    b: np.ndarray,
    tol: float = 1e-12,
    max_iter: int | None = None,
    ata: np.ndarray | None = None,
) -> FitResult:
    """argmin_{x >= 0} || A x - b ||_2 by block principal pivoting.

    Kim & Park's method on the normal equations: every iteration solves
    A_F^T A_F x_F = A_F^T b on the passive set F and exchanges the infeasible
    indices (passive with x_i <= 0, active with gradient above tol * scale).
    All of them are exchanged while their count keeps falling, with a budget
    of three non-improving exchanges.  The first passive set is the sign
    pattern x > 0 of the unconstrained solution.  When the budget runs out,
    Lawson-Hanson steps from x = 0 finish the fit: their objective falls at
    every step, so they end on any A, where Kim & Park's single-index backup
    rule can cycle once A lacks full column rank (wide systems).

    `ata` is a precomputed A^T A (any numeric dtype), as
    `CharacterizationPlan.gram` holds per layer.  `iterations` counts the
    passive-set solves, the unconstrained one included; the KKT residual is
    measured on the true residual b - A x.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
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
