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
    inv_gram: np.ndarray | None = None,
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

    `inv_gram` is H = (A^T A)^-1 of a full-column-rank A, as
    `CharacterizationPlan.inv_gram` holds per layer.  With it each passive
    set is solved as a Schur complement on the active set C: x0 = H rhs,
    y = H_CC^-1 x0_C, x = x0 - H_:C y, and y is the gradient on C.  H A^T b
    is formed once per fit, and each solve gathers only the rows H_C: of
    the symmetric H: one (|C|, n) copy, an |C| x |C| factorization and one
    y H_C: product.  Only the refinement step, whose right-hand side is a
    gradient, multiplies by the whole H.  The gradient error of such a
    solve grows like cond(A^T A)^2 eps, so H suits well-conditioned A only:
    the plan keeps H for cond(A^T A) <= `pipeline.MAX_INV_GRAM_COND` (1e6),
    and the refinement step absorbs what remains.  Without H each solve
    factors the passive block of A^T A.
    Products with A never copy it to float, so an integer A stays compact.
    `iterations` counts the passive-set solves, the unconstrained one
    included; the KKT residual is measured on the true residual b - A x.
    """
    A = np.asarray(A)
    b = np.asarray(b, dtype=float)
    n = A.shape[1]
    if max_iter is None:
        max_iter = 10 * n + 100
    # einsum buffers its casts, so an integer A is never copied whole.
    atb = np.einsum("ij,i->j", A, b)
    scale = max(1.0, float(np.abs(atb).max(initial=0.0)))
    gtol = tol * scale
    iters = 0

    if inv_gram is None:
        A_f = np.asarray(A, dtype=float)
        gram = A_f.T @ A_f
    else:
        x_atb = inv_gram @ atb

    def solve(passive, rhs=atb):
        """x on the passive set and the gradient rhs - A^T A x."""
        nonlocal iters
        iters += 1
        if iters > max_iter:
            raise RuntimeError("nonnegative least squares failed to converge")
        if inv_gram is None:
            x = np.zeros(n)
            if passive.any():
                x[passive] = _solve(gram[np.ix_(passive, passive)], rhs[passive])
            return x, rhs - gram @ x
        x = x_atb.copy() if rhs is atb else inv_gram @ rhs
        grad = np.zeros(n)
        active = np.flatnonzero(~passive)
        if active.size:
            rows = inv_gram.take(active, axis=0)  # H_C:, and H_:C transposed
            y = _solve(rows[:, active], x[active])
            grad[active] = y
            x -= y @ rows
            x[active] = 0.0
        return x, grad

    def kkt_of(x):
        resid = b - np.einsum("ij,j->i", A, x)
        grad = np.einsum("ij,i->j", A, resid)
        kkt = max(
            float(np.max(grad[x <= 0], initial=0.0)),
            float(np.max(np.abs(grad[x > 0]), initial=0.0)),
        )
        return resid, grad, kkt

    passive = solve(np.ones(n, dtype=bool))[0] > 0
    x, grad = solve(passive)
    budget, fewest = 3, n + 1
    while True:
        infeasible = np.where(passive, x <= 0, grad > gtol)
        count = int(infeasible.sum())
        if count == 0:
            break
        if count < fewest:
            fewest, budget = count, 3
        elif budget == 0:
            x = _lawson_hanson(atb, gtol, solve)
            break
        else:
            budget -= 1
        passive ^= infeasible
        x, grad = solve(passive)
    resid, grad, kkt = kkt_of(x)
    if kkt > gtol:
        # The normal equations square cond(A_F); one refinement step on the
        # true residual restores the accuracy of an ill-conditioned solve.
        x = np.maximum(x + solve(x > 0, grad)[0], 0.0)
        resid, grad, kkt = kkt_of(x)
    return FitResult(
        lambdas=x,
        residual_norm=float(np.linalg.norm(resid)),
        kkt_residual=kkt / scale,
        iterations=iters,
    )


def _solve(sub: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(sub, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(sub, rhs, rcond=None)[0]


def _lawson_hanson(atb, gtol, solve) -> np.ndarray:
    """Lawson-Hanson active-set steps from x = 0 on the normal equations.

    Each outer step frees the active index of largest gradient; the inner
    loop moves from the feasible x toward the new passive solution and
    drops whichever coordinates reach zero first.  An index whose own
    passive value comes out nonpositive is numerically dependent on the
    passive columns: it stays active until x next changes.
    """
    x, grad = np.zeros(len(atb)), atb
    passive = np.zeros(len(atb), dtype=bool)
    rejected = np.zeros(len(atb), dtype=bool)
    while True:
        free = np.where(passive | rejected, -np.inf, grad)
        if free.max() <= gtol:
            return x
        t = int(np.argmax(free))
        passive[t] = True
        z, z_grad = solve(passive)
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
            z, z_grad = solve(passive)
        x, grad = z, z_grad


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
