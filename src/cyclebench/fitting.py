"""Fitting rate vectors by nonnegative least squares, refining unlearnable
fidelities with measured ratios, and accuracy metrics against the
generating model."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spl import SplModel


# The KKT tolerance on the gradient, relative to max(1, max |A^T b|).  An
# n-column fit that needs more than 10 n + 100 passive-set solves fails.
TOL = 1e-12
# Exchanges of every infeasible index that `nnls` makes without reducing
# their count before it turns to Kim & Park's single-index backup rule.
FULL_EXCHANGES = 3


class RankDeficientError(ValueError):
    """A fit matrix leaves some rate directions unconstrained."""


@dataclass
class FitResult:
    lambdas: np.ndarray
    residual_norm: float
    kkt_residual: float
    iterations: int


def nnls(A: np.ndarray, b: np.ndarray, inv_gram: np.ndarray) -> FitResult:
    """argmin_{x >= 0} || A x - b ||_2 of a full-column-rank A, by block
    principal pivoting (Kim & Park, SIAM J. Sci. Comput. 33, 2011).

    Every iteration solves A_F^T A_F x_F = A_F^T b on the passive set F and
    exchanges the infeasible indices (passive with x_i <= 0, active with
    gradient above TOL * scale).  The first passive set is the sign pattern
    x > 0 of the unconstrained solution.  All infeasible indices are
    exchanged while their count keeps falling, with a budget of
    `FULL_EXCHANGES` exchanges that do not reduce it; once the budget is
    spent, only the largest-index infeasible one is exchanged until the
    count falls below its lowest so far.  Kim & Park's backup rule ends for
    every full-column-rank A, and every block a solve factors, H_CC below,
    is a principal submatrix of a positive-definite matrix, so it is
    nonsingular.  A with fewer rows than columns cannot have full column
    rank and raises ValueError.  The plan's fit matrices all have full
    column rank: `pipeline.characterize_and_fit` raises `RankDeficientError`
    before it fits any other.

    `inv_gram` is H = (A^T A)^-1 of a full-column-rank A, as
    `LayerPlan.inv_gram` holds for its layer's `LayerPlan.s`.  Each passive
    set is solved as a Schur complement on the active set C: x0 = H rhs,
    y = H_CC^-1 x0_C, x = x0 - H_:C y, and y is the gradient on C.  H A^T b
    is formed once per fit, and each solve gathers only the rows H_C: of
    the symmetric H: one (|C|, n) copy, an |C| x |C| factorization and one
    y H_C: product.  Only the refinement step, whose right-hand side is a
    gradient, multiplies by the whole H.  The gradient error of such a
    solve grows like cond(A^T A)^2 eps; one refinement step absorbs it for
    the plan's well-conditioned fit matrices, and the reported KKT residual
    shows a fit that H could not carry (the plan's fits reject it above
    1e-10).
    A is taken as float64, so every product with it is one BLAS call: a
    float64 A is used as it is, and a caller fitting an integer matrix many
    times copies it to float once (`pipeline.characterize_and_fit` keeps one
    workspace per call).  `iterations` counts the passive-set solves, the
    unconstrained one included; the KKT residual is measured on the true
    residual b - A x.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if m < n:
        raise ValueError(f"nnls needs at least as many rows as columns, got {m} x {n}")
    max_iter = 10 * n + 100
    atb = A.T @ b
    scale = max(1.0, float(np.abs(atb).max(initial=0.0)))
    gtol = TOL * scale
    iters = 0

    x_atb = inv_gram @ atb

    def solve(passive, rhs=atb):
        """x on the passive set and the gradient rhs - A^T A x."""
        nonlocal iters
        iters += 1
        if iters > max_iter:
            raise RuntimeError("nonnegative least squares failed to converge")
        x = x_atb.copy() if rhs is atb else inv_gram @ rhs
        grad = np.zeros(n)
        active = np.flatnonzero(~passive)
        if active.size:
            rows = inv_gram.take(active, axis=0)  # H_C:, and H_:C transposed
            y = np.linalg.solve(rows[:, active], x[active])
            grad[active] = y
            x -= y @ rows
            x[active] = 0.0
        return x, grad

    def kkt_of(x):
        resid = b - A @ x
        grad = A.T @ resid
        kkt = max(
            float(np.max(grad[x <= 0], initial=0.0)),
            float(np.max(np.abs(grad[x > 0]), initial=0.0)),
        )
        return resid, grad, kkt

    passive = solve(np.ones(n, dtype=bool))[0] > 0
    x, grad = solve(passive)
    budget, fewest = FULL_EXCHANGES, n + 1
    while True:
        infeasible = np.where(passive, x <= 0, grad > gtol)
        count = int(infeasible.sum())
        if count == 0:
            break
        if count < fewest:
            fewest, budget = count, FULL_EXCHANGES
        elif budget == 0:
            infeasible[: np.flatnonzero(infeasible)[-1]] = False  # the largest alone
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


def refine_unlearnable(estimates: list[float], ratios: list[float]) -> list[float]:
    """Impose measured consecutive ratios on low-accuracy fidelity estimates.

    With ratios mu_j = f_j / f_{j+1}, every fidelity in the cluster is u
    times a known factor; the single free parameter u minimizes the sum of
    squared residues against the low-accuracy estimates (closed form).
    The factors are held as mantissa and binary exponent and scaled by one
    power of two before use, which leaves the result bit for bit unchanged
    where they are normal floats and keeps it finite where they would
    overflow.
    """
    if len(ratios) != len(estimates) - 1:
        raise ValueError("need one ratio fewer than estimates")
    mantissas, exponents = [1.0], [0]
    for mu in ratios:
        if not 0 < mu < math.inf:
            raise ValueError("ratios must be positive and finite")
        mu_m, mu_e = math.frexp(mu)
        m, e = math.frexp(mantissas[-1] / mu_m)
        mantissas.append(m)
        exponents.append(exponents[-1] + e - mu_e)
    top = max(exponents)
    nu_arr = np.array([math.ldexp(m, e - top) for m, e in zip(mantissas, exponents)])
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
