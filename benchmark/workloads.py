"""The benchmark's two workloads, driven through the library calls the
`cyclebench` CLI commands make, with a correctness gate on every timed
operation.

- campaign_garnet20: the `fig6` configuration (garnet20, closed_squares,
  unit_depth, sigma = 1e-4, sigma' = 1e-2); cold `build_plan`, then
  successive `sweep_item` calls.  Steady state is NNLS-bound.  Its gate also
  runs the `cyclebench learnability` analysis (`analyze_layer` on one
  garnet20 layer, `mlcb_recovery`), outside the timed part.
- pec_garnet20: the same plan, then single-model `pec_sweep` calls with
  J = 40, W in {2, 20} and PEC_CIRCUITS circuits per weight.  Steady state
  is circuit sampling and propagation.

The plan keeps fig6's seed, so every run searches the same certificates and
set-up time measures a fixed amount of work.  `--seed` draws the noise
models, the measurement noise, the circuits and the models certificates are
checked on.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from cyclebench import cli, learnability, pec, pipeline

FIG6 = cli.REPRO_CONFIGS["fig6"]
CLI_RETRIES = 8  # certificate retries of the CLI's plan construction
PEC_CIRCUITS = 200  # circuits per weight per model
CERT_CHECK_MODELS = 3  # random models each certificate is evaluated on

KKT_MAX = 1e-10
NOISELESS_MAX = 1e-6
RESIDUAL_MAX = 1e-9

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


class Ledger:
    """Counts gated operations and the ones that raised or failed a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, what: str, problem: str | None) -> bool:
        self.attempted += 1
        if problem:
            self.failed += 1
            print(f"check failed: {what}: {problem}", file=sys.stderr)
        return not problem

    def attempt(self, what: str, fn, check):
        """Time fn(), then gate its output; returns (output or None, seconds)."""
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:  # a failed operation is counted, the run goes on
            elapsed = time.perf_counter() - t0
            traceback.print_exc()
            self.check(what, "raised")
            return None, elapsed
        elapsed = time.perf_counter() - t0
        return (out if self.check(what, check(out)) else None), elapsed


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def entry_key(entry) -> str:
    return f"{entry.qubit}:{entry.pair[0]}{entry.pair[1]}"


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Gates


def fit_problem(result) -> str | None:
    worst = max(
        meta["kkt_residual"] for per_layer in result.fit_meta.values() for meta in per_layer.values()
    )
    if not worst <= KKT_MAX:
        return f"kkt_residual {worst:.3e} > {KKT_MAX:g}"
    if not (math.isfinite(result.delta_c) and math.isfinite(result.delta_m)):
        return "non-finite model distance"
    return None


def plan_problem(plan, reference: dict) -> str | None:
    if plan.mu_failures:
        return f"{plan.mu_failures} ratio expressions failed"
    got = {entry_key(e): str(e.expression.epsilon) for e in plan.mu_entries}
    if got != reference["epsilons"]:
        return "ratio entries or their product exponents differ from the reference"
    return None


def item_problem(result, ref_item, tol: dict) -> str | None:
    problem = fit_problem(result)
    if problem or ref_item is None:
        return problem
    dc, dm = ref_item
    if _rel(result.delta_c, dc) > tol["delta_c_rel"]:
        return f"delta_c {result.delta_c!r} != reference {dc!r}"
    if _rel(result.delta_m, dm) > tol["delta_m_rel"]:
        return f"delta_m {result.delta_m!r} != reference {dm!r}"
    return None


def rows_problem(rows, expected: int) -> str | None:
    if len(rows) != expected:
        return f"{len(rows)} rows, expected {expected}"
    for row in rows:
        for key in ("O_c", "O_m"):
            if not (math.isfinite(row[key]) and row[key] > 0):
                return f"{key} = {row[key]!r} is not finite and positive"
    return None


# ---------------------------------------------------------------------------
# garnet20 workloads


def pec_model_seed(seed: int, k: int) -> int:
    """Master seed of the k-th PEC model of a run (distinct across runs)."""
    return seed * 100_000 + k


def run_pec_model(plan, cfg, master_seed: int, circuits: int):
    return pec.pec_sweep(
        plan,
        n_models=1,
        n_circuits=circuits,
        j_layers=cfg.j_layers,
        weights=cfg.weights,
        sigma=cfg.sigma,
        sigma_prime=cfg.sigma_prime,
        baseline=cfg.baseline,
        master_seed=master_seed,
    )


def build_garnet_plan(cfg):
    return pipeline.build_plan(cfg.topology, cfg.layers, seed=cfg.seed, retries=CLI_RETRIES)


def _garnet_setup(seed: int, ledger: Ledger, tracer, reference: dict):
    """Cold plan, then the noiseless item and the reference item."""
    cfg = cli.parse_config(dict(FIG6))
    ref = reference["garnet20"]
    tol = reference["tolerance"]
    with _span(tracer, "bench.setup"):
        t0 = time.perf_counter()
        plan = build_garnet_plan(cfg)
        setup_s = time.perf_counter() - t0
    if not ledger.check("plan", plan_problem(plan, ref)):
        raise SystemExit("the plan is wrong; no steady-state figure would mean anything")

    def noiseless_problem(out):
        _, result = out
        problem = fit_problem(result)
        if problem:
            return problem
        if not (result.delta_c < NOISELESS_MAX and result.delta_m < NOISELESS_MAX):
            return f"noiseless delta_c={result.delta_c:.2e}, delta_m={result.delta_m:.2e}"
        return None

    with _span(tracer, "bench.gate"):
        ledger.attempt(
            "noiseless item",
            lambda: pipeline.sweep_item(plan, seed, 0, 0.0, 0.0, cfg.baseline),
            noiseless_problem,
        )
        index = seed % len(ref["items"])
        ledger.attempt(
            f"reference item {index}",
            lambda: pipeline.sweep_item(
                plan, reference["seed"], index, cfg.sigma, cfg.sigma_prime, cfg.baseline
            ),
            lambda out: item_problem(out[1], ref["items"][index], tol),
        )
    return cfg, plan, setup_s


def layer_gate(cfg, plan, seed: int, ledger: Ledger, ref: dict) -> None:
    """The learnability analysis `cyclebench learnability` reports, and the
    plan's certificates.  One layer is analysed per run, chosen by the seed
    (consecutive seeds cover every layer): the four exact-rank analyses take
    about 6 s, which the run's time budget cannot spare on every run."""
    layers = cfg.layers
    layer = layers[seed % len(layers)]
    la = learnability.analyze_layer(layer, plan.generators)
    want = 2 * len(layer.cz_pairs)
    ledger.check(
        f"layer {layer.label}",
        None if la.unlearnable_dof == want == ref["unlearnable_dof"][layer.label]
        else f"unlearnable DOF {la.unlearnable_dof}, expected {want}",
    )
    recovery = learnability.mlcb_recovery(cfg.topology, layers)
    covering = [sum(q in layer.support() for layer in layers) for q in range(cfg.topology.n)]
    want = sum(l - 1 for l in covering if l)
    got = sum(r for _, r in recovery.values())
    ledger.check(
        "recovered DOF",
        None if got == want == ref["recovered_dof"] else f"recovered {got}, expected {want}",
    )
    rng = np.random.default_rng(seed)
    models = [pipeline.generate_models(plan, rng) for _ in range(CERT_CHECK_MODELS)]
    for entry in plan.mu_entries:
        expr = entry.expression
        residuals = [abs(cert.residual_log(m)) for cert in expr.certificates for m in models]
        residuals += [
            abs(expr.mu_function().evaluate_log(m) - expr.target.mu.evaluate_log(m))
            for m in models
        ]
        worst = max(residuals)
        ledger.check(
            f"certificate {entry_key(entry)}",
            None if worst < RESIDUAL_MAX else f"residual_log {worst:.2e}",
        )


def campaign_garnet20(seed, seconds, ledger, tracer, reference):
    cfg, plan, setup_s = _garnet_setup(seed, ledger, tracer, reference)
    ref = reference["garnet20"]
    tol = reference["tolerance"]
    with _span(tracer, "bench.gate"):
        layer_gate(cfg, plan, seed, ledger, ref)

    def item(i):
        ref_item = ref["items"][i] if seed == reference["seed"] and i < len(ref["items"]) else None
        return ledger.attempt(
            f"item {i}",
            lambda: pipeline.sweep_item(plan, seed, i, cfg.sigma, cfg.sigma_prime, cfg.baseline),
            lambda out: item_problem(out[1], ref_item, tol),
        )[1]

    if tracer is not None:
        pairs = max(1, seconds)  # about one second per untraced + traced pair
        return {"setup_s": setup_s, "overhead": _overhead_pairs(tracer, pairs, item, "bench.sweep_item")}
    latencies = []
    t0 = time.perf_counter()
    i = 0
    while time.perf_counter() - t0 < seconds:
        latencies.append(item(i))
        i += 1
    wall = time.perf_counter() - t0
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / wall,
        "op_s.p50": statistics.median(latencies),
        "samples": len(latencies),
        "names": ("models_per_s", "model_s.p50"),
    }


def pec_garnet20(seed, seconds, ledger, tracer, reference):
    cfg, plan, setup_s = _garnet_setup(seed, ledger, tracer, reference)
    ref_rows = reference["garnet20"]["pec"]
    tol = reference["tolerance"]
    per_model = PEC_CIRCUITS * len(cfg.weights)

    def reference_problem(rows):
        problem = rows_problem(rows, len(ref_rows))
        if problem:
            return problem
        for row, (w, log_oc, log_om) in zip(rows, ref_rows):
            if row["W"] != w or abs(math.log(row["O_c"]) - log_oc) > tol["log_o_c_abs"]:
                return f"O_c {row['O_c']!r} differs from the reference"
            if abs(math.log(row["O_m"]) - log_om) > tol["log_o_m_abs"]:
                return f"O_m {row['O_m']!r} differs from the reference"
        return None

    with _span(tracer, "bench.gate"):
        ledger.attempt(
            "reference PEC model",
            lambda: run_pec_model(plan, cfg, reference["seed"], reference["pec_circuits"]),
            reference_problem,
        )

    def model(k):
        rows, elapsed = ledger.attempt(
            f"PEC model {k}",
            lambda: run_pec_model(plan, cfg, pec_model_seed(seed, k), PEC_CIRCUITS),
            lambda rows: rows_problem(rows, per_model),
        )
        # Every circuit is one operation; a failed model fails all of them.
        ledger.attempted += per_model - 1
        if rows is None:
            ledger.failed += per_model - 1
        return elapsed

    if tracer is not None:
        pairs = max(1, round(seconds / 6))  # about 6 s per untraced + traced pair
        return {"setup_s": setup_s, "overhead": _overhead_pairs(tracer, pairs, model, "bench.pec_model")}
    latencies = []
    t0 = time.perf_counter()
    k = 0
    while time.perf_counter() - t0 < seconds:
        latencies.append(model(k))
        k += 1
    wall = time.perf_counter() - t0
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) * per_model / wall,
        "op_s.p50": statistics.median(latencies),
        "samples": len(latencies),
        "names": ("circuits_per_s", "pec_model_s.p50"),
    }


def _overhead_pairs(tracer, pairs: int, op, span_name: str) -> float:
    """Run op(i) untraced and traced for i < pairs, alternating which goes
    first; returns traced time over untraced time.  Only the traced halves
    leave spans and counts."""
    untraced = traced = 0.0
    for i in range(pairs):
        for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_now:
                tracer.install()
                t0 = time.perf_counter()
                with tracer.span(span_name):
                    op(i)
                traced += time.perf_counter() - t0
            else:
                tracer.uninstall()
                t0 = time.perf_counter()
                op(i)
                untraced += time.perf_counter() - t0
    tracer.install()
    return traced / untraced


WORKLOADS = {
    "campaign_garnet20": campaign_garnet20,
    "pec_garnet20": pec_garnet20,
}
