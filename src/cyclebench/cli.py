"""Command-line interface tying the characterization pipeline together.

Commands: generate-model, learnability, characterize, fit, pec, repro.
Configs are JSON; outputs are JSON (structures) and CSV (sweeps), each
embedding a digest of the resolved configuration for provenance.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import multiprocessing
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .fitting import RankDeficientError
from .layers import CATALOG, CliffordLayer
from .learnability import analyze_layer, mlcb_recovery
from .pec import MAX_CIRCUITS, MAX_KEY_WEIGHT, pec_sweep, summarize_pec
from .pauli import PauliString
from .pipeline import (
    CharacterizationPlan,
    RunResult,
    cached_plan,
    covering_pairs,
    generate_models,
    model_rng,
    noisy_records,
    sweep_item,
)
from .spl import GeneratorSet, RandomModelParams, random_model
from .topology import LAYER_SCHEMES, Topology, four_layer_config, preset

EXIT_CONFIG = 2
EXIT_RANK = 3
EXIT_NUMERIC = 4

PIPELINES = ("conventional", "mlcb")

# A PEC batch holds one byte per circuit, step and qubit; this keeps a
# 1000-circuit batch on garnet20 at 20 MB (the paper's circuits have 40).
MAX_J_LAYERS = 1000


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    topology: Topology
    layers: list[CliffordLayer]
    scheme: str = ""
    sigma: float = 1e-4
    sigma_prime: float = 1e-3
    baseline: str = "symmetry"  # symmetry | unit_depth
    pipelines: tuple[str, ...] = PIPELINES
    seed: int = 0
    models: int = 1
    circuits: int = 10
    j_layers: int = 40
    weights: tuple[int, ...] = (2, 20)
    out: str = "out"
    parallel: int = 1
    raw: dict = field(default_factory=dict)

    def digest(self) -> str:
        # Runtime knobs do not change what is computed.
        content = {k: v for k, v in self.raw.items() if k not in ("out", "parallel")}
        blob = json.dumps(content, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    return parse_config(raw)


def parse_config(raw: dict) -> RunConfig:
    try:
        topo_spec = raw["topology"]
        topo = (
            preset(topo_spec) if isinstance(topo_spec, str) else Topology.from_dict(topo_spec)
        )
        layers_spec = raw.get("layers", "closed_squares")
        scheme = ""
        if isinstance(layers_spec, str):
            if layers_spec not in LAYER_SCHEMES:
                raise ConfigError(f"unknown layer scheme {layers_spec!r}")
            scheme = layers_spec
            layers = four_layer_config(topo, layers_spec)
        else:
            layers = [_parse_layer(spec, topo.n) for spec in layers_spec]
        _check_layers(layers, topo)
        baseline = raw.get("baseline", "symmetry")
        if baseline not in ("symmetry", "unit_depth"):
            raise ConfigError(f"unknown baseline {baseline!r}")
        return RunConfig(
            topology=topo,
            layers=layers,
            scheme=scheme,
            sigma=_noise(raw, "sigma", 1e-4),
            sigma_prime=_noise(raw, "sigma_prime", 1e-3),
            baseline=baseline,
            pipelines=_pipelines(raw),
            seed=_integer(raw, "seed", 0, minimum=0),
            models=_integer(raw, "models", 1),
            circuits=_integer(raw, "circuits", 10),
            j_layers=_integer(raw, "j_layers", 40),
            weights=tuple(raw.get("weights", (2, 20))),
            out=raw.get("out", "out"),
            parallel=_integer(raw, "parallel", 1, minimum=1),
            raw=raw,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid config: {exc}") from exc


def _integer(raw: dict, name: str, default: int, minimum: int | None = None) -> int:
    # int() would truncate 2.7 to 2; an integral float such as 2.0 is fine.
    value = raw.get(name, default)
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _noise(raw: dict, name: str, default: float) -> float:
    # A negative or NaN width would silently run noiseless, an infinite one
    # would print garbage.
    value = raw.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        math.isfinite(value) and value >= 0
    ):
        raise ConfigError(f"{name} must be a finite number >= 0, got {value!r}")
    return float(value)


def _pipelines(raw: dict) -> tuple[str, ...]:
    value = raw.get("pipelines", PIPELINES)
    if (
        not isinstance(value, (list, tuple))
        or not value
        or any(name not in PIPELINES for name in value)
        or len(set(value)) != len(value)
    ):
        raise ConfigError(
            f"pipelines must be a non-empty list of distinct names from {list(PIPELINES)}, "
            f"got {value!r}"
        )
    return tuple(value)


def _check_layers(layers: list[CliffordLayer], topo: Topology) -> None:
    # Outputs are keyed by label, and CZ gates need a coupler.
    labels = [layer.label for layer in layers]
    dup = sorted({lab for lab in labels if labels.count(lab) > 1})
    if dup:
        raise ConfigError(f"duplicate layer labels {dup}")
    edges = set(topo.edges)
    for layer in layers:
        bad = [list(pair) for pair in layer.cz_pairs if pair not in edges]
        if bad:
            raise ConfigError(
                f"layer {layer.label!r}: CZ pairs {bad} are not topology edges"
            )


def _parse_layer(spec: dict, n: int) -> CliffordLayer:
    # Every layer acts on the topology's n qubits.
    sq = spec.get("sq", {}) if isinstance(spec, dict) else None
    if not isinstance(sq, dict) or not isinstance(spec.get("label", ""), str):
        raise ConfigError(f'layer {spec!r} is not an object with a string "label" and "sq" object')
    gates = tuple((int(q), CATALOG[name]) for q, name in sq.items())
    cz = tuple(tuple(p) for p in spec.get("cz", ()))
    return CliffordLayer(n, cz, gates, spec.get("label", ""))


def _write_json(path, payload) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def _plan(cfg: RunConfig) -> CharacterizationPlan:
    # Ratio certificates decompose consecutive covering layers into CZ chains.
    pairs, _ = covering_pairs(cfg.topology, cfg.layers)
    by_label = {layer.label: layer for layer in cfg.layers}
    for lab in dict.fromkeys(lab for pair in pairs for lab in pair):
        if not by_label[lab].is_cz_only():
            raise ConfigError(
                f"layer {lab!r}: single-qubit gates (\"sq\") are not supported "
                "in a layer that shares qubits with another layer"
            )
    return cached_plan(cfg.topology, cfg.layers, seed=cfg.seed, retries=8)


def cmd_generate_model(cfg: RunConfig) -> int:
    rng = model_rng(cfg.seed, 0)
    gens = GeneratorSet(cfg.topology)
    os.makedirs(cfg.out, exist_ok=True)
    for layer in cfg.layers:
        model = random_model(gens, layer, RandomModelParams(), rng)
        payload = model.to_dict()
        payload["config_digest"] = cfg.digest()
        _write_json(os.path.join(cfg.out, f"model_{layer.label}.json"), payload)
        print(f"wrote model_{layer.label}.json  |K| = {len(model.generators)}")
    return 0


def cmd_learnability(cfg: RunConfig) -> int:
    gens = GeneratorSet(cfg.topology)
    report = {
        "schema": "learnability-report/1",
        "config_digest": cfg.digest(),
        "layers": {},
    }
    for layer in cfg.layers:
        la = analyze_layer(layer, gens)
        report["layers"][layer.label] = {
            "generators": la.num_generators,
            "learnable_rank": la.rank,
            "unlearnable_dof": la.unlearnable_dof,
            "unlearnable_basis": [p.label() for p in la.unlearnable_basis],
            "standard_singletons": len(la.standard_singletons),
            "dressed_singletons": len(la.dressed_singletons),
            "independent_pair_constraints": la.independent_pair_constraints,
        }
    recovery = mlcb_recovery(cfg.topology, cfg.layers)
    total_unlearnable = sum(
        report["layers"][l.label]["unlearnable_dof"] for l in cfg.layers
    )
    recovered = sum(r for _, r in recovery.values())
    report["mlcb"] = {
        "per_qubit": {str(q): {"layers": l, "recovered": r} for q, (l, r) in recovery.items()},
        "unlearnable_without_mlcb": total_unlearnable,
        "recovered_dof": recovered,
        "reduction_fraction": recovered / total_unlearnable if total_unlearnable else 0.0,
    }
    if any(layer.cz_pairs for layer in cfg.layers) and len(cfg.layers) > 1:
        plan = _plan(cfg)
        report["mlcb"]["ratio_certificates"] = [
            {
                "qubit": e.qubit,
                "pair": list(e.pair),
                "epsilon": str(e.expression.epsilon),
                "measured_product": [
                    [lab, p.label()] for lab, p in e.product_terms
                ],
                "learnable_terms": [
                    {
                        "coefficient": str(coeff),
                        "product": [[prod.label, s.label()] for s in prod.strings],
                    }
                    for prod, coeff in e.expression.learnable_terms
                ],
            }
            for e in plan.mu_entries
        ]
    path = os.path.join(cfg.out, "learnability.json")
    _write_json(path, report)
    print(
        f"unlearnable DOF without multi-layer data: {total_unlearnable}; "
        f"recovered: {recovered} "
        f"({100.0 * report['mlcb']['reduction_fraction']:.1f}%) -> {path}"
    )
    return 0


def cmd_characterize(cfg: RunConfig) -> int:
    # The draw of model 0 of `fit`: these are the data its first fit uses.
    plan = _plan(cfg)
    rng = model_rng(cfg.seed, 0)
    models = generate_models(plan, rng)
    data = noisy_records(plan, models, cfg.sigma, cfg.sigma_prime, cfg.baseline, rng)

    def record(targets, estimate, sigma, accuracy, provenance):
        return {
            "kind": "product",
            "targets": [[lab, p.label()] for lab, p in targets],
            "estimate": float(estimate),
            "sigma": sigma,
            "accuracy": accuracy,
            "provenance": provenance,
        }

    records = []
    for lab in plan.labels:
        for prod, value in zip(plan.products[lab], data.high[lab]):
            targets = [(lab, p) for p in prod.strings]
            records.append(record(targets, value, cfg.sigma, "high", f"orbit:{prod.source}"))
        if cfg.baseline == "unit_depth":
            for q, value in zip(plan.low_qubits[lab], data.low[lab]):
                targets = [(lab, PauliString.single(cfg.topology.n, q, "X"))]
                records.append(
                    record(targets, value, cfg.sigma_prime, "low", f"unit_depth:q{q}")
                )
    for entry, value in zip(plan.mu_entries, data.ratio_products):
        provenance = f"mlcb:q{entry.qubit}:{entry.pair[0]}{entry.pair[1]}"
        records.append(record(entry.product_terms, value, cfg.sigma, "high", provenance))
    # JSON has no infinities; `fit` refuses these draws as well.
    bad = next((r for r in records if not math.isfinite(r["estimate"])), None)
    if bad is not None:
        layer = bad["targets"][0][0]
        raise RuntimeError(f"non-finite noisy record on layer {layer!r} ({bad['provenance']})")
    payload = {
        "schema": "fidelity-records/1",
        "config_digest": cfg.digest(),
        "records": records,
    }
    path = os.path.join(cfg.out, "records.json")
    _write_json(path, payload)
    for layer in cfg.layers:
        payload = models[layer.label].to_dict()
        payload["config_digest"] = cfg.digest()
        _write_json(os.path.join(cfg.out, f"model_{layer.label}.json"), payload)
    print(f"wrote {len(records)} records -> {path}")
    return 0


def _run_item(args) -> tuple[int, RunResult]:
    cfg_raw, seed, index = args
    cfg = parse_config(cfg_raw)
    _, result = sweep_item(
        _plan(cfg), seed, index, cfg.sigma, cfg.sigma_prime, cfg.baseline,
        pipelines=cfg.pipelines,
    )
    return index, result


def _sweep(cfg: RunConfig, seed: int | None = None) -> list[tuple[int, RunResult]]:
    """(index, result) of every model of the sweep, in index order, on
    `cfg.parallel` processes, never more than there are models.  Models draw
    from `seed` (default `cfg.seed`); the plan keeps `cfg.seed`."""
    _check_models(cfg)
    _plan(cfg)  # config errors end here, before any worker starts
    items = [(cfg.raw, cfg.seed if seed is None else seed, i) for i in range(cfg.models)]
    workers = min(cfg.parallel, cfg.models)
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            return pool.map(_run_item, items)
    return [_run_item(item) for item in items]


def cmd_fit(cfg: RunConfig) -> int:
    results = _sweep(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    csv_path = os.path.join(cfg.out, "metrics.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "config", "delta_c", "delta_m", "r"])
        for index, res in results:
            writer.writerow([index, cfg.digest(), res.delta_c, res.delta_m, res.ratio])
    # The first model's fitted rate vectors go to files as well.
    result = results[0][1]
    for pipeline, fitted in result.fitted.items():
        for lab, lam in fitted.items():
            payload = {
                "schema": "spl-model/1",
                "label": lab,
                "topology": cfg.topology.to_dict(),
                "w_max": 2,
                "lambdas": [float(v) for v in lam],
                "fitted_by": pipeline,
                "fit": result.fit_meta.get(pipeline, {}).get(lab, {}),
                "config_digest": cfg.digest(),
            }
            _write_json(os.path.join(cfg.out, f"fitted_{pipeline}_{lab}.json"), payload)
    valid = [res.ratio for _, res in results if res.ratio is not None]
    if valid:
        print(
            f"{len(valid)} models: median r = {float(np.median(valid)):.3f} -> {csv_path}"
        )
    else:
        print(f"wrote {csv_path}")
    return 0


def _check_models(cfg: RunConfig) -> None:
    if cfg.models < 1:
        raise ConfigError(f"models must be at least 1, got {cfg.models}")


def _check_pec(cfg: RunConfig) -> None:
    # Only `pec` reads these fields; the seed key of each circuit bounds
    # circuits and weights (pec.pec_sweep).
    _check_models(cfg)
    if not cfg.layers:
        raise ConfigError("pec draws circuits from the layers, and there are none")
    if not 1 <= cfg.circuits <= MAX_CIRCUITS:
        raise ConfigError(f"circuits must be in [1, {MAX_CIRCUITS}], got {cfg.circuits}")
    if not 1 <= cfg.j_layers <= MAX_J_LAYERS:
        raise ConfigError(f"j_layers must be in [1, {MAX_J_LAYERS}], got {cfg.j_layers}")
    w_max = min(cfg.topology.n, MAX_KEY_WEIGHT - 1)
    weights = list(cfg.weights)
    if not weights or any(
        isinstance(w, bool) or not isinstance(w, int) or not 0 <= w <= w_max for w in weights
    ):
        raise ConfigError(
            f"weights must be a non-empty list of integers in [0, {w_max}], got {weights}"
        )
    if len(set(weights)) != len(weights):
        raise ConfigError(f"weights must be distinct, got {weights}")


def cmd_pec(cfg: RunConfig) -> int:
    _check_pec(cfg)
    plan = _plan(cfg)
    rows = pec_sweep(
        plan,
        n_models=cfg.models,
        n_circuits=cfg.circuits,
        j_layers=cfg.j_layers,
        weights=cfg.weights,
        sigma=cfg.sigma,
        sigma_prime=cfg.sigma_prime,
        baseline=cfg.baseline,
        master_seed=cfg.seed,
    )
    os.makedirs(cfg.out, exist_ok=True)
    csv_path = os.path.join(cfg.out, "pec.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model_seed", "circuit_seed", "W", "O_c", "O_m"])
        for row in rows:
            writer.writerow([row["model_seed"], row["circuit_seed"], row["W"], row["O_c"], row["O_m"]])
    summary = summarize_pec(rows)
    summary["schema"] = "pec-summary/1"
    summary["config_digest"] = cfg.digest()
    _write_json(os.path.join(cfg.out, "pec_summary.json"), summary)
    for w, st in summary["by_weight"].items():
        # One circuit, or circuits with equal O_c, have no spread to compare.
        ratio = f"{st['std_O_m'] / st['std_O_c']:.3f}" if st["std_O_c"] else "n/a"
        print(
            f"W={w}: std(O_c)={st['std_O_c']:.4f} std(O_m)={st['std_O_m']:.4f} "
            f"ratio={ratio}"
        )
    print(f"-> {csv_path}")
    return 0


REPRO_CONFIGS = {
    "fig5a": {
        "topology": "garnet20",
        "sigma": 1e-4,
        "baseline": "symmetry",
        "models": 200,
        "seed": 20240501,
        "schemes": ("open_chains", "closed_squares"),
    },
    "fig5b": {
        "topology": "garnet20",
        "layers": "open_chains",
        "sigma": 1e-4,
        "baseline": "unit_depth",
        "models": 100,
        "seed": 20240502,
        "sigma_prime_multipliers": (1, 3, 10, 30, 100),
    },
    "fig6": {
        "topology": "garnet20",
        "layers": "closed_squares",
        "sigma": 1e-4,
        "sigma_prime": 1e-2,
        "baseline": "unit_depth",
        "models": 200,
        "circuits": 10,
        "j_layers": 40,
        "weights": (2, 20),
        "seed": 20240503,
    },
}


def cmd_repro(figure: str, out: str, parallel: int, models: int | None = None) -> int:
    spec = REPRO_CONFIGS.get(figure)
    if spec is None:
        raise ConfigError(f"unknown figure {figure!r}; choose from {sorted(REPRO_CONFIGS)}")
    if models is not None:
        spec = dict(spec, models=models)
    if figure in ("fig5a", "fig5b"):
        # One sweep per scheme (fig5a) or per sigma'/sigma multiplier
        # (fig5b, models drawn from seed + multiplier on the spec's plan).
        if figure == "fig5a":
            header = "scheme"
            sweeps = [(s, {"layers": s}, None) for s in spec["schemes"]]
        else:
            header = "sigma_prime_over_sigma"
            sweeps = [
                (m, {"sigma_prime": m * spec["sigma"]}, spec["seed"] + m)
                for m in spec["sigma_prime_multipliers"]
            ]
        base = {k: v for k, v in spec.items()
                if k not in ("schemes", "sigma_prime_multipliers")}
        results = [
            (key, _sweep(parse_config(dict(base, parallel=parallel, **change)), seed))
            for key, change, seed in sweeps
        ]
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"{figure}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([header, "seed", "delta_c", "delta_m", "r"])
            for key, sweep in results:
                for i, res in sweep:
                    writer.writerow([key, i, res.delta_c, res.delta_m, res.ratio])
        print(f"-> {path}")
        return 0
    cfg = parse_config(dict(spec, out=out, parallel=parallel))
    return cmd_pec(cfg)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cyclebench",
        description="Pauli noise characterization of Clifford gate layers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("generate-model", "learnability", "characterize", "fit", "pec"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--parallel", type=int, default=None)
    p = sub.add_parser("repro")
    p.add_argument("figure", choices=sorted(REPRO_CONFIGS))
    p.add_argument("--out", default="out")
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--models", type=int, default=None, help="override sweep size")
    args = parser.parse_args(argv)
    try:
        if args.command == "repro":
            return cmd_repro(args.figure, args.out, args.parallel, args.models)
        overrides = {"seed": args.seed, "out": args.out, "parallel": args.parallel}
        cfg = load_config(args.config, overrides)
        handler = {
            "generate-model": cmd_generate_model,
            "learnability": cmd_learnability,
            "characterize": cmd_characterize,
            "fit": cmd_fit,
            "pec": cmd_pec,
        }[args.command]
        return handler(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RankDeficientError as exc:
        print(f"rank deficiency: {exc}", file=sys.stderr)
        return EXIT_RANK
    except (np.linalg.LinAlgError, RuntimeError, ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
