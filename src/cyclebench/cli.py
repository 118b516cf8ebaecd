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
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fitting import RankDeficientError
from .layers import CATALOG, CliffordLayer
from .learnability import analyze_layer, mlcb_recovery
from .pec import check_limits, model_rows, summarize_pec
from .pauli import PauliString
from .pipeline import (
    CharacterizationPlan,
    RunResult,
    build_plan,
    covering_pairs,
    generate_models,
    model_rng,
    noisy_records,
    ratio_expressions,
    sweep_item,
)
from .spl import GeneratorSet, SplModel, random_model
from .topology import LAYER_SCHEMES, Topology, four_layer_config, preset

EXIT_CONFIG = 2
EXIT_RANK = 3
EXIT_NUMERIC = 4

# Randomized orders per certificate search of every command's ratios.
CERT_RETRIES = 8

# Every key some command reads; any other key is a config error.
CONFIG_KEYS = (
    "topology", "layers", "sigma", "sigma_prime", "baseline", "seed",
    "models", "circuits", "j_layers", "weights", "out", "parallel",
)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    # `parse_config` builds every RunConfig and holds each field's default.
    topology: Topology
    layers: list[CliffordLayer]
    sigma: float
    sigma_prime: float
    baseline: str  # symmetry | unit_depth
    seed: int
    models: int
    circuits: int
    j_layers: int
    weights: tuple[int, ...]
    out: str
    parallel: int
    raw: dict

    def digest(self) -> str:
        # Runtime knobs do not change what is computed.
        content = {k: v for k, v in self.raw.items() if k not in ("out", "parallel")}
        blob = json.dumps(content, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def load_config(path: str, overrides: dict) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object, got {raw!r}")
    return parse_config(raw | {k: v for k, v in overrides.items() if v is not None})


def parse_config(raw: dict) -> RunConfig:
    unknown = [key for key in raw if key not in CONFIG_KEYS]
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; a config takes {list(CONFIG_KEYS)}")
    try:
        topo_spec = raw["topology"]
        topo = (
            preset(topo_spec) if isinstance(topo_spec, str) else Topology.from_dict(topo_spec)
        )
        layers_spec = raw.get("layers", "closed_squares")
        if isinstance(layers_spec, str):
            if layers_spec not in LAYER_SCHEMES:
                raise ConfigError(f"unknown layer scheme {layers_spec!r}")
            layers = four_layer_config(topo, layers_spec)
        else:
            layers = [_parse_layer(spec, topo.n) for spec in layers_spec]
        _check_layers(layers, topo)
        baseline = raw.get("baseline", "symmetry")
        if baseline not in ("symmetry", "unit_depth"):
            raise ConfigError(f"unknown baseline {baseline!r}")
        # Checked here, not when the outputs are written after all the work.
        out = raw.get("out", "out")
        if not isinstance(out, str) or not out:
            raise ConfigError(f"out must be a non-empty string, got {out!r}")
        # `pec.check_limits` checks the elements, for `pec` only.
        weights = raw.get("weights", (2, 20))
        if not isinstance(weights, (list, tuple)):
            raise ConfigError(f"weights must be a list of integers, got {weights!r}")
        return RunConfig(
            topology=topo,
            layers=layers,
            sigma=_noise(raw, "sigma", 1e-4),
            sigma_prime=_noise(raw, "sigma_prime", 1e-3),
            baseline=baseline,
            seed=_integer(raw, "seed", 0, minimum=0),
            models=_integer(raw, "models", 1),
            circuits=_integer(raw, "circuits", 10),
            j_layers=_integer(raw, "j_layers", 40),
            weights=tuple(weights),
            out=out,
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


def _check_layers(layers: list[CliffordLayer], topo: Topology) -> None:
    # Every command works layer by layer, outputs are keyed by label, and CZ
    # gates need a coupler.
    if not layers:
        raise ConfigError("layers must not be empty")
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
    # int() also reads "02" and " 2", so two keys could name one qubit.
    bad = [q for q in sq if not (q.isascii() and q.isdigit() and str(int(q)) == q)]
    if bad:
        raise ConfigError(f"sq keys {bad} are not qubit indices in plain decimal")
    for q, name in sq.items():
        if not isinstance(name, str) or name not in CATALOG:
            raise ConfigError(
                f"layer {spec.get('label', '')!r}: unknown single-qubit gate {name!r} "
                f"on qubit {q}; choose from {sorted(CATALOG)}"
            )
    gates = tuple((int(q), CATALOG[name]) for q, name in sq.items())
    cz = tuple(tuple(p) for p in spec.get("cz", ()))
    return CliffordLayer(n, cz, gates, spec.get("label", ""))


def _make_out(out: str) -> None:
    # Called once a command's config checks pass, before any of its work.
    try:
        os.makedirs(out, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: an embedded null byte
        raise ConfigError(f"cannot use out {out!r}: {exc}") from exc


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def _write_model(cfg: RunConfig, name: str, model: SplModel, **extra) -> None:
    payload = {**model.to_dict(), **extra, "config_digest": cfg.digest()}
    _write_json(os.path.join(cfg.out, f"{name}.json"), payload)


def _check_shared_layers(cfg: RunConfig) -> None:
    # Ratio certificates decompose consecutive covering layers into CZ chains.
    pairs, _ = covering_pairs(cfg.topology, cfg.layers)
    by_label = {layer.label: layer for layer in cfg.layers}
    for lab in dict.fromkeys(lab for pair in pairs for lab in pair):
        if not by_label[lab].is_cz_only():
            raise ConfigError(
                f"layer {lab!r}: single-qubit gates (\"sq\") are not supported "
                "in a layer that shares qubits with another layer"
            )


def _plan(cfg: RunConfig) -> CharacterizationPlan:
    # Each command builds its plan here, once, and hands it to its models.
    return build_plan(cfg.topology, cfg.layers, seed=cfg.seed, retries=CERT_RETRIES)


def cmd_generate_model(cfg: RunConfig) -> int:
    _make_out(cfg.out)
    rng = model_rng(cfg.seed, 0)
    gens = GeneratorSet(cfg.topology)
    for layer in cfg.layers:
        model = random_model(gens, layer, rng)
        _write_model(cfg, f"model_{layer.label}", model)
        print(f"wrote model_{layer.label}.json  |K| = {len(model.generators)}")
    return 0


def cmd_learnability(cfg: RunConfig) -> int:
    _check_shared_layers(cfg)
    certificates = any(layer.cz_pairs for layer in cfg.layers) and len(cfg.layers) > 1
    _make_out(cfg.out)
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
    if certificates:
        expressions, _ = ratio_expressions(cfg.topology, cfg.layers, cfg.seed, CERT_RETRIES)
        report["mlcb"]["ratio_certificates"] = [
            {
                "qubit": e.qubit,
                "pair": list(e.pair),
                "epsilon": str(e.epsilon),
                "measured_product": [
                    [lab, p.label()] for lab, p, _ in e.target.product.terms
                ],
                "learnable_terms": [
                    {
                        "coefficient": str(coeff),
                        "product": [[prod.label, s.label()] for s in prod.strings],
                    }
                    for prod, coeff in e.learnable_terms
                ],
            }
            for e in expressions
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
    _check_shared_layers(cfg)
    _make_out(cfg.out)
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
    for lab, lp in plan.layers.items():
        for prod, value in zip(lp.products, data.high[lab]):
            targets = [(lab, p) for p in prod.strings]
            records.append(record(targets, value, cfg.sigma, "high", f"orbit:{prod.source}"))
        if cfg.baseline == "unit_depth":
            for q, value in zip(lp.low_qubits, data.low[lab]):
                targets = [(lab, PauliString.single(cfg.topology.n, q, "X"))]
                records.append(
                    record(targets, value, cfg.sigma_prime, "low", f"unit_depth:q{q}")
                )
    for entry, value in zip(plan.mu_entries, data.ratio_products):
        provenance = f"mlcb:q{entry.qubit}:{entry.pair[0]}{entry.pair[1]}"
        targets = [(lab, p) for lab, p, _ in entry.expression.target.product.terms]
        records.append(record(targets, value, cfg.sigma, "high", provenance))
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
        _write_model(cfg, f"model_{layer.label}", models[layer.label])
    print(f"wrote {len(records)} records -> {path}")
    return 0


def _map_models(cfg: RunConfig, job: Callable[[int], object]) -> list:
    """`job(index)` for every model index, in index order, on `cfg.parallel`
    processes, never more than there are models or CPUs.  Each worker receives
    `job`, and the plan it holds, once: a forked worker shares the parent's
    copy, a spawned one unpickles it."""
    indices = range(cfg.models)
    workers = min(cfg.parallel, cfg.models, os.cpu_count() or 1)
    if workers > 1:
        with multiprocessing.Pool(workers, _set_worker_job, (job,)) as pool:
            return pool.map(_run_worker_job, indices)
    return [job(i) for i in indices]


_worker_job: Callable[[int], object] | None = None  # set in pool workers only


def _set_worker_job(job: Callable[[int], object]) -> None:
    global _worker_job
    _worker_job = job


def _run_worker_job(index: int):
    return _worker_job(index)


def _fit_model(plan: CharacterizationPlan, seed: int, index: int, **noise) -> RunResult:
    # A worker sends back only the result, not the drawn models.
    return sweep_item(plan, seed, index, **noise)[1]


def _write_sweeps(path: str, header: list[str], lead, sweeps) -> list[list[RunResult]]:
    """Draw and fit every model of each (key, cfg, plan, seed) sweep, its
    models drawn from `seed`, then write `path`: one CSV row per model,
    `lead(key, index)` followed by delta_c, delta_m and r.  Returns each
    sweep's results."""
    done = [
        (key, _map_models(cfg, partial(
            _fit_model, plan, seed, sigma=cfg.sigma, sigma_prime=cfg.sigma_prime,
            baseline=cfg.baseline,
        )))
        for key, cfg, plan, seed in sweeps
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*header, "delta_c", "delta_m", "r"])
        for key, results in done:
            for i, res in enumerate(results):
                writer.writerow([*lead(key, i), res.delta_c, res.delta_m, res.ratio])
    return [results for _, results in done]


def cmd_fit(cfg: RunConfig) -> int:
    _check_sweep(cfg)
    _make_out(cfg.out)
    plan = _plan(cfg)
    csv_path = os.path.join(cfg.out, "metrics.csv")
    (results,) = _write_sweeps(
        csv_path, ["seed", "config"], lambda key, i: [i, key],
        [(cfg.digest(), cfg, plan, cfg.seed)],
    )
    # The first model's fitted rate vectors go to files as well.
    result = results[0]
    for pipeline, fitted in result.fitted.items():
        for lab, lam in fitted.items():
            _write_model(
                cfg, f"fitted_{pipeline}_{lab}", SplModel(lab, plan.generators, lam),
                fitted_by=pipeline, fit=result.fit_meta[pipeline][lab],
            )
    valid = [res.ratio for res in results if res.ratio is not None]
    if valid:
        print(
            f"{len(valid)} models: median r = {float(np.median(valid)):.3f} -> {csv_path}"
        )
    else:
        print(f"wrote {csv_path}")
    return 0


def _check_sweep(cfg: RunConfig) -> None:
    if cfg.models < 1:
        raise ConfigError(f"models must be at least 1, got {cfg.models}")
    _check_shared_layers(cfg)


def cmd_pec(cfg: RunConfig) -> int:
    _check_sweep(cfg)
    try:  # only `pec` reads circuits, j_layers and weights
        check_limits(cfg.topology.n, cfg.circuits, cfg.j_layers, cfg.weights)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _make_out(cfg.out)
    # The rows of `pec.pec_sweep`, one model per work item.
    job = partial(
        model_rows, _plan(cfg), n_circuits=cfg.circuits, j_layers=cfg.j_layers,
        weights=cfg.weights, sigma=cfg.sigma, sigma_prime=cfg.sigma_prime,
        baseline=cfg.baseline, master_seed=cfg.seed,
    )
    rows = [row for model in _map_models(cfg, job) for row in model]
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
    base = {k: v for k, v in spec.items() if k not in ("schemes", "sigma_prime_multipliers")}
    base.update(out=out, parallel=parallel)
    if figure == "fig6":
        return cmd_pec(parse_config(base))
    # One sweep per scheme (fig5a, each on its own plan) or per sigma'/sigma
    # multiplier m (fig5b, models drawn from seed + m on one shared plan).
    if figure == "fig5a":
        header = "scheme"
        cfgs = {s: parse_config(dict(base, layers=s)) for s in spec["schemes"]}
    else:
        header = "sigma_prime_over_sigma"
        cfgs = {
            m: parse_config(dict(base, sigma_prime=m * spec["sigma"]))
            for m in spec["sigma_prime_multipliers"]
        }
    for cfg in cfgs.values():
        _check_sweep(cfg)
    _make_out(out)
    if figure == "fig5a":
        sweeps = [(s, cfg, _plan(cfg), cfg.seed) for s, cfg in cfgs.items()]
    else:
        plan = _plan(next(iter(cfgs.values())))
        sweeps = [(m, cfg, plan, spec["seed"] + m) for m, cfg in cfgs.items()]
    path = os.path.join(out, f"{figure}.csv")
    _write_sweeps(path, [header, "seed"], lambda key, i: [key, i], sweeps)
    print(f"-> {path}")
    return 0


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
