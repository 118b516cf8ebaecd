"""The benchmark runs end to end: a short untraced run of each workload in
BENCHMARK.json exits 0, passes every correctness gate and reports exactly
the end-to-end metrics BENCHMARK.json declares; a short traced run also
passes its gates and reports every per-layer metric declared there; and
every function the traced run wraps still exists under its traced name."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def short_run(workload, trace):
    """The result line of a 1 s run, after checking that it exits 0 and
    passes every correctness gate."""
    argv = ["benchmark/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_passes_its_gates(workload):
    result = short_run(workload, trace=0)
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_traced_run_reports_every_layer(workload):
    result = short_run(workload, trace=1)
    missing = {m["name"] for m in SPEC["per_layer"]} - set(result["metrics"])
    assert not missing


def test_every_traced_name_resolves():
    # The traced run wraps each traced function where its callers look it
    # up; a renamed or removed function would otherwise break only that run.
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "benchmark" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    declared = {m["name"][: -len(".calls")] for m in SPEC["per_layer"] if m["name"].endswith(".calls")}
    assert set(tracing.SPAN_NAMES) == declared

    def resolve(mod, attr):
        owner = importlib.import_module(f"cyclebench.{mod}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        return owner

    originals = {(mod, attr): resolve(mod, attr) for mod, attr in tracing.TRACED}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for key, original in originals.items():
            wrapped = resolve(*key)
            assert wrapped is not original and wrapped.__wrapped__ is original, key
    finally:
        tracer.uninstall()
    assert {key: resolve(*key) for key in originals} == originals
