import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclebench import cli, exactla
from cyclebench.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_RANK, _plan, main, parse_config
from cyclebench.exactla import rank_checked
from cyclebench.layers import CATALOG
from cyclebench.learnability import orbit_learnables
from cyclebench.pauli import PauliString
from cyclebench.spl import GeneratorSet
from cyclebench.pipeline import RunResult, build_plan, generate_models, model_rng, noisy_records
from test_pipeline import learn_refs


def write_config(tmp_path, **overrides):
    cfg = {
        "topology": "square3x2",
        "layers": "open_chains",
        "sigma": 1e-4,
        "sigma_prime": 1e-3,
        "baseline": "unit_depth",
        "seed": 7,
        "models": 2,
        "circuits": 2,
        "j_layers": 6,
        "weights": [2],
        "out": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg



def subprocess_env() -> dict:
    """This environment with the package's source directory first on
    PYTHONPATH, for commands run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    return dict(os.environ, PYTHONPATH=path)


def recording_pool(monkeypatch, returned: list | None = None, cpus: int = 64) -> list[int]:
    """Replace the sweeps' process pool by a stand-in that runs its
    initializer and maps in this process, on a host of `cpus` CPUs; the
    returned list records the size of every pool started, and `returned`,
    when given, every value a mapped job returned."""
    sizes = []

    class RecordingPool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            results = [fn(item) for item in items]
            if returned is not None:
                returned.extend(results)
            return results

    monkeypatch.setattr(cli.multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    # The initializer sets a worker's job here; it is reset after the test.
    monkeypatch.setattr(cli, "_worker_job", None)
    return sizes

class TestGenerateModel:
    def test_writes_models_with_expected_size(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert main(["generate-model", "--config", str(path)]) == 0
        data = json.loads((tmp_path / "out" / "model_B.json").read_text())
        n, p = 6, 7  # 3x2 grid
        assert len(data["lambdas"]) == 3 * n + 9 * p
        assert "config_digest" in data

    def test_repeat_seed_identical_bytes(self, tmp_path):
        path, cfg = write_config(tmp_path)
        main(["generate-model", "--config", str(path)])
        first = (tmp_path / "out" / "model_B.json").read_bytes()
        main(["generate-model", "--config", str(path)])
        assert (tmp_path / "out" / "model_B.json").read_bytes() == first

    def test_explicit_layers(self, tmp_path):
        path, cfg = write_config(
            tmp_path,
            topology={"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
            layers=[
                {"label": "B", "cz": [[0, 1], [2, 3]]},
                {"label": "G", "cz": [[1, 2]], "sq": {"0": "S"}},
            ],
        )
        assert main(["generate-model", "--config", str(path)]) == 0
        assert (tmp_path / "out" / "model_G.json").exists()


class TestLearnability:
    def test_single_cz_report(self, tmp_path):
        path, cfg = write_config(
            tmp_path,
            topology={"n": 2, "edges": [[0, 1]]},
            layers=[{"label": "C", "cz": [[0, 1]]}],
        )
        assert main(["learnability", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "learnability.json").read_text())
        assert report["layers"]["C"]["unlearnable_dof"] == 2

    def test_identity_layer_no_unlearnable(self, tmp_path):
        path, cfg = write_config(
            tmp_path,
            topology={"n": 2, "edges": [[0, 1]]},
            layers=[{"label": "I", "cz": []}],
        )
        assert main(["learnability", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "learnability.json").read_text())
        assert report["layers"]["I"]["unlearnable_dof"] == 0

    def test_rank_deficient_layer_reported(self, tmp_path):
        # The S-only layer's fit matrix would be rank-deficient; the report
        # builds no plan and fits nothing, so it still covers the layer.
        path, _ = write_config(
            tmp_path,
            topology="square2x2",
            layers=[
                {"label": "A", "cz": [[0, 1]]},
                {"label": "B", "cz": [[0, 2]]},
                {"label": "C", "cz": [], "sq": {"3": "S"}},
            ],
        )
        assert main(["learnability", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "learnability.json").read_text())
        assert report["layers"]["C"]["learnable_rank"] == 41
        assert report["layers"]["C"]["unlearnable_dof"] == 7
        assert report["mlcb"]["unlearnable_without_mlcb"] == 11
        assert report["mlcb"]["recovered_dof"] == 1
        (cert,) = report["mlcb"]["ratio_certificates"]
        assert cert["qubit"] == 0 and cert["pair"] == ["A", "B"]
        # Every layer's basis strings complete its product rows' rank, the
        # single-qubit-gate layer's included.
        cfg = parse_config(json.loads(path.read_text()))
        gens = GeneratorSet(cfg.topology)
        for layer in cfg.layers:
            entry = report["layers"][layer.label]
            basis = [PauliString.from_label(b) for b in entry["unlearnable_basis"]]
            assert len(basis) == entry["unlearnable_dof"]
            _, rows = orbit_learnables(layer, gens)
            full = np.vstack([rows] + [gens.overlaps(p) for p in basis])
            assert rank_checked(full) == len(gens) == entry["generators"]
        assert len(report["layers"]["C"]["unlearnable_basis"]) == 7

    def test_shared_sq_layers_rejected(self, tmp_path, capsys):
        # Without CZ gates no ratio certificate backs a recovered DOF, so the
        # report refuses the shared single-qubit layout as `fit` does.
        path, _ = write_config(
            tmp_path,
            topology="square2x2",
            layers=[{"label": "A", "sq": {"0": "H"}}, {"label": "B", "sq": {"0": "S"}}],
        )
        assert main(["learnability", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: layer 'A': single-qubit gates (\"sq\") are not supported "
            "in a layer that shares qubits with another layer\n"
        )
        assert not (tmp_path / "out").exists()

    def test_recovery_counts(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert main(["learnability", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "learnability.json").read_text())
        for q, entry in report["mlcb"]["per_qubit"].items():
            assert entry["recovered"] == entry["layers"] - 1

    @pytest.mark.parametrize("size", [3, 4, 5])
    def test_closed_squares_approach_three_quarters(self, tmp_path, size):
        # The paper's limit: on an L x L lattice with closed squares, every
        # CZ leaves 2 unlearnable DOF and every qubit covered by l layers
        # recovers l - 1, so (3L - 4) / (4L - 4) of them -> 3/4.
        path, _ = write_config(tmp_path, topology=f"square{size}x{size}", layers="closed_squares")
        assert main(["learnability", "--config", str(path)]) == 0
        mlcb = json.loads((tmp_path / "out" / "learnability.json").read_text())["mlcb"]
        assert mlcb["unlearnable_without_mlcb"] == 4 * size * (size - 1)
        assert mlcb["recovered_dof"] == 3 * size**2 - 4 * size
        assert mlcb["reduction_fraction"] == (3 * size - 4) / (4 * size - 4)
        assert len(mlcb["ratio_certificates"]) == mlcb["recovered_dof"]

    def test_certificates_are_the_plan_entries(self, tmp_path):
        # The report and the plan take their ratios from one search: equal
        # seeds give the same entries, learnable terms included.
        path, _ = write_config(tmp_path, topology="square2x3", layers="open_chains")
        assert main(["learnability", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "learnability.json").read_text())
        cfg = parse_config(json.loads(path.read_text()))
        plan = build_plan(cfg.topology, cfg.layers, seed=cfg.seed, retries=cli.CERT_RETRIES)
        want = [
            {
                "qubit": e.qubit,
                "pair": list(e.pair),
                "epsilon": str(e.expression.epsilon),
                "measured_product": [
                    [lab, p.label()] for lab, p, _ in e.expression.target.product.terms
                ],
                "learnable_terms": [
                    (lab, [s.label() for s in plan.layers[lab].products[row].strings], coeff)
                    for lab, row, coeff in learn_refs(plan, e)
                ],
            }
            for e in plan.mu_entries
        ]
        for cert in report["mlcb"]["ratio_certificates"]:
            cert["learnable_terms"] = [
                (t["product"][0][0], [s for _, s in t["product"]], float(Fraction(t["coefficient"])))
                for t in cert["learnable_terms"]
            ]
        assert len(want) == 8 and report["mlcb"]["ratio_certificates"] == want


class TestCharacterizeFitPec:
    def test_characterize_writes_records(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert main(["characterize", "--config", str(path)]) == 0
        data = json.loads((tmp_path / "out" / "records.json").read_text())
        assert data["schema"] == "fidelity-records/1"
        kinds = {r["provenance"].split(":")[0] for r in data["records"]}
        assert kinds == {"orbit", "mlcb", "unit_depth"}

    @pytest.mark.parametrize("baseline", ["symmetry", "unit_depth"])
    def test_characterize_records_are_the_fit_data(self, tmp_path, baseline):
        # The records are the draw that `fit` fits for model 0, bit for bit.
        path, cfg = write_config(tmp_path, baseline=baseline)
        assert main(["characterize", "--config", str(path)]) == 0
        records = json.loads((tmp_path / "out" / "records.json").read_text())["records"]
        plan = _plan(parse_config(cfg))
        rng = model_rng(cfg["seed"], 0)
        models = generate_models(plan, rng)
        data = noisy_records(plan, models, cfg["sigma"], cfg["sigma_prime"], baseline, rng)
        want = []
        for lab in plan.labels:
            want += [(v, "high") for v in data.high[lab]]
            if baseline == "unit_depth":
                want += [(v, "low") for v in data.low[lab]]
        want += [(v, "high") for v in data.ratio_products]
        assert [(r["estimate"], r["accuracy"]) for r in records] == [
            (float(v), acc) for v, acc in want
        ]
        lows = [r for r in records if r["accuracy"] == "low"]
        for r in lows:
            q = int(r["provenance"].removeprefix("unit_depth:q"))
            ((lab, label),) = r["targets"]
            assert label == PauliString.single(6, q, "X").label()
            assert r["sigma"] == cfg["sigma_prime"]
        n_low = sum(len(lp.low_qubits) for lp in plan.layers.values())
        assert len(lows) == (baseline == "unit_depth") * n_low

    def test_fit_writes_metrics(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert main(["fit", "--config", str(path)]) == 0
        with open(tmp_path / "out" / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == cfg["models"]
        assert float(rows[0]["delta_c"]) >= 0
        assert (tmp_path / "out" / "fitted_mlcb_B.json").exists()

    def test_fit_parallel_matches_serial(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert main(["fit", "--config", str(path)]) == 0
        serial = (tmp_path / "out" / "metrics.csv").read_text()
        assert main(["fit", "--config", str(path), "--parallel", "2"]) == 0
        assert (tmp_path / "out" / "metrics.csv").read_text() == serial

    def test_pec_outputs(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert main(["pec", "--config", str(path)]) == 0
        with open(tmp_path / "out" / "pec.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == cfg["models"] * cfg["circuits"] * len(cfg["weights"])
        summary = json.loads((tmp_path / "out" / "pec_summary.json").read_text())
        assert "2" in summary["by_weight"] or 2 in summary["by_weight"]
        # One pass at the limits, 1000 circuits of 1000 steps, writes a row
        # per circuit; one circuit more is refused (`test_invalid_pec_fields_rejected`).
        limit = tmp_path / "limit"
        path, _ = write_config(
            tmp_path, topology="square2x2", models=1, circuits=1000, j_layers=1000, out=str(limit)
        )
        assert main(["pec", "--config", str(path)]) == 0
        assert (limit / "pec.csv").read_text().count("\n") == 1 + 1000


    def test_pec_parallel_matches_serial(self, tmp_path):
        # Models run on worker processes write the serial run's bytes.
        path, _ = write_config(tmp_path, models=3, weights=[1, 3])
        outputs = []
        for n in ("1", "2"):
            out = tmp_path / n
            assert main(["pec", "--config", str(path), "--parallel", n, "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes() for name in ("pec.csv", "pec_summary.json")])
        assert outputs[0] == outputs[1]
        assert outputs[0][0].count(b"\n") == 1 + 3 * 2 * 2

    def test_spawned_workers_match_serial(self, tmp_path):
        # Spawned workers start from a fresh interpreter: each one receives
        # the parent's plan through the pool's initializer.
        path, _ = write_config(tmp_path, topology="square2x2", models=2, j_layers=4)
        names = {"fit": ["metrics.csv"], "pec": ["pec.csv", "pec_summary.json"]}
        for command in names:
            assert main([command, "--config", str(path), "--out", str(tmp_path / "serial")]) == 0
        script = (
            "import multiprocessing, sys\n"
            "multiprocessing.set_start_method('spawn')\n"
            "from cyclebench.cli import main\n"
            "for command in ('fit', 'pec'):\n"
            "    argv = [command, '--config', sys.argv[1], '--out', sys.argv[2], '--parallel', '2']\n"
            "    assert main(argv) == 0\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", script, str(path), str(tmp_path / "spawned")],
            env=subprocess_env(), capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        for name in [*names["fit"], *names["pec"]]:
            serial = (tmp_path / "serial" / name).read_bytes()
            assert (tmp_path / "spawned" / name).read_bytes() == serial, name

    @pytest.mark.parametrize(
        "argv, plans",
        [
            (["repro", "fig5b", "--models", "1"], 1),
            (["repro", "fig5a", "--models", "1"], 2),
            (["fit", "--parallel", "2"], 1),
        ],
        ids=["fig5b", "fig5a", "fit_parallel"],
    )
    def test_each_plan_built_once(self, tmp_path, monkeypatch, argv, plans):
        # fig5b's sweeps share one plan, fig5a builds one per scheme, and the
        # models of a sweep never rebuild theirs.
        sizes = recording_pool(monkeypatch)
        built = mock.Mock(wraps=cli._plan)
        monkeypatch.setattr(cli, "_plan", built)
        path, _ = write_config(tmp_path, topology="square2x2")
        if argv[0] == "fit":
            argv = [*argv, "--config", str(path)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert built.call_count == plans
        assert sizes == ([2] if argv[0] == "fit" else [])

    def test_fit_workers_return_only_results(self, tmp_path, monkeypatch):
        # The sweep writer reads only each model's RunResult; the drawn
        # models are not sent back from the workers.
        returned = []
        recording_pool(monkeypatch, returned)
        path, _ = write_config(tmp_path, topology="square2x2")
        assert main(["fit", "--config", str(path), "--parallel", "2"]) == 0
        assert len(returned) == 2 and all(type(r) is RunResult for r in returned)

    def test_pec_starts_at_most_models_workers(self, tmp_path, monkeypatch):
        sizes = recording_pool(monkeypatch)
        for models, parallel, want in ((2, 64, [2]), (1, 64, []), (3, 2, [2])):
            sizes.clear()
            path, _ = write_config(tmp_path, topology="square2x2", models=models)
            assert main(["pec", "--config", str(path), "--parallel", str(parallel)]) == 0
            assert sizes == want


def test_commands_run_without_scipy(tmp_path):
    # scipy is a test-only dependency (importing scipy.linalg alone would
    # also about double a fresh process's resident set).  With it
    # unimportable, every command runs on square2x2 under both layer schemes
    # and writes its files, and on the isolated-sq layers `learnability`
    # writes its report and `fit` ends in the one-line rank deficiency.
    runs, outs = [], []
    for scheme in ("open_chains", "closed_squares"):
        (tmp_path / scheme).mkdir()
        path, cfg = write_config(tmp_path / scheme, topology="square2x2", layers=scheme, models=1,
                                 j_layers=4)
        runs += [[command, "--config", str(path)] for command in TestErrors.COMMANDS]
        labels = [layer.label for layer in parse_config(cfg).layers]
        outs += [tmp_path / scheme / "out" / f"model_{label}.json" for label in labels]
        outs += [tmp_path / scheme / "out" / name for name in (
            "learnability.json", "records.json", "metrics.csv", "pec.csv", "pec_summary.json"
        )]
    (tmp_path / "sq").mkdir()
    path, _ = write_config(tmp_path / "sq", **TestErrors.ISOLATED_SQ)
    runs += [["learnability", "--config", str(path)], ["fit", "--config", str(path)]]
    outs.append(tmp_path / "sq" / "out" / "learnability.json")
    script = (
        "import contextlib, io, json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from cyclebench.cli import main\n"
        "results = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):\n"
        "        results.append([main(argv), err.getvalue()])\n"
        "print(json.dumps(results))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs)],
        env=subprocess_env(), capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    results = json.loads(run.stdout)
    assert results == [[0, ""]] * (len(runs) - 1) + [[EXIT_RANK, TestErrors.ISOLATED_SQ_FIT_ERR]]
    assert all(out.stat().st_size > 0 for out in outs)
    # The declared runtime dependencies are numpy alone (read without
    # tomllib, which Python 3.10 lacks).
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S).group(1)
    names = [re.match(r"[A-Za-z0-9_.-]+", req).group() for req in re.findall(r'"([^"]+)"', block)]
    assert names == ["numpy"]


class TestPecConfig:
    def test_single_circuit_prints_ratio_na(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, topology="square2x2", models=1, circuits=1)
        assert main(["pec", "--config", str(path)]) == 0
        assert "ratio=n/a" in capsys.readouterr().out
        assert (tmp_path / "out" / "pec_summary.json").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("weights", [5]),
            ("weights", [2.5]),
            ("weights", []),
            ("weights", [2, 2]),
            ("j_layers", 0),
            ("j_layers", 10**30),
            ("circuits", 0),
            ("circuits", -3),
            ("circuits", 1001),
            ("models", 0),
            ("layers", []),
        ],
    )
    def test_invalid_pec_fields_rejected(self, tmp_path, capsys, field, value):
        path, _ = write_config(tmp_path, topology="square2x2", **{field: value})
        assert main(["pec", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert field in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fit", "pec"])
    @pytest.mark.parametrize(
        "value, given", [("22", "'22'"), (None, "None"), (5, "5"), ({"a": 2}, "{'a': 2}")]
    )
    def test_weights_not_a_list_rejected(self, tmp_path, capsys, command, value, given):
        # Once read as tuple(value): "22" was reported as ['2', '2'], null
        # and 5 as not iterable, and `fit` ran on "22" and {"a": 2}.
        path, _ = write_config(tmp_path, topology="square2x2", weights=value)
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: weights must be a list of integers, got {given}\n"
        assert not (tmp_path / "out").exists()


_SMALL_NUMBERS = st.one_of(
    st.integers(-3, 4),
    st.floats(-3, 4),
    st.sampled_from([math.inf, -math.inf, math.nan, 1001, 10**30]),
)


@settings(max_examples=60, deadline=None)
@given(
    models=st.one_of(st.integers(-2, 2), st.floats(-2, 2.5), st.sampled_from([math.nan, math.inf])),
    circuits=_SMALL_NUMBERS,
    j_layers=_SMALL_NUMBERS,
    weights=st.one_of(
        st.lists(st.one_of(st.integers(-2, 6), st.floats(-2, 6), st.just(100)), max_size=3),
        st.integers(-1, 5),
    ),
)
def test_pec_fuzz_exits_cleanly(models, circuits, j_layers, weights):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = {
            "topology": "square2x2",
            "layers": "open_chains",
            "baseline": "unit_depth",
            "seed": 3,
            "models": models,
            "circuits": circuits,
            "j_layers": j_layers,
            "weights": weights,
            "out": os.path.join(tmp, "out"),
        }
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["pec", "--config", path])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().count("\n") == 1


@st.composite
def drawn_pec_configs(draw):
    """A 2-5 qubit topology on a random subset of qubit pairs (isolated
    qubits allowed) with 1-3 CZ layers on its edges, and small pec fields."""
    n = draw(st.integers(2, 5))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    layers = []
    for i in range(draw(st.integers(1, 3))):
        cz, used = [], set()
        for a, b in draw(st.permutations(edges)):
            if a not in used and b not in used and draw(st.booleans()):
                cz.append([a, b])
                used.update((a, b))
        layers.append({"label": f"L{i}", "cz": cz})
    return {
        "topology": {"n": n, "edges": [list(e) for e in edges]},
        "layers": layers,
        "baseline": draw(st.sampled_from(["unit_depth", "symmetry"])),
        "seed": draw(st.integers(0, 50)),
        "models": 1,
        "circuits": draw(st.integers(1, 3)),
        "j_layers": draw(st.integers(1, 4)),
        "weights": draw(st.lists(st.integers(0, n), min_size=1, max_size=2, unique=True)),
    }


@settings(max_examples=25, deadline=None)
@given(cfg=drawn_pec_configs())
def test_pec_fuzz_on_drawn_topologies(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = dict(cfg, out=os.path.join(tmp, "out"))
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["pec", "--config", path])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        if code:
            assert err.getvalue().count("\n") == 1
        else:
            with open(os.path.join(cfg["out"], "pec.csv"), newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == cfg["circuits"] * len(cfg["weights"])
            values = np.array([[float(r["O_c"]), float(r["O_m"])] for r in rows])
            assert np.all(np.isfinite(values)) and np.all(values > 0)


_NOISE = st.sampled_from([-1, 0, 1e-4, 1e-2, math.nan, math.inf, 1e200])


@st.composite
def drawn_command_configs(draw):
    """A 2-4 qubit topology on a random subset of qubit pairs with 1-3
    layers of CZ gates on its edges and single-qubit gates from the catalog
    on drawn qubits, and drawn seed and noise widths."""
    n = draw(st.integers(2, 4))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    layers = []
    for i in range(draw(st.integers(1, 3))):
        cz, used = [], set()
        for a, b in draw(st.permutations(edges)):
            if a not in used and b not in used and draw(st.booleans()):
                cz.append([a, b])
                used.update((a, b))
        layer = {"label": f"L{i}", "cz": cz}
        sq_qubits = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=2))
        if sq_qubits:
            layer["sq"] = {str(q): draw(st.sampled_from(sorted(CATALOG))) for q in sq_qubits}
        layers.append(layer)
    return {
        "topology": {"n": n, "edges": [list(e) for e in edges]},
        "layers": layers,
        "baseline": draw(st.sampled_from(["unit_depth", "symmetry"])),
        "seed": draw(st.integers(-3, 50)),
        "sigma": draw(_NOISE),
        "sigma_prime": draw(_NOISE),
        "models": draw(st.integers(1, 2)),
        "parallel": 1,
    }


@settings(max_examples=60, deadline=None)
@given(
    cfg=drawn_command_configs(),
    command=st.sampled_from(["generate-model", "learnability", "characterize", "fit"]),
)
def test_every_command_fuzz_exits_cleanly(cfg, command):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = dict(cfg, out=os.path.join(tmp, "out"))
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", path])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().count("\n") == 1
    # README: the commands that build a plan, and `learnability` with more
    # than one layer, refuse single-qubit gates in a layer that shares a
    # qubit with another layer.
    layers = cfg["layers"]
    builds_plan = command in ("characterize", "fit") or (
        command == "learnability" and len(layers) > 1
    )
    if builds_plan and shares_sq_qubits(layers):
        assert code == EXIT_CONFIG


def shares_sq_qubits(layers) -> bool:
    """Whether a layer with single-qubit gates shares a qubit with another layer."""
    supports = [
        {q for pair in l["cz"] for q in pair} | {int(q) for q in l.get("sq", {})} for l in layers
    ]
    return any(
        l.get("sq") and supports[i] & supports[j]
        for i, l in enumerate(layers) for j in range(len(layers)) if j != i
    )


class TestErrors:
    def test_missing_config_exit_code(self, tmp_path):
        assert main(["fit", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("models", [0, -2])
    def test_fit_without_models_rejected(self, tmp_path, capsys, models):
        path, _ = write_config(tmp_path, topology="square2x2", models=models)
        assert main(["fit", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: models") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["seed", "models", "circuits", "j_layers", "parallel"])
    def test_non_integral_numbers_rejected(self, tmp_path, capsys, field):
        for value in (2.7, True):
            path, _ = write_config(tmp_path, topology="square2x2", **{field: value})
            assert main(["generate-model", "--config", str(path)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {field} must be an integer")
            assert err.count("\n") == 1
            assert not (tmp_path / "out").exists()
        _, raw = write_config(tmp_path, topology="square2x2", **{field: 2.0})
        value = getattr(parse_config(raw), field)
        assert value == 2 and type(value) is int

    @pytest.mark.parametrize("command", ["generate-model", "learnability", "characterize", "fit", "pec"])
    def test_negative_seed_rejected(self, tmp_path, capsys, command):
        for extra, argv in (({"seed": -1}, []), ({}, ["--seed", "-1"])):
            path, _ = write_config(tmp_path, topology="square2x2", **extra)
            assert main([command, "--config", str(path), *argv]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error: seed") and err.count("\n") == 1
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["sigma", "sigma_prime"])
    @pytest.mark.parametrize("value", [-1, -1e-4, math.nan, math.inf, "0.1", True])
    def test_invalid_noise_rejected(self, tmp_path, capsys, field, value):
        # A negative or NaN width ran noiseless, an infinite one printed garbage.
        path, _ = write_config(tmp_path, topology="square2x2", **{field: value})
        assert main(["fit", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field} must be") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "value", ["mlcb", ["foo"], [], ["mlcb", "mlcb"], [["mlcb"]], None],
        ids=["string", "unknown", "empty", "repeated", "nested", "null"],
    )
    def test_invalid_pipelines_rejected(self, tmp_path, capsys, value):
        # Every sweep fits both pipelines; the removed option is an unknown key.
        path, _ = write_config(tmp_path, topology="square2x2", pipelines=value)
        assert main(["fit", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown config keys ['pipelines']")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [5, ["a"], ""], ids=["number", "list", "empty"])
    def test_non_string_out_rejected(self, tmp_path, capsys, value):
        # A number or list ended in a TypeError traceback once the report
        # was computed, an empty path in FileNotFoundError.
        path, _ = write_config(tmp_path, topology="garnet20", out=value)
        assert main(["learnability", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: out must be a non-empty string")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", [0, -1])
    def test_parallel_below_one_rejected(self, tmp_path, capsys, value):
        path, _ = write_config(tmp_path, topology="square2x2")
        runs = (
            ["fit", "--config", str(path), "--parallel", str(value)],
            ["repro", "fig5a", "--out", str(tmp_path / "out"), "--models", "1",
             "--parallel", str(value)],
        )
        for argv in runs:
            assert main(argv) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error: parallel") and err.count("\n") == 1
        path, _ = write_config(tmp_path, topology="square2x2", parallel=value)
        assert main(["fit", "--config", str(path)]) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_sweep_starts_at_most_models_workers(self, tmp_path, monkeypatch):
        sizes = recording_pool(monkeypatch)
        for models, parallel, want in ((2, 64, [2]), (1, 64, []), (3, 2, [2])):
            sizes.clear()
            path, _ = write_config(tmp_path, topology="square2x2", models=models)
            assert main(["fit", "--config", str(path), "--parallel", str(parallel)]) == 0
            assert sizes == want

    def test_sweep_starts_at_most_cpu_count_workers(self, tmp_path, monkeypatch):
        # The stand-in pool starts no process, whatever size it records.
        sizes = recording_pool(monkeypatch, cpus=2)
        path, _ = write_config(tmp_path, topology="square2x2", models=3)
        assert main(["fit", "--config", str(path), "--parallel", "1000000"]) == 0
        assert sizes == [2]

    def test_failed_rank_certificate_ends_numeric(self, tmp_path, monkeypatch, capsys):
        # Null vectors that fail their exact check on every side and prime
        # leave no proven rank: `learnability` ends in a numerical failure.
        null_space = exactla._null_space_mod

        def corrupted(mat, p):
            free, null = null_space(mat, p)
            null[:, :1] += 1
            return free, null

        monkeypatch.setattr(exactla, "_null_space_mod", corrupted)
        path, _ = write_config(tmp_path, topology="square2x2")
        assert main(["learnability", "--config", str(path)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numerical failure: no rank certificate")

    def test_fit_outside_kkt_contract_ends_numeric(self, tmp_path, monkeypatch, capsys):
        # Symmetric noise of 1e-8 max|H| on one garnet20 layer's inverse Gram
        # leaves its fits above the 1e-10 KKT contract (about 2e-6 and 9e-8):
        # `fit` ends in a numerical failure, one line naming the layer, the
        # pipeline and the residual, and writes no metrics.
        def perturbed(cfg):
            plan = _plan(cfg)
            h = plan.layers["B"].inv_gram
            noise = np.random.default_rng(0).standard_normal(h.shape)
            h += (noise + noise.T) * 0.5e-8 * np.abs(h).max()
            return plan

        monkeypatch.setattr(cli, "_plan", perturbed)
        path, cfg = write_config(tmp_path, topology="garnet20", layers="closed_squares", models=1)
        assert main(["fit", "--config", str(path)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("numerical failure: layer 'B' ") and "KKT residual" in err
        assert not os.path.exists(os.path.join(cfg["out"], "metrics.csv"))

    def test_full_rank_layer_without_finite_inverse_ends_numeric(self, tmp_path, monkeypatch, capsys):
        # An inverse Gram that is not finite fails the bound; the exact rank
        # finds the layer full rank, and `fit` ends in a numerical failure,
        # one line naming the first layer, before any model is drawn.
        monkeypatch.setattr(np.linalg, "inv", lambda a: np.full(np.shape(a), np.nan))
        path, cfg = write_config(tmp_path, topology="square2x2")
        assert main(["fit", "--config", str(path)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"numerical failure: layer '\w+': full-rank fit matrix has no finite inverse Gram\n", err
        )
        assert not os.path.exists(os.path.join(cfg["out"], "metrics.csv"))

    @pytest.mark.parametrize(
        "command, output",
        [("learnability", "learnability.json"), ("fit", "metrics.csv"), ("pec", "pec.csv")],
    )
    def test_failed_ratio_certificate_ends_numeric(self, tmp_path, monkeypatch, capsys, command, output):
        # An exact solve that finds nothing leaves the first scheduled ratio
        # without a certificate: the command ends in a numerical failure, one
        # line naming the qubit and the layer pair, and writes no output.
        monkeypatch.setattr(exactla, "solve_rational", lambda columns, target: None)
        path, cfg = write_config(tmp_path)
        assert main([command, "--config", str(path)]) == EXIT_NUMERIC
        assert re.fullmatch(
            r"numerical failure: no certificate for the ratio of qubit \d+ on layers '\w', '\w': "
            r"exact solve failed on the support found mod p\n",
            capsys.readouterr().err,
        )
        assert not os.path.exists(os.path.join(cfg["out"], output))

    @pytest.mark.parametrize("sigma", [1e200, 1e308])
    @pytest.mark.parametrize("command", ["characterize", "fit", "pec"])
    def test_huge_noise_ends_cleanly(self, tmp_path, capsys, sigma, command):
        # Records far outside (0, 1] fit or end in a numerical failure (a
        # width of 1e308 overflows to infinite records), never in a traceback.
        path, _ = write_config(tmp_path, topology="square2x2", sigma=sigma, sigma_prime=sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", str(path)])
        err = capsys.readouterr().err
        assert code in (0, EXIT_NUMERIC)
        if code:
            assert err.startswith("numerical failure: non-finite noisy record on layer")
            assert err.count("\n") == 1
        else:
            assert err == ""

    @pytest.mark.parametrize(
        "overrides, reason",
        [
            # O finite (up to about 1e189), its spread beyond the float range.
            ({"sigma": 1.0, "j_layers": 100, "circuits": 2}, "PEC summary at weight 2"),
            # Every O finite near 1e160, np.std's squares overflow.
            ({"sigma": 10.0, "j_layers": 40, "circuits": 4}, "PEC summary at weight 2"),
            # O itself overflows.
            ({"sigma": 1.0, "j_layers": 200, "circuits": 2}, "PEC observable of model 0 at weight 2"),
        ],
        ids=["std_overflow", "std_overflow_finite_o", "o_overflow"],
    )
    def test_pec_overflow_ends_numeric(self, tmp_path, capsys, overrides, reason):
        # A non-finite observable or summary is never written: exit 4, one
        # line, no warning and neither output file.
        cfg = {"topology": "square2x2", "layers": "open_chains", "weights": [2], **overrides}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["pec", "--config", str(path), "--out", str(out)])
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err == f"numerical failure: {reason} is not finite\n"
        assert not (out / "pec.csv").exists() and not (out / "pec_summary.json").exists()

    # One CZ and an S gate on an idle qubit: no low-accuracy row constrains
    # the S qubit's X and Y directions, so the fit matrix has rank 42 of 48.
    SQ_RANK = dict(
        topology="square2x2",
        layers=[{"label": "A", "cz": [[0, 1]], "sq": {"2": "S"}}],
        sigma=0,
        sigma_prime=0,
    )

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("fit", {}),
            ("fit", {"parallel": 2}),
            ("pec", {"weights": [2]}),
            ("pec", {"weights": [2], "parallel": 2}),
        ],
        ids=["fit", "fit_parallel", "pec", "pec_parallel"],
    )
    def test_rank_deficiency_exit_code(self, tmp_path, capsys, command, extra):
        path, _ = write_config(tmp_path, **self.SQ_RANK, **extra)
        assert main([command, "--config", str(path)]) == EXIT_RANK
        err = capsys.readouterr().err
        assert err.startswith("rank deficiency:") and err.count("\n") == 1
        assert "layer 'A'" in err and "Traceback" not in err
        names = err.split("include", 1)[1].split()
        assert names and all(name[2] in "XY" for name in names)

    def test_bad_scheme_exit_code(self, tmp_path):
        path, _ = write_config(tmp_path, layers="bogus_scheme")
        assert main(["fit", "--config", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_overlapping_gates_exit_code(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            topology={"n": 3, "edges": [[0, 1], [1, 2]]},
            layers=[{"label": "B", "cz": [[0, 1], [1, 2]]}],
        )
        assert main(["generate-model", "--config", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config",
        [
            {"layers": [{"label": "A", "cz": [[0, 1]]}, {"label": "A", "cz": [[2, 3]]}]},
            {"layers": [{"label": "A", "cz": [[0, 3]]}]},  # 0-3 is a diagonal of the square
            {"layers": ["A"]},
            {"layers": [{"label": "A", "cz": [[0, 1]], "sq": ["S"]}]},
            {"layers": [{"label": "A", "cz": [[0, 1]], "sq": "S"}]},
            {"layers": [{"label": 5, "cz": [[0, 1]]}]},
            # 1.0 and true equal the qubit 1 in every set and range check.
            {"layers": [{"label": "A", "cz": [[0, 1.0]]}]},
            {"layers": [{"label": "A", "cz": [[True, 0]]}]},
            {"layers": [{"label": "A", "cz": [[0]]}]},
            {"layers": [{"label": "A", "cz": [[0, 1, 3]]}]},
            # int() reads "02" as qubit 2.
            {"layers": [{"label": "A", "cz": [[0, 1]], "sq": {"2": "H", "02": "S"}}]},
            {"layers": [{"label": "A", "cz": [[0, 1]], "sq": {"2": "H", "02": "H"}}]},
            # These named the gate as a bare key, or a Python TypeError.
            {"layers": [{"label": "A", "cz": [[0, 1]], "sq": {"2": "Q"}}]},
            {"layers": [{"label": "A", "cz": [[0, 1]], "sq": {"2": 5}}]},
            {"layers": [{"label": "A", "cz": [[0, 1]], "sq": {"2": ["H"]}}]},
            {
                "topology": {"n": 4, "edges": [[0, 1.0], [2, 3], [0, 2], [1, 3]]},
                "layers": [{"label": "A", "cz": [[0, 2]]}],
            },
        ],
        ids=[
            "duplicate_labels", "cz_on_non_edge", "layer_as_string", "sq_as_list",
            "sq_as_string", "label_not_string", "cz_float_qubit", "cz_bool_qubit",
            "cz_one_qubit", "cz_three_qubits", "sq_two_gates_one_qubit",
            "sq_same_gate_twice_one_qubit", "edge_float_qubit", "sq_unknown_gate",
            "sq_gate_number", "sq_gate_list",
        ],
    )
    def test_silently_wrong_layers_rejected(self, tmp_path, capsys, config):
        path, _ = write_config(tmp_path, **{"topology": "square2x2", **config})
        assert main(["generate-model", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("gate", ["Q", 5, ["H"]])
    def test_unknown_sq_gate_named(self, tmp_path, capsys, gate):
        layers = [{"label": "A", "cz": [[0, 1]], "sq": {"2": gate}}]
        path, _ = write_config(tmp_path, topology="square2x2", layers=layers)
        assert main(["generate-model", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: layer 'A': unknown single-qubit gate {gate!r} on qubit 2; "
            f"choose from {sorted(CATALOG)}\n"
        )
        assert not (tmp_path / "out").exists()

    COMMANDS = ["generate-model", "learnability", "characterize", "fit", "pec"]

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "key, value", [("sigma_prim", 0.5), ("schemes", ["open_chains"])],
        ids=["mistyped", "repro_only"],
    )
    def test_unknown_config_key_rejected(self, tmp_path, capsys, command, key, value):
        # A mistyped sigma_prime ran on the default, a repro-only key was ignored.
        path, _ = write_config(tmp_path, topology="square2x2", **{key: value})
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: unknown config keys [{key!r}]; "
            f"a config takes {list(cli.CONFIG_KEYS)}\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "topology",
        ["square2x2x2", {"preset": "square2x"}, "square2x", "square-1x2", "square 2x2",
         "square\u0662x2"],
        ids=["three_sizes", "missing_height", "missing_height_string", "negative", "space",
             "arabic_indic_digit"],
    )
    def test_malformed_preset_rejected(self, tmp_path, capsys, command, topology):
        # These ended in "too many values to unpack" or an int() message,
        # blamed a qubit count of -2, or read a space or a non-ASCII digit.
        path, _ = write_config(tmp_path, topology=topology, layers=[{"label": "A"}])
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        name = topology if isinstance(topology, str) else topology["preset"]
        assert f"unknown topology preset {name!r}; use garnet20 or squareWxH" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "topology",
        [{"n": 0, "edges": []}, "square0x0", {"n": -1, "edges": []},
         {"n": 2.5, "edges": []}, {"n": "3", "edges": []}, {"n": True, "edges": []}],
        ids=["zero", "square0x0", "negative", "fraction", "string", "bool"],
    )
    def test_invalid_qubit_count_rejected(self, tmp_path, capsys, command, topology):
        # These ended in reshape or TypeError tracebacks, or in a misleading
        # message; generate-model wrote |K| = 0 models for n = 0.
        path, _ = write_config(tmp_path, topology=topology, layers=[{"label": "A"}])
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "qubit count n must be an integer >= 1" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["generate-model", "learnability", "characterize", "fit"])
    def test_empty_layers_rejected(self, tmp_path, capsys, command):
        # fit wrote delta_c = delta_m = 0 with no ratio, characterize 0 records.
        path, _ = write_config(tmp_path, topology="square2x2", layers=[])
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: layers") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_layers_take_the_topology_qubit_count(self, tmp_path, capsys):
        # A per-layer "n" is not part of the layer spec and is ignored; it
        # used to end in a traceback when it differed from the topology's.
        layers = [{"label": "A", "n": 3, "cz": [[0, 1]]}]
        path, _ = write_config(tmp_path, topology="square2x2", layers=layers)
        assert main(["generate-model", "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""
        model = json.loads((tmp_path / "out" / "model_A.json").read_text())
        assert len(model["lambdas"]) == 3 * 4 + 9 * 4

    # README's custom-layer form: an S gate in a layer that shares qubits
    # with another layer, which the ratio certificates cannot decompose.
    SQ_LAYERS = [
        {"label": "A", "cz": [[0, 1], [2, 3]], "sq": {"0": "S"}},
        {"label": "B", "cz": [[0, 2], [1, 3]]},
    ]

    @pytest.mark.parametrize("command", ["learnability", "characterize", "fit", "pec"])
    def test_sq_layer_rejected_by_plan_commands(self, tmp_path, capsys, command):
        path, _ = write_config(tmp_path, topology="square2x2", layers=self.SQ_LAYERS)
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "'A'" in err and "sq" in err
        assert not (tmp_path / "out").exists()

    def test_sq_layer_accepted_by_generate_model(self, tmp_path):
        path, _ = write_config(tmp_path, topology="square2x2", layers=self.SQ_LAYERS)
        assert main(["generate-model", "--config", str(path)]) == 0
        assert (tmp_path / "out" / "model_A.json").exists()

    # Named single-qubit gates in layers that share no qubit with another
    # layer: one without CZ gates, one beside a CZ.  The plan commands run;
    # no low-accuracy row constrains the gated qubits' other directions.
    ISOLATED_SQ = dict(
        topology="square3x3",
        layers=[
            {"label": "A", "cz": [[0, 1]]},
            {"label": "B", "cz": [[1, 2]]},
            {"label": "C", "sq": {"3": "H", "4": "SX", "5": "Sdg"}},
            {"label": "D", "cz": [[6, 7]], "sq": {"8": "S"}},
        ],
    )

    ISOLATED_SQ_FIT_ERR = (
        "rank deficiency: layer 'C' fit matrix has rank 106 < 135, unconstrained generators "
        "include IIIXIIIII IIIIYIIII IIIIIXIII XIIXIIIII; layer 'D' fit matrix has rank "
        "129 < 135, unconstrained generators include IIIIIIIIX IIIIIXIIX IIIIIYIIX IIIIIZIIX\n"
    )

    def test_isolated_sq_layers_outputs_pinned(self, tmp_path):
        # The existing pinned digests cover CZ-only plans; these fix the
        # report and the records of plans with single-qubit gates.
        path, _ = write_config(tmp_path, **self.ISOLATED_SQ)
        assert main(["learnability", "--config", str(path)]) == 0
        assert main(["characterize", "--config", str(path)]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in ("learnability.json", "records.json")
        }
        assert digests == {
            "learnability.json": "9721cf74b60266266bcdc635a9aafd1d2cb3edfab4f2fb74f8e8c3613b5287d1",
            "records.json": "59e8c49a9f6d56b4fd9160daff35af72d630a20a3f8b2ca48634e8560c9f6b27",
        }

    def test_isolated_sq_layers_fit_rank_deficient(self, tmp_path, capsys):
        # Certified ranks, and the first unconstrained generators in
        # generator order.
        path, _ = write_config(tmp_path, **self.ISOLATED_SQ)
        assert main(["fit", "--config", str(path)]) == EXIT_RANK
        assert capsys.readouterr().err == self.ISOLATED_SQ_FIT_ERR

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "shape",
        [[1, 2], "garnet20", {"topology": 5}, {"topology": ["garnet20"]},
         {"topology": {"preset": 5}}],
        ids=["root_list", "root_string", "topology_number", "topology_list", "preset_number"],
    )
    def test_bad_config_shape_rejected(self, tmp_path, capsys, command, shape):
        # These ended in AttributeError tracebacks.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(shape))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [*COMMANDS, "repro"])
    @pytest.mark.parametrize("kind", ["existing_file", "under_a_file", "null_byte"])
    def test_unusable_out_rejected_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, kind
    ):
        # These ended in FileExistsError, NotADirectoryError or ValueError
        # tracebacks, most of them only after all the work.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = {
            "existing_file": str(blocker), "under_a_file": str(blocker / "out"),
            "null_byte": str(tmp_path / "a\0b"),
        }[kind]
        for name in ("_plan", "analyze_layer", "random_model"):
            monkeypatch.setattr(cli, name, mock.Mock(side_effect=AssertionError("work started")))
        if command == "repro":
            argv = ["repro", "fig5a", "--out", out, "--models", "1"]
        else:
            path, _ = write_config(tmp_path, topology="square2x2")
            argv = [command, "--config", str(path), "--out", out]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot use out {out!r}") and err.count("\n") == 1
        assert blocker.read_text() == ""


class TestRepro:
    def test_fig6_smoke(self, tmp_path):
        assert main(["repro", "fig6", "--out", str(tmp_path), "--models", "1"]) == 0
        with open(tmp_path / "pec.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 * 10 * 2
        assert {r["W"] for r in rows} == {"2", "20"}

    @pytest.mark.parametrize("figure, rows", [("fig5a", 2 * 2), ("fig5b", 5 * 2)])
    def test_sweep_parallel_matches_serial(self, tmp_path, figure, rows):
        for n in ("1", "2"):
            argv = ["repro", figure, "--out", str(tmp_path / n), "--models", "2", "--parallel", n]
            assert main(argv) == 0
        serial = (tmp_path / "1" / f"{figure}.csv").read_text()
        assert serial.count("\n") == 1 + rows
        assert (tmp_path / "2" / f"{figure}.csv").read_text() == serial

    @pytest.mark.parametrize("figure, flag, value", [
        pytest.param("fig5a", "--models", 0, id="fig5a-0"),
        pytest.param("fig5b", "--models", 0, id="fig5b-0"),
        pytest.param("fig5b", "--models", -2, id="fig5b--2"),
        pytest.param("fig6", "--models", 0, id="fig6-0"),
        *(
            pytest.param(figure, "--parallel", value, id=f"{figure}-parallel{value}")
            for figure in ("fig5a", "fig5b", "fig6")
            for value in (0, -1)
        ),
        *(
            pytest.param(figure, "--out", "", id=f"{figure}-out-empty")
            for figure in ("fig5a", "fig5b", "fig6")
        ),
    ])
    def test_sweep_without_models_rejected(self, tmp_path, capsys, figure, flag, value):
        # A bad sweep size, worker count or output path ends before any work.
        out = tmp_path / "out"
        assert main(["repro", figure, "--out", str(out), flag, str(value)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {flag[2:]}") and err.count("\n") == 1
        assert not out.exists()


_REJECTED = st.integers(-(10**9), 0)


@settings(max_examples=20, deadline=None)
@given(
    figure=st.sampled_from(sorted(cli.REPRO_CONFIGS)),
    sizes=st.tuples(
        st.one_of(st.none(), _REJECTED, st.integers(1, 10**6)),
        st.one_of(_REJECTED, st.integers(1, 10**6)),
    ).filter(lambda s: s[1] < 1 or (s[0] is not None and s[0] < 1)),
)
def test_repro_fuzz_rejected_before_any_plan(figure, sizes):
    # A sweep size or worker count below one ends in one line, before a plan
    # is built or anything is written.
    models, parallel = sizes
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        argv = ["repro", figure, "--out", out, "--parallel", str(parallel)]
        if models is not None:
            argv += ["--models", str(models)]
        err = io.StringIO()
        no_plan = mock.patch.object(cli, "_plan", side_effect=AssertionError("a plan was built"))
        with no_plan, contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code == EXIT_CONFIG
        assert err.getvalue().startswith("config error: ") and err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue()
        assert not os.path.exists(out)
