import contextlib
import csv
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclebench import cli
from cyclebench.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_RANK, _plan, main, parse_config
from cyclebench.exactla import rank_checked
from cyclebench.layers import CATALOG
from cyclebench.learnability import orbit_learnables, product_rows
from cyclebench.pauli import PauliString
from cyclebench.spl import GeneratorSet
from cyclebench.pipeline import generate_models, model_rng, noisy_records


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
        # The S-only layer's plan Gram is rank-deficient; the report, which
        # fits nothing, still covers it.
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
            rows = product_rows(gens, orbit_learnables(layer, gens))
            full = np.vstack([rows] + [gens.overlaps(p) for p in basis])
            assert rank_checked(full) == len(gens) == entry["generators"]
        assert len(report["layers"]["C"]["unlearnable_basis"]) == 7

    def test_recovery_counts(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert main(["learnability", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "learnability.json").read_text())
        for q, entry in report["mlcb"]["per_qubit"].items():
            assert entry["recovered"] == entry["layers"] - 1


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
        assert len(lows) == (baseline == "unit_depth") * sum(map(len, plan.low_qubits.values()))

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
        main(["fit", "--config", str(path)])
        serial = (tmp_path / "out" / "metrics.csv").read_text()
        main(["fit", "--config", str(path), "--parallel", "2"])
        assert (tmp_path / "out" / "metrics.csv").read_text() == serial

    def test_pec_outputs(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert main(["pec", "--config", str(path)]) == 0
        with open(tmp_path / "out" / "pec.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == cfg["models"] * cfg["circuits"] * len(cfg["weights"])
        summary = json.loads((tmp_path / "out" / "pec_summary.json").read_text())
        assert "2" in summary["by_weight"] or 2 in summary["by_weight"]


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
_PIPELINES = st.sampled_from([
    ["conventional", "mlcb"], ["mlcb", "conventional"], ["mlcb"], ["conventional"],
    "mlcb", [], ["foo"], ["mlcb", "mlcb"],
])


@st.composite
def drawn_command_configs(draw):
    """A 2-4 qubit topology on a random subset of qubit pairs with 1-3
    layers of CZ gates on its edges and single-qubit gates from the catalog
    on drawn qubits, and drawn seed, noise widths and pipelines."""
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
        "pipelines": draw(_PIPELINES),
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
    # README: the commands that build a plan refuse single-qubit gates in a
    # layer that shares a qubit with another layer.
    layers = cfg["layers"]
    builds_plan = command in ("characterize", "fit") or (
        command == "learnability" and len(layers) > 1 and any(l["cz"] for l in layers)
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
        path, _ = write_config(tmp_path, topology="square2x2", pipelines=value)
        assert main(["fit", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: pipelines") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_single_pipeline_fits(self, tmp_path):
        path, _ = write_config(tmp_path, topology="square2x2", pipelines=["mlcb"])
        assert main(["fit", "--config", str(path)]) == 0
        with open(tmp_path / "out" / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(math.isnan(float(r["delta_c"])) and float(r["delta_m"]) > 0 for r in rows)

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
        # A stand-in pool records its size and maps in this process.
        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        monkeypatch.setattr(cli.multiprocessing, "Pool", RecordingPool)
        for models, parallel, want in ((2, 64, [2]), (1, 64, []), (3, 2, [2])):
            sizes.clear()
            path, _ = write_config(tmp_path, topology="square2x2", models=models)
            assert main(["fit", "--config", str(path), "--parallel", str(parallel)]) == 0
            assert sizes == want

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
        [("fit", {}), ("fit", {"parallel": 2}), ("pec", {"weights": [2]})],
        ids=["fit", "fit_parallel", "pec"],
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

    def test_overlapping_gates_exit_code(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            topology={"n": 3, "edges": [[0, 1], [1, 2]]},
            layers=[{"label": "B", "cz": [[0, 1], [1, 2]]}],
        )
        assert main(["generate-model", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "layers",
        [
            [{"label": "A", "cz": [[0, 1]]}, {"label": "A", "cz": [[2, 3]]}],
            [{"label": "A", "cz": [[0, 3]]}],  # 0-3 is a diagonal of the square
            ["A"],
            [{"label": "A", "cz": [[0, 1]], "sq": ["S"]}],
            [{"label": "A", "cz": [[0, 1]], "sq": "S"}],
            [{"label": 5, "cz": [[0, 1]]}],
        ],
        ids=[
            "duplicate_labels", "cz_on_non_edge", "layer_as_string", "sq_as_list",
            "sq_as_string", "label_not_string",
        ],
    )
    def test_silently_wrong_layers_rejected(self, tmp_path, capsys, layers):
        path, _ = write_config(tmp_path, topology="square2x2", layers=layers)
        assert main(["generate-model", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
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

    def test_sq_layer_accepted_by_generate_model(self, tmp_path):
        path, _ = write_config(tmp_path, topology="square2x2", layers=self.SQ_LAYERS)
        assert main(["generate-model", "--config", str(path)]) == 0
        assert (tmp_path / "out" / "model_A.json").exists()


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

    @pytest.mark.parametrize("figure, models", [("fig5a", 0), ("fig5b", 0), ("fig5b", -2)])
    def test_sweep_without_models_rejected(self, tmp_path, capsys, figure, models):
        out = tmp_path / "out"
        assert main(["repro", figure, "--out", str(out), "--models", str(models)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: models") and err.count("\n") == 1
        assert not out.exists()
