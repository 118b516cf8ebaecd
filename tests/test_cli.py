import csv
import json
import os

import pytest

from cyclebench.cli import EXIT_CONFIG, main


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
        data = json.load(open(tmp_path / "out" / "model_B.json"))
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
        report = json.load(open(tmp_path / "out" / "learnability.json"))
        assert report["layers"]["C"]["unlearnable_dof"] == 2

    def test_identity_layer_no_unlearnable(self, tmp_path):
        path, cfg = write_config(
            tmp_path,
            topology={"n": 2, "edges": [[0, 1]]},
            layers=[{"label": "I", "cz": []}],
        )
        assert main(["learnability", "--config", str(path)]) == 0
        report = json.load(open(tmp_path / "out" / "learnability.json"))
        assert report["layers"]["I"]["unlearnable_dof"] == 0

    def test_recovery_counts(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert main(["learnability", "--config", str(path)]) == 0
        report = json.load(open(tmp_path / "out" / "learnability.json"))
        for q, entry in report["mlcb"]["per_qubit"].items():
            assert entry["recovered"] == entry["layers"] - 1


class TestCharacterizeFitPec:
    def test_characterize_writes_records(self, tmp_path):
        path, cfg = write_config(tmp_path)
        assert main(["characterize", "--config", str(path)]) == 0
        data = json.load(open(tmp_path / "out" / "records.json"))
        assert data["schema"] == "fidelity-records/1"
        kinds = {r["provenance"].split(":")[0] for r in data["records"]}
        assert kinds == {"orbit", "mlcb"}

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
        summary = json.load(open(tmp_path / "out" / "pec_summary.json"))
        assert "2" in summary["by_weight"] or 2 in summary["by_weight"]


class TestErrors:
    def test_missing_config_exit_code(self, tmp_path):
        assert main(["fit", "--config", str(tmp_path / "nope.json")]) == 2

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
        ],
        ids=["duplicate_labels", "cz_on_non_edge"],
    )
    def test_silently_wrong_layers_rejected(self, tmp_path, capsys, layers):
        path, _ = write_config(tmp_path, topology="square2x2", layers=layers)
        assert main(["generate-model", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

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
