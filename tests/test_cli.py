"""Command-line workflows end to end, via main(argv)."""

import csv
import json

import pytest

from schemamatch.chimeric import load_model
from schemamatch.cli import main
from schemamatch.core import ScenarioSpec
from schemamatch.matcher import proposals_from_csv


def _synth(tmp_path, seed=3):
    out = tmp_path / "scen"
    rc = main([
        "synth", "--family", "gaussian", "--dim", "6", "--factor-dim", "3",
        "--n-samples", "300", "--k-mapped", "2", "--seed", str(seed),
        "--out", str(out),
    ])
    assert rc == 0
    return out


def _pair_args(d):
    return ["--a", str(d / "a.csv"), "--b", str(d / "b.csv"),
            "--mapped-a", str(d / "a.mapped"), "--mapped-b", str(d / "b.mapped")]


def test_synth_match_eval_round_trip(tmp_path, capsys):
    d = _synth(tmp_path)
    for name in ("a.csv", "b.csv", "a.mapped", "b.mapped", "scenario.json"):
        assert (d / name).exists()
    scenario = ScenarioSpec.from_json((d / "scenario.json").read_text())
    assert len(scenario.gold_map) == 4

    props_path = tmp_path / "proposals.csv"
    rc = main(["match", *_pair_args(d), "--normalize", "--method", "kmf",
               "--seed", "1", "--out", str(props_path)])
    assert rc == 0
    proposals = proposals_from_csv(props_path)
    assert len(proposals) == 4

    out_path = tmp_path / "eval.txt"
    rc = main(["eval", "--proposals", str(props_path),
               "--scenario", str(d / "scenario.json"), "--out", str(out_path)])
    assert rc == 0
    shown = capsys.readouterr().out.strip()
    assert shown.startswith("tp=")
    assert "n_gold=4" in shown
    assert out_path.read_text().strip() == shown


@pytest.mark.parametrize("method, config", [
    ("kang", {"iterations": 200, "metric": "normal"}),
    ("chimeric", {"latent_dim": 2, "hidden": [6, 3], "epochs": 2}),
])
def test_match_reads_method_config(tmp_path, method, config):
    d = _synth(tmp_path, seed=6)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    props_path = tmp_path / "proposals.csv"
    rc = main(["match", *_pair_args(d), "--normalize", "--method", method,
               "--config", str(cfg_path), "--out", str(props_path)])
    assert rc == 0
    assert proposals_from_csv(props_path)


def test_translate_writes_rows_and_model(tmp_path):
    d = _synth(tmp_path, seed=4)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"latent_dim": 2, "hidden": [6, 3], "epochs": 2}))
    z_path = tmp_path / "translated.csv"
    model_path = tmp_path / "model.npz"
    rc = main(["translate", *_pair_args(d), "--normalize",
               "--direction", "a_to_b", "--config", str(cfg_path),
               "--model-out", str(model_path), "--out", str(z_path)])
    assert rc == 0
    with open(z_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 150  # A holds half of the source rows
    assert len(rows[0]) == 6
    model = load_model(model_path)
    assert model.config.latent_dim == 2


def test_tune_reports_grid_scores(tmp_path, capsys):
    d = _synth(tmp_path, seed=5)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(
        [{"latent_dim": 2, "hidden": [4, 4]}, {}]))
    out_path = tmp_path / "tune.json"
    rc = main(["tune", *_pair_args(d), "--method", "kmf",
               "--grid", str(grid_path), "--out", str(out_path)])
    assert rc == 0
    shown = json.loads(capsys.readouterr().out)
    stored = json.loads(out_path.read_text())
    assert shown == stored
    assert set(stored) == {"best_index", "best_score", "mean_scores",
                           "best_config"}
    assert len(stored["mean_scores"]) == 2
    assert stored["best_config"] == [{"latent_dim": 2, "hidden": [4, 4]}, {}][
        stored["best_index"]]


def test_bench_prints_summary_path(tmp_path, capsys):
    cfg = {
        "name": "cli-smoke", "family": "independent_gaussian", "dim": 6,
        "n_samples": 300, "sweep": "k_mapped", "sweep_values": [2],
        "methods": ["kmf"], "n_trials": 1, "n_perms": 1, "master_seed": 4,
    }
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "bench"
    rc = main(["bench", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 0
    shown = capsys.readouterr().out.strip()
    assert shown.endswith("summary.csv")
    with open(shown) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "value,method,n,mean_f1,sd_f1"
    assert len(lines) == 2


def test_failures_exit_nonzero(tmp_path):
    rc = main(["eval", "--proposals", str(tmp_path / "missing.csv"),
               "--scenario", str(tmp_path / "missing.json")])
    assert rc == 1


def test_bench_rejects_misspelled_config_key(tmp_path, caplog):
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({"methods": ["kmf"], "n_trial": 1}))
    rc = main(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "bench")])
    assert rc == 1
    assert "n_trial" in caplog.text


def test_match_rejects_non_finite_cell(tmp_path, caplog):
    d = _synth(tmp_path)
    lines = (d / "a.csv").read_text().splitlines()
    cells = lines[4].split(",")
    cells[-1] = "inf"
    lines[4] = ",".join(cells)
    (d / "a.csv").write_text("\n".join(lines) + "\n")
    column = lines[0].split(",")[-1]
    rc = main(["match", *_pair_args(d), "--out", str(tmp_path / "p.csv")])
    assert rc == 1
    assert f"line 5, column '{column}'" in caplog.text
