"""Command-line workflows end to end, via main(argv)."""

import csv
import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from schemamatch.chimeric import load_model
from schemamatch.cli import main
from schemamatch.core import ScenarioSpec
from schemamatch.matcher import _COLUMNS, proposals_from_csv
from helpers import csv_and_sidecar


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


def test_match_rejects_a_kmf_config(tmp_path, caplog):
    d = _synth(tmp_path, seed=6)
    out = tmp_path / "p.csv"
    rc = main(["match", *_pair_args(d), "--method", "kmf",
               "--config", str(tmp_path / "absent.json"), "--out", str(out)])
    assert rc == 1
    assert _one_error(caplog) == "kmf reads no config; there is nothing to tune"
    assert not out.exists()


def test_match_rejects_mistyped_config_value(tmp_path, caplog):
    d = _synth(tmp_path, seed=6)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"epochs": "40"}))
    rc = main(["match", *_pair_args(d), "--method", "chimeric",
               "--config", str(cfg_path), "--out", str(tmp_path / "p.csv")])
    assert rc == 1
    assert "ChimericConfig.epochs must be int" in caplog.text


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
    grid = [{}, {"bins": 2}]  # on this scenario the coarser bins recover more
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    out_path = tmp_path / "tune.json"
    rc = main(["tune", *_pair_args(d), "--method", "kang",
               "--grid", str(grid_path), "--out", str(out_path)])
    assert rc == 0
    shown = json.loads(capsys.readouterr().out)
    stored = json.loads(out_path.read_text())
    assert shown == stored
    assert set(stored) == {"best_index", "best_score", "mean_scores",
                           "best_config"}
    first, second = stored["mean_scores"]
    assert first != second
    assert stored["best_index"] == int(second > first)
    assert stored["best_score"] == max(first, second)
    assert stored["best_config"] == grid[stored["best_index"]]


def test_tune_rejects_zero_folds(tmp_path, capsys, caplog):
    d = _synth(tmp_path, seed=5)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps([{}]))
    rc = main(["tune", *_pair_args(d), "--method", "kang", "--protocol", "half_split",
               "--folds", "0", "--grid", str(grid_path)])
    assert rc == 1
    assert capsys.readouterr().out == ""  # no NaN score printed
    assert "folds >= 1" in caplog.text


def test_tune_rejects_kmf(tmp_path, capsys, caplog):
    d = _synth(tmp_path, seed=5)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps([{}, {}]))
    rc = main(["tune", *_pair_args(d), "--method", "kmf", "--grid", str(grid_path)])
    assert rc == 1
    assert capsys.readouterr().out == ""
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["kmf reads no config; there is nothing to tune"]


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


def test_bench_rejects_bad_config_values(tmp_path, caplog):
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({
        "settings": {"measure": "spearman", "fdr_q": 1.5}, "kang": {"bins": 1},
    }))
    out_dir = tmp_path / "bench"
    rc = main(["bench", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 1
    assert len(caplog.records) == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("key", ["n_trials", "n_perms"])
def test_bench_rejects_zero_replicates(tmp_path, caplog, key):
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({
        "methods": ["kmf"], key: 0, "dim": 6, "factor_dim": 3, "n_samples": 300,
    }))
    out_dir = tmp_path / "bench"
    rc = main(["bench", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 1
    assert len(caplog.records) == 1
    assert key in caplog.text
    assert not out_dir.exists()


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


def test_tune_rejects_kmf_before_reading_the_grid(tmp_path, capsys, caplog):
    """A kmf grid entry is never decoded, so a key no config has cannot hide
    the reason kmf is rejected."""
    d = _synth(tmp_path, seed=5)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps([{"bins": 2}]))
    rc = main(["tune", *_pair_args(d), "--method", "kmf", "--grid", str(grid_path)])
    assert rc == 1
    assert capsys.readouterr().out == ""
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["kmf reads no config; there is nothing to tune"]


def test_parser_choices_are_the_library_tuples():
    from schemamatch import chimeric, core, pipeline, synthgen
    from schemamatch.cli import build_parser

    subs = next(a for a in build_parser()._actions if a.dest == "command").choices
    choices = {(name, a.dest): tuple(a.choices) for name, p in subs.items()
               for a in p._actions if a.choices is not None}
    assert choices == {
        ("synth", "family"): synthgen.FAMILIES,
        ("synth", "map_kind"): core.MAP_KINDS,
        ("match", "method"): pipeline.METHODS,
        ("translate", "direction"): chimeric.TRANSLATION_DIRECTIONS,
        ("tune", "protocol"): pipeline.PROTOCOLS,
        ("tune", "method"): pipeline.METHODS,
    }


def _one_error(caplog):
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1
    return errors[0]


def test_match_names_the_ragged_line(tmp_path, caplog):
    d = _synth(tmp_path)
    lines = (d / "a.csv").read_text().splitlines()
    lines[3] += ",0.5"
    (d / "a.csv").write_text("\n".join(lines) + "\n")
    rc = main(["match", *_pair_args(d), "--out", str(tmp_path / "p.csv")])
    assert rc == 1
    width = len(lines[0].split(","))
    assert _one_error(caplog) == (f"{d / 'a.csv'}: line 4 has {width + 1} cells, "
                                  f"the header has {width}")


def test_match_names_the_sidecar_line_of_a_bad_weight(tmp_path, caplog):
    d = _synth(tmp_path)
    names = (d / "b.mapped").read_text().split()
    (d / "b.mapped").write_text(f"{names[0]}\n{names[1]},abc\n")
    rc = main(["match", *_pair_args(d), "--out", str(tmp_path / "p.csv")])
    assert rc == 1
    assert _one_error(caplog) == f"{d / 'b.mapped'}: line 2: weight 'abc' is not a number"


def test_tune_rejects_a_grid_that_is_not_a_list(tmp_path, capsys, caplog):
    d = _synth(tmp_path, seed=5)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"latent_dim": 4}))
    rc = main(["tune", *_pair_args(d), "--grid", str(grid_path)])
    assert rc == 1
    assert capsys.readouterr().out == ""
    assert _one_error(caplog) == (f"{grid_path}: the grid must be a JSON list of configs, "
                                  "got dict")


def test_eval_rejects_a_proposals_file_without_a_column(tmp_path, capsys, caplog):
    d = _synth(tmp_path)
    props_path = tmp_path / "proposals.csv"
    assert main(["match", *_pair_args(d), "--out", str(props_path)]) == 0
    rows = list(csv.reader(props_path.open()))
    with props_path.open("w", newline="") as fh:
        csv.writer(fh).writerows([row[:4] + row[5:] for row in rows])  # drop p_value
    rc = main(["eval", "--proposals", str(props_path), "--scenario", str(d / "scenario.json")])
    assert rc == 1
    assert capsys.readouterr().out == ""
    assert "missing ['p_value']" in _one_error(caplog)


def test_bench_rejects_a_sweep_value_that_is_not_an_integer(tmp_path, caplog):
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({"methods": ["kmf"], "sweep_values": [[1]]}))
    out_dir = tmp_path / "bench"
    rc = main(["bench", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 1
    assert "sweep_values" in _one_error(caplog)
    assert not out_dir.exists()


@pytest.mark.parametrize("column, cell, why", [
    (None, None, " has 6 cells, the header has 7"),
    ("similarity", "abc", ", column 'similarity': could not convert string to float: 'abc'"),
    ("accepted", "yes", ", column 'accepted': expected 0 or 1, got 'yes'"),
], ids=["short_row", "float", "bool"])
def test_eval_names_the_bad_proposals_cell(tmp_path, capsys, caplog, column, cell, why):
    d = _synth(tmp_path)
    props_path = tmp_path / "proposals.csv"
    assert main(["match", *_pair_args(d), "--out", str(props_path)]) == 0
    rows = list(csv.reader(props_path.open()))
    if column is None:
        rows[2] = rows[2][:6]
    else:
        rows[2][rows[0].index(column)] = cell
    with props_path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    rc = main(["eval", "--proposals", str(props_path), "--scenario", str(d / "scenario.json")])
    assert rc == 1
    assert capsys.readouterr().out == ""
    assert _one_error(caplog) == f"{props_path}: line 3{why}"


_FEATURES_A, _FEATURES_B = ("a0", "a1", "a2"), ("b0", "b1", "b2")
# per proposals.csv column, cells it holds; any column may also get junk
_GOOD_CELLS = {
    "feature_a": st.sampled_from(_FEATURES_A), "feature_b": st.sampled_from(_FEATURES_B),
    "similarity": st.floats().map(str), "holdout_stat": st.just(""),
    "p_value": st.floats(0, 1).map(str), "accepted": st.sampled_from(["0", "1"]),
    "rank_of_choice": st.integers(0, 3).map(str),
}
_JUNK = st.one_of(st.text(max_size=5), st.sampled_from(["", "nan", "inf", "1e400", "True", "a1"]))


@st.composite
def _proposal_rows(draw):
    """Rows under the real proposals header: well-formed cells, now and then
    one junk cell, and now and then a row a cell short or long."""
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        row = [draw(_GOOD_CELLS[c]) for c in _COLUMNS]
        if draw(st.integers(0, 3)) == 0:
            row[draw(st.integers(0, len(row) - 1))] = draw(_JUNK)
        cut = draw(st.integers(0, 9))
        rows.append(row[:-1] if cut == 8 else row + ["0"] if cut == 9 else row)
    return rows


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=_proposal_rows())
def test_eval_fuzzed_proposals_exit_cleanly(tmp_path, capsys, caplog, rows):
    """eval on any rows under the real header exits 0 with its report line,
    or 1 with one log line naming the proposals file, never a traceback."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(ScenarioSpec(
        map_kind="permutation", gold_map=(("a1", "b1"), ("a2", "b2")),
        features_a=_FEATURES_A, features_b=_FEATURES_B).to_json())
    props_path = tmp_path / "proposals.csv"
    with props_path.open("w", newline="") as fh:
        csv.writer(fh).writerows([list(_COLUMNS)] + rows)
    capsys.readouterr()
    caplog.clear()
    rc = main(["eval", "--proposals", str(props_path), "--scenario", str(scenario)])
    shown = capsys.readouterr().out
    if rc == 0:
        assert shown.startswith("tp=")
    else:
        assert rc == 1 and shown == ""
        assert str(props_path) in _one_error(caplog)


def test_bench_out_of_range_sweep_value_leaves_no_directory(tmp_path, caplog):
    # the second sweep value maps every column, which build_scenario refuses
    # after the first value's replicates have run
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({
        "family": "independent_gaussian", "dim": 6, "n_samples": 300,
        "sweep_values": [2, 6], "methods": ["kmf"], "n_trials": 1, "n_perms": 1,
    }))
    out_dir = tmp_path / "bench"
    rc = main(["bench", "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc == 1
    assert "k_mapped" in _one_error(caplog)
    assert not out_dir.exists()


_CELL = st.one_of(*[st.floats(-1e3, 1e3).map(repr)] * 12,
                  st.sampled_from(["0", "1", "", "NA", "1e308", "-1e308", "3e200"]))


@st.composite
def _numeric_files(draw, k):
    """A numeric CSV of 6 to 16 rows whose first k columns its sidecar maps."""
    names = [f"m{i}" for i in range(k)] + [f"u{i}" for i in range(draw(st.integers(1, 3)))]
    rows = draw(st.lists(st.lists(_CELL, min_size=len(names), max_size=len(names)),
                         min_size=6, max_size=16))
    csv_text = "\n".join(",".join(r) for r in [names] + rows) + "\n"
    return csv_text, "".join(f"{n}\n" for n in names[:k])


@st.composite
def _data_pair(draw):
    """CSV and sidecar texts for A and B: a quarter of the time two loading
    fuzz cases, otherwise numeric tables with k mapped columns on both sides."""
    if draw(st.integers(0, 3)) == 0:
        return draw(csv_and_sidecar()), draw(csv_and_sidecar())
    k = draw(st.integers(1, 3))
    return draw(_numeric_files(k)), draw(_numeric_files(k))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pair=_data_pair(), method=st.sampled_from(["kmf", "kang"]), normalize=st.booleans())
def test_match_fuzzed_data_exits_cleanly(tmp_path, caplog, pair, method, normalize):
    """match on any small CSV and sidecar pair exits 0 and writes its proposals,
    or exits 1 with one log record; a numeric warning is never that record."""
    for side, (csv_text, sidecar) in zip("ab", pair):
        (tmp_path / f"{side}.csv").write_text(csv_text)
        (tmp_path / f"{side}.mapped").write_text(sidecar)
    out = tmp_path / "proposals.csv"
    out.unlink(missing_ok=True)
    caplog.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # single-level and all-zero columns
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["match", *_pair_args(tmp_path), "--method", method, "--out", str(out)]
                  + ["--normalize"] * normalize)
    if rc == 0:
        proposals_from_csv(out)
    else:
        assert rc == 1 and not out.exists()
        assert len(caplog.records) == 1
        assert "encountered" not in _one_error(caplog)
