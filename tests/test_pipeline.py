"""End-to-end runs, evaluation, tuning, seed derivation, and the benchmark
driver."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from schemamatch import pipeline
from schemamatch.chimeric import ChimericConfig, translate
from schemamatch.core import BINARY, ScenarioSpec, from_dict
from schemamatch.kang import KangConfig, mi_matrix
from schemamatch.kmf import PromotionPolicy, promote_matches
from schemamatch.matcher import MatchProposal
from schemamatch.pipeline import (
    ExperimentConfig,
    MatchSettings,
    derive_seed,
    evaluate,
    run_benchmark,
    run_kang,
    run_method,
    run_chimeric,
    run_kmf,
    run_replicate,
    run_two_stage,
    split_rows,
    tune_hyperparams,
    withheld_truth,
)
from schemamatch.stats import pearson
from schemamatch.synthgen import GeneratorSpec, build_scenario, sample
from helpers import correlated_pair, make_dataset, reference_mi_matrix


# ---------------------------------------------------------------- split

def test_split_rows_partitions():
    train, hold = split_rows(20, 0.25, seed=3)
    assert len(hold) == math.ceil(0.25 * 20)
    assert len(train) == 20 - len(hold)
    assert set(train) | set(hold) == set(range(20))
    assert not set(train) & set(hold)
    assert np.array_equal(train, np.sort(train))
    assert np.array_equal(hold, np.sort(hold))
    t2, h2 = split_rows(20, 0.25, seed=3)
    assert np.array_equal(train, t2) and np.array_equal(hold, h2)
    t3, _ = split_rows(20, 0.25, seed=4)
    assert not np.array_equal(train, t3)


def test_split_rows_too_small():
    with pytest.raises(ValueError, match="too few"):
        split_rows(8, 0.25, seed=0)
    with pytest.raises(ValueError, match="too few"):
        split_rows(10, 0.9, seed=0)


def test_match_settings_validation():
    with pytest.raises(ValueError):
        MatchSettings(holdout_fraction=0.0)
    with pytest.raises(ValueError):
        MatchSettings(holdout_fraction=1.0)
    for q in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="fdr_q"):
            MatchSettings(fdr_q=q)
    with pytest.raises(ValueError, match="direction"):
        MatchSettings(direction="sideways")
    with pytest.raises(ValueError, match="measure"):
        MatchSettings(measure="spearman")


# ---------------------------------------------------------------- evaluate

def _spec():
    return ScenarioSpec(
        map_kind="partial",
        gold_map=(("a0", "b0"), ("a1", "b1"), ("a2", "b2")),
        features_a=("a0", "a1", "a2", "x0", "x1"),
        features_b=("b0", "b1", "b2", "y0", "y1"),
    )


def test_evaluate_hand_case():
    props = [
        MatchProposal("a0", "b0", similarity=0.9, accepted=True),
        MatchProposal("a1", "b2", similarity=0.8, accepted=True),
        MatchProposal("x0", "y0", similarity=0.7, accepted=True),
        MatchProposal("a2", "b2", similarity=0.6, accepted=False),
    ]
    rep = evaluate(props, _spec())
    assert (rep.tp, rep.fp, rep.fn) == (1, 1, 2)
    assert rep.n_gold == 3
    assert rep.f1 == pytest.approx(2 * 1 / (2 * 1 + 1 + 2))
    # each accepted proposal alone: a gold pair, a wrong partner for two gold
    # features, and a pair of features with no gold partner (ignored)
    alone = [evaluate([p], _spec()) for p in props[:3]]
    assert [(r.tp, r.fp) for r in alone] == [(1, 0), (0, 1), (0, 0)]


def test_evaluate_one_sided_gold_is_fp():
    rep = evaluate([MatchProposal("x0", "b1", similarity=0.5, accepted=True)],
                   _spec())
    assert (rep.tp, rep.fp) == (0, 1)


def test_evaluate_empty_and_unknown():
    rep = evaluate([], _spec())
    assert (rep.tp, rep.fp, rep.fn) == (0, 0, 3)
    assert rep.f1 == 0.0
    with pytest.raises(ValueError, match="unknown feature"):
        evaluate([MatchProposal("zz", "b0", similarity=0.5, accepted=True)],
                 _spec())
    bare = ScenarioSpec(map_kind="partial", gold_map=())
    assert evaluate([], bare).f1 == 0.0


# ---------------------------------------------------------------- truth

def test_withheld_truth_values_and_errors():
    rng_spec = GeneratorSpec(family="independent_gaussian", dim=6,
                             n_samples=200, seed=1)
    ds = sample(rng_spec, None)
    _, _, scen = build_scenario(ds, "partial", 2, drop_counts=(1, 1), seed=3)
    feat = scen.dropped_from_a[0]
    got = withheld_truth(ds, scen, feat, "a")
    want = ds.values[np.array(scen.rows_a), ds.index_of(feat)]
    assert np.array_equal(got, want)
    assert got.shape == (len(scen.rows_a),)
    with pytest.raises(ValueError, match="not dropped"):
        withheld_truth(ds, scen, scen.dropped_from_b[0], "a")
    with pytest.raises(ValueError, match="side"):
        withheld_truth(ds, scen, feat, "c")


# ---------------------------------------------------------------- seeds

def test_derive_seed_properties():
    s1 = derive_seed(11, 0, 1, 2, 3)
    assert s1 == derive_seed(11, 0, 1, 2, 3)
    seen = {derive_seed(11, a, b, 0, role) for a in range(3) for b in range(3)
            for role in range(4)}
    assert len(seen) == 36
    assert all(0 <= s < 2 ** 32 for s in seen)
    assert derive_seed(12, 0, 1, 2, 3) != s1


# ---------------------------------------------------------------- tuning

def _record_folds(monkeypatch):
    """Wrap the pipeline's run_method and evaluate; returns the lists of
    methods run and of fold F1s that tune_hyperparams fills as it scores."""
    runs, f1s = [], []
    run, ev = pipeline.run_method, pipeline.evaluate

    def counted(method, *args, **kwargs):
        runs.append(method)
        return run(method, *args, **kwargs)

    def scored(proposals, spec):
        rep = ev(proposals, spec)
        f1s.append(rep.f1)
        return rep

    monkeypatch.setattr(pipeline, "run_method", counted)
    monkeypatch.setattr(pipeline, "evaluate", scored)
    return runs, f1s


def test_tune_rejects_kmf(monkeypatch):
    ds_a, ds_b = correlated_pair(400, 6, 2, seed=5)
    grid = [ChimericConfig(latent_dim=2, hidden=(4, 4)),
            ChimericConfig(latent_dim=3, hidden=(4, 4))]
    runs, _ = _record_folds(monkeypatch)
    with pytest.raises(ValueError, match="^kmf reads no config; there is nothing to tune$"):
        tune_hyperparams(ds_a, ds_b, grid, method="kmf")
    assert runs == []  # rejected before any fold runs


def test_tune_half_split_and_kang(monkeypatch):
    ds_a, ds_b = correlated_pair(300, 5, 4, seed=6)
    grid = [KangConfig(iterations=50, seed=1)]
    runs, f1s = _record_folds(monkeypatch)
    res = tune_hyperparams(ds_a, ds_b, grid, protocol="half_split", folds=3,
                           method="kang")
    assert len(runs) == 3
    assert len(res.mean_scores) == 1
    again = tune_hyperparams(ds_a, ds_b, grid, protocol="half_split", folds=3,
                             method="kang")
    assert f1s[3:] == f1s[:3]
    assert again == res


def test_tune_validation():
    ds_a, ds_b = correlated_pair(300, 5, 2, seed=7)
    with pytest.raises(ValueError, match="empty grid"):
        tune_hyperparams(ds_a, ds_b, [], method="kang")
    one_a, one_b = correlated_pair(300, 5, 1, seed=7)
    with pytest.raises(ValueError, match="at least 2"):
        tune_hyperparams(one_a, one_b, [KangConfig()], method="kang")
    with pytest.raises(ValueError, match="protocol"):
        tune_hyperparams(ds_a, ds_b, [KangConfig()], protocol="thirds",
                         method="kang")
    # no fold would leave the mean score NaN
    for folds in (0, -1):
        with pytest.raises(ValueError, match="folds"):
            tune_hyperparams(ds_a, ds_b, [KangConfig()], protocol="half_split",
                             folds=folds, method="kang")


# ---------------------------------------------------------------- methods

def test_run_kang_skips_anchors():
    ds_a, ds_b = correlated_pair(300, 5, 2, seed=8)
    res = run_kang(ds_a, ds_b, KangConfig(iterations=200, seed=3))
    assert res.method == "kang"
    assert len(res.proposals) == 3
    mapped = set(ds_a.mapped_names)
    for p in res.proposals:
        assert p.feature_a not in mapped
        assert p.feature_b not in mapped
        assert p.accepted
        assert p.rank_of_choice == 1
    assert len({p.feature_b for p in res.proposals}) == 3


def test_run_two_stage_structure():
    ds_a, ds_b = correlated_pair(600, 8, 4, seed=9)
    cfg = ChimericConfig(latent_dim=2, hidden=(8, 4), epochs=2, lr=1e-3, seed=1)
    res = run_two_stage(ds_a, ds_b, cfg)
    assert res.method == "kmf_then_chimeric"
    assert res.stage_one is not None
    assert res.mapped_after_promotion == 4 + len(res.promoted)
    n_promoted = len(res.promoted)
    assert res.proposals[:n_promoted] == res.promoted
    promoted_a = {p.feature_a for p in res.promoted}
    for p in res.proposals[n_promoted:]:
        assert p.feature_a not in promoted_a


@pytest.mark.parametrize("flip", [False, True])
def test_run_two_stage_is_its_composition(flip):
    ds_a, ds_b = correlated_pair(600, 8, 4, seed=9)
    cfg = ChimericConfig(latent_dim=2, hidden=(8, 4), epochs=2, lr=1e-3, seed=1)
    settings = MatchSettings(split_seed=2, flip_translation=flip,
                             promotion=PromotionPolicy(kind="top_fraction", value=0.5))
    res = run_two_stage(ds_a, ds_b, cfg, settings)
    ds_a2, ds_b2, promoted = promote_matches(
        ds_a, ds_b, run_kmf(ds_a, ds_b, settings).proposals, settings.promotion)
    direct = run_chimeric(ds_a2, ds_b2, cfg, settings)
    assert 0 < len(promoted) < 4  # both stages have pairs to match
    assert direct.proposals
    assert res.promoted == promoted
    assert res.proposals[len(promoted):] == direct.proposals
    for net in ("encoder_a", "decoder_a", "encoder_b", "decoder_b"):
        ours = getattr(res.model, net).parameters()
        theirs = getattr(direct.model, net).parameters()
        assert all(np.array_equal(x, y) for x, y in zip(ours, theirs, strict=True))


_SMALL_CFGS = dict(
    chimeric_cfg=ChimericConfig(latent_dim=2, hidden=(8, 4), epochs=2, lr=1e-3, seed=1),
    kang_cfg=KangConfig(iterations=100, seed=1),
)


@pytest.mark.parametrize("method", pipeline.METHODS)
@pytest.mark.parametrize("k", [1, 5])
def test_run_method_at_extreme_mapped_counts(method, k):
    # k = 1 and k = p - 1: one mapped column, or one unmapped column a side
    ds_a, ds_b = correlated_pair(300, 6, k, seed=4)
    res = run_method(method, ds_a, ds_b, **_SMALL_CFGS)
    assert res.method == method
    assert len(res.proposals) == 6 - k
    for p in res.proposals:
        assert p.feature_a in ds_a.unmapped_names
        assert p.feature_b in ds_b.unmapped_names
    if method == "chimeric":
        assert res.model is not None


def _degenerate_pair(kind):
    """An all-binary pair, or a pair whose A side has one constant column."""
    ds_a, ds_b = correlated_pair(300, 10, 3, seed=5)
    if kind == "binary":
        return tuple(make_dataset((ds.values > 0).astype(np.float64), 3, names=ds.feature_names,
                                  kinds=[BINARY] * 10, name=ds.name) for ds in (ds_a, ds_b))
    values = ds_a.values.copy()
    values[:, 6] = 2.5
    return make_dataset(values, 3, names=ds_a.feature_names, name="A"), ds_b


@pytest.mark.parametrize("method", pipeline.METHODS)
@pytest.mark.parametrize("kind", ["binary", "constant"])
def test_run_method_on_degenerate_tables(method, kind):
    ds_a, ds_b = _degenerate_pair(kind)
    res = run_method(method, ds_a, ds_b, **_SMALL_CFGS)
    assert len(res.proposals) == 7
    for p in res.proposals:
        assert p.feature_a in ds_a.unmapped_names
        assert p.feature_b in ds_b.unmapped_names
    for ds in (ds_a, ds_b):
        assert np.array_equal(mi_matrix(ds.values), reference_mi_matrix(ds.values))


@pytest.mark.parametrize("method", pipeline.METHODS)
def test_run_method_when_every_column_is_mapped(method):
    ds_a, ds_b = correlated_pair(300, 6, 6, seed=4)
    res = run_method(method, ds_a, ds_b, **_SMALL_CFGS)
    assert res.proposals == []
    # chimeric still trains; the two-stage run has nothing left to train on
    assert (res.model is not None) == (method == "chimeric")


@pytest.mark.parametrize("method", pipeline.METHODS)
def test_run_method_at_the_smallest_holdout(method):
    # ceil(0.25 * 16) = 4 hold-out rows, the fewest holdout_filter scores
    ds_a, ds_b = correlated_pair(16, 6, 2, seed=4)
    assert len(run_method(method, ds_a, ds_b, **_SMALL_CFGS).proposals) == 4
    # ceil(0.25 * 12) = 3: every method that splits rows refuses; kang splits none
    ds_a, ds_b = correlated_pair(12, 6, 2, seed=4)
    if method == "kang":
        assert len(run_method(method, ds_a, ds_b, **_SMALL_CFGS).proposals) == 4
    else:
        with pytest.raises(ValueError, match="too few"):
            run_method(method, ds_a, ds_b, **_SMALL_CFGS)


@pytest.mark.parametrize("flip", [False, True])
def test_run_chimeric_translation_direction(flip):
    ds_a, ds_b = correlated_pair(300, 6, 2, seed=14)
    ds_b = replace(ds_b, features=tuple(
        replace(f, name=f"b_{f.name}") for f in ds_b.features))
    settings = MatchSettings(split_seed=3, flip_translation=flip)
    cfg = ChimericConfig(latent_dim=2, hidden=(8, 4), epochs=2, lr=1e-3, seed=2)
    res = run_chimeric(ds_a, ds_b, cfg, settings)
    assert res.proposals
    for p in res.proposals:
        assert p.feature_a in ds_a.unmapped_names
        assert p.feature_b in ds_b.unmapped_names
    # the hold-out statistic correlates the source side's raw column with the
    # translation of the source side's hold-out rows at the partner's column
    if flip:
        src, dst, seed, direction = ds_b, ds_a, settings.split_seed + 1, "b_to_a"
    else:
        src, dst, seed, direction = ds_a, ds_b, settings.split_seed, "a_to_b"
    _, hold = split_rows(src.n_rows, settings.holdout_fraction, seed)
    src_hold = src.values[hold]
    z_hold = translate(res.model, src_hold, direction)
    for p in res.proposals:
        own, other = (p.feature_b, p.feature_a) if flip else (p.feature_a, p.feature_b)
        assert p.holdout_stat == pearson(src_hold[:, src.index_of(own)],
                                         z_hold[:, dst.index_of(other)])


def test_run_method_dispatch_and_unknown():
    ds_a, ds_b = correlated_pair(300, 5, 2, seed=10)
    res = run_method("kmf", ds_a, ds_b)
    assert res.method == "kmf"
    with pytest.raises(ValueError, match="unknown method"):
        run_method("oracle", ds_a, ds_b)


# ---------------------------------------------------------------- replicates

def test_run_replicate_success():
    cfg = ExperimentConfig(
        name="t", family="independent_gaussian", dim=6, n_samples=400,
        sweep="k_mapped", sweep_values=(2,), methods=("kmf",),
        n_trials=1, n_perms=1, master_seed=5,
    )
    scenario, out = run_replicate(cfg, 2, 0, 0, 0, None)
    res, rep, err = out["kmf"]
    assert err == ""
    assert rep is not None
    assert rep.n_gold == 4
    assert scenario.map_kind == "permutation"
    assert len(scenario.gold_map) == 4


def test_run_replicate_records_errors():
    cfg = ExperimentConfig(
        name="t", family="independent_gaussian", dim=6, n_samples=400,
        sweep="k_mapped", sweep_values=(2,), methods=("kmf", "chimeric"),
        chimeric=ChimericConfig(latent_dim=8, hidden=(8, 8), epochs=1),
        n_trials=1, n_perms=1, master_seed=5,
    )
    _, out = run_replicate(cfg, 2, 0, 0, 0, None)
    assert out["kmf"][2] == ""
    res, rep, err = out["chimeric"]
    assert res is None and rep is None
    assert err.startswith("ValueError:")
    assert "latent_dim" in err


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="sweep"):
        ExperimentConfig(sweep="bins")
    with pytest.raises(ValueError, match="method"):
        ExperimentConfig(methods=("kmf", "psychic"))
    with pytest.raises(ValueError, match="sweep_values"):
        ExperimentConfig(sweep_values=())
    for bad in ((2, True), (2.0,), (2.5,), ("4",), ([1],), (np.int64(3),)):
        with pytest.raises(ValueError, match="sweep_values must be integers"):
            ExperimentConfig(sweep_values=bad)
    with pytest.raises(ValueError, match="sweep_values must be int"):
        from_dict(ExperimentConfig, {"sweep_values": [[1]]})
    with pytest.raises(ValueError, match="n_trials"):
        ExperimentConfig(n_trials=0)
    with pytest.raises(ValueError, match="n_perms"):
        ExperimentConfig(n_perms=0)


# ---------------------------------------------------------------- benchmark

def test_run_benchmark_smoke(tmp_path):
    cfg = ExperimentConfig(
        name="smoke", family="independent_gaussian", dim=8, n_samples=400,
        sweep="k_mapped", sweep_values=(2, 3), methods=("kmf",),
        n_trials=1, n_perms=1, master_seed=9,
        # non-default nested values, so the manifest round trip decodes them
        chimeric=ChimericConfig(hidden=(12, 6)),
        kang=KangConfig(metric="normal"),
        settings=MatchSettings(promotion=PromotionPolicy(kind="top_fraction", value=0.25)),
    )
    paths = run_benchmark(cfg, tmp_path / "out")
    assert set(paths) == {"results", "summary", "wilcoxon", "manifest"}

    with open(paths["results"]) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "sweep,value,trial,perm,method,tp,fp,fn,f1,error"
    assert len(lines) == 3

    with open(paths["summary"]) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "value,method,n,mean_f1,sd_f1"
    assert len(lines) == 3
    for line in lines[1:]:
        parts = line.split(",")
        assert parts[1] == "kmf"
        assert parts[2] == "1"
        assert parts[4] == ""  # single replicate: no sd

    with open(paths["wilcoxon"]) as fh:
        lines = fh.read().splitlines()
    assert lines == ["method_a,method_b,n_a,n_b,u,p"]

    with open(paths["manifest"]) as fh:
        stored = json.load(fh)
    assert from_dict(ExperimentConfig, stored) == cfg
