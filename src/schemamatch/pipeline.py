"""End-to-end matching runs, evaluation against scenario ground truth,
hyperparameter tuning on the mapped set, and the replicated benchmark driver."""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import chimeric as chimeric_mod
from . import kang as kang_mod
from .core import MAP_KINDS, Dataset, ScenarioSpec, reorder_mapped_first, unit_norm
from .kmf import fingerprint_translation, fingerprints, kmf_similarity, promote_matches
from .matcher import MatchProposal, gale_shapley, holdout_filter
from .stats import wilcoxon_ranksum
from .synthgen import (FAMILIES, CovarianceSpec, GeneratorSpec, build_scenario,
                       make_covariance, sample)

METHODS = ("kmf", "chimeric", "kmf_then_chimeric", "kang")
PROTOCOLS = ("leave_one_out", "half_split")
#: share of each database's rows held out to score proposals
HOLDOUT_FRACTION = 0.25


@dataclass(frozen=True)
class MatchSettings:
    fdr_q: float = 0.05
    split_seed: int = 0
    measure: str = "pearson"

    def __post_init__(self):
        if not 0.0 < self.fdr_q < 1.0:
            raise ValueError("fdr_q must be in (0, 1)")
        if self.measure not in chimeric_mod.MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")


@dataclass
class MethodResult:
    """A method's proposals, and the trained model of the chimeric methods."""

    proposals: list[MatchProposal]
    model: chimeric_mod.ChimericModel | None = None


@dataclass
class EvalReport:
    tp: int
    fp: int
    fn: int
    f1: float
    n_gold: int


def split_rows(n: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic train/hold-out row split; hold-out gets ceil(fraction*n)."""
    rng = np.random.default_rng([seed, 11])
    order = rng.permutation(n)
    n_hold = int(math.ceil(fraction * n))
    if n_hold < 4 or n - n_hold < 4:
        raise ValueError("split leaves too few rows on one side")
    return np.sort(order[n_hold:]), np.sort(order[:n_hold])


def run_kmf(ds_a: Dataset, ds_b: Dataset, settings: MatchSettings | None = None) -> MethodResult:
    """Fingerprint matching with hold-out FDR filtering. The hold-out statistic
    correlates each A column with the linear fingerprint translation of its
    proposed B partner over A's hold-out rows."""
    settings = settings or MatchSettings()
    if ds_a.mapped_count < 1:
        raise ValueError("KMF needs at least one mapped feature")
    if not ds_a.unmapped_names or not ds_b.unmapped_names:
        return MethodResult([])
    tr_a, ho_a = split_rows(ds_a.n_rows, HOLDOUT_FRACTION, settings.split_seed)
    tr_b, _ = split_rows(ds_b.n_rows, HOLDOUT_FRACTION, settings.split_seed + 1)
    fp_a, fp_b = fingerprints(ds_a.subset_rows(tr_a)), fingerprints(ds_b.subset_rows(tr_b))
    sim = kmf_similarity(fp_a, fp_b)
    proposals = gale_shapley(sim)
    a_hold = ds_a.values[ho_a]
    translated = fingerprint_translation(a_hold[:, : ds_a.mapped_count], fp_b)
    proposals = holdout_filter(
        proposals, a_hold, ds_a.feature_names, translated, fp_b.row_features,
        q=settings.fdr_q,
    )
    return MethodResult(proposals)


def run_chimeric(
    ds_a: Dataset,
    ds_b: Dataset,
    cfg: chimeric_mod.ChimericConfig | None = None,
    settings: MatchSettings | None = None,
) -> MethodResult:
    """Train the paired autoencoders on both training splits, match the
    unmapped blocks on translated correlations, and filter on hold-out rows.
    A's columns are scored against the A->B translation of A's rows; to score
    B against B->A, swap the arguments. The trained model is returned also
    when a side has no unmapped feature and nothing is proposed."""
    cfg = cfg or chimeric_mod.ChimericConfig()
    settings = settings or MatchSettings()
    tr_a, ho_a = split_rows(ds_a.n_rows, HOLDOUT_FRACTION, settings.split_seed)
    tr_b, _ = split_rows(ds_b.n_rows, HOLDOUT_FRACTION, settings.split_seed + 1)
    a_train = ds_a.subset_rows(tr_a)
    model = chimeric_mod.train(a_train, ds_b.subset_rows(tr_b), cfg)
    if not ds_a.unmapped_names or not ds_b.unmapped_names:
        return MethodResult([], model)
    z_train = chimeric_mod.translate(model, a_train.values, "a_to_b")
    sim_full = chimeric_mod.chimeric_dependence(
        a_train, z_train, ds_b.feature_names, measure=settings.measure
    )
    raw = gale_shapley(sim_full.submatrix(ds_a.unmapped_names, ds_b.unmapped_names))
    a_hold = ds_a.values[ho_a]
    z_hold = chimeric_mod.translate(model, a_hold, "a_to_b")
    proposals = holdout_filter(
        raw, a_hold, ds_a.feature_names, z_hold, ds_b.feature_names, q=settings.fdr_q,
    )
    return MethodResult(proposals, model)


def run_two_stage(
    ds_a: Dataset,
    ds_b: Dataset,
    cfg: chimeric_mod.ChimericConfig | None = None,
    settings: MatchSettings | None = None,
) -> MethodResult:
    """Fingerprint matching first; confident pairs join the mapped prefix, then
    the autoencoder stage re-matches whatever is left. The returned proposals
    are the promoted pairs plus the second-stage scored proposals. No network
    is trained when promotion leaves a side with no unmapped feature."""
    settings = settings or MatchSettings()
    stage_one = run_kmf(ds_a, ds_b, settings).proposals
    ds_a2, ds_b2, promoted = promote_matches(ds_a, ds_b, stage_one)
    if not ds_a2.unmapped_names or not ds_b2.unmapped_names:
        return MethodResult(promoted)
    stage_two = run_chimeric(ds_a2, ds_b2, cfg, settings)
    return MethodResult(promoted + stage_two.proposals, stage_two.model)


def run_kang(
    ds_a: Dataset,
    ds_b: Dataset,
    cfg: kang_mod.KangConfig | None = None,
) -> MethodResult:
    """MI-structure baseline. All returned proposals are accepted (the method
    has no acceptance statistic); similarity is the per-pair objective share."""
    cfg = cfg or kang_mod.KangConfig()
    k = ds_a.mapped_count
    if ds_b.mapped_count != k:
        raise ValueError("databases disagree on the mapped count")
    mi_a = kang_mod.mi_matrix(ds_a.values, bins=cfg.bins)
    mi_b = kang_mod.mi_matrix(ds_b.values, bins=cfg.bins)
    known = [(i, i) for i in range(k)]
    result = kang_mod.kang_match(
        mi_a, mi_b, known, cfg, data_a=ds_a.values, data_b=ds_b.values
    )
    names_a = ds_a.feature_names
    names_b = ds_b.feature_names
    proposals = []
    for i in range(k, ds_a.n_features):  # anchors are not proposals
        j = int(result.assignment[i])
        if j >= ds_b.n_features:
            continue  # matched to a knock-off: no proposal
        proposals.append(
            MatchProposal(
                feature_a=names_a[i],
                feature_b=names_b[j],
                similarity=float(result.pair_scores[i]),
                accepted=True,
                rank_of_choice=1,
            )
        )
    return MethodResult(proposals)


def run_method(
    method: str,
    ds_a: Dataset,
    ds_b: Dataset,
    settings: MatchSettings | None = None,
    chimeric_cfg: chimeric_mod.ChimericConfig | None = None,
    kang_cfg: kang_mod.KangConfig | None = None,
) -> MethodResult:
    if method == "kmf":
        return run_kmf(ds_a, ds_b, settings)
    if method == "chimeric":
        return run_chimeric(ds_a, ds_b, chimeric_cfg, settings)
    if method == "kmf_then_chimeric":
        return run_two_stage(ds_a, ds_b, chimeric_cfg, settings)
    if method == "kang":
        return run_kang(ds_a, ds_b, kang_cfg)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def evaluate(proposals: list[MatchProposal], scenario: ScenarioSpec) -> EvalReport:
    """Score accepted proposals against the gold map.

    A pair is a true positive when it is in the gold map, a false positive when
    either side's gold partner is someone else, and ignored when neither side
    has a gold partner. False negatives are gold pairs never accepted. F1 =
    2TP / (2TP + FP + FN). Proposals naming unknown features are an error.
    """
    feats_a = set(scenario.features_a)
    feats_b = set(scenario.features_b)
    gold_ab = dict(scenario.gold_map)
    gold_ba = {b: a for a, b in scenario.gold_map}
    tp = fp = 0
    for p in proposals:
        if feats_a and p.feature_a not in feats_a:
            raise ValueError(f"proposal names unknown feature {p.feature_a!r}")
        if feats_b and p.feature_b not in feats_b:
            raise ValueError(f"proposal names unknown feature {p.feature_b!r}")
        if not p.accepted:
            continue
        if gold_ab.get(p.feature_a) == p.feature_b:
            tp += 1
        elif p.feature_a in gold_ab or p.feature_b in gold_ba:
            fp += 1
    fn = len(scenario.gold_map) - tp
    denom = 2 * tp + fp + fn
    f1 = 2 * tp / denom if denom else 0.0
    return EvalReport(tp=tp, fp=fp, fn=fn, f1=f1, n_gold=len(scenario.gold_map))


def withheld_truth(source: Dataset, scenario: ScenarioSpec, feature: str, side: str) -> np.ndarray:
    """True values of a feature dropped from one side, over that side's rows.
    Used to validate cross-database surrogates against ground truth."""
    if side == "a":
        if feature not in scenario.dropped_from_a:
            raise ValueError(f"{feature!r} was not dropped from A")
        rows = np.array(scenario.rows_a, dtype=int)
    elif side == "b":
        if feature not in scenario.dropped_from_b:
            raise ValueError(f"{feature!r} was not dropped from B")
        rows = np.array(scenario.rows_b, dtype=int)
    else:
        raise ValueError("side must be 'a' or 'b'")
    return source.values[rows, source.index_of(feature)]


@dataclass
class TuneResult:
    best_index: int
    best_score: float
    mean_scores: list[float]


def _hide_mapped(ds_a: Dataset, ds_b: Dataset, hide_positions) -> tuple[Dataset, Dataset, ScenarioSpec]:
    """Demote mapped positions to unmapped on both sides; gold = hidden pairs."""
    k = ds_a.mapped_count
    keep = [i for i in range(k) if i not in set(hide_positions)]
    names_a = ds_a.mapped_names
    names_b = ds_b.mapped_names
    new_a = reorder_mapped_first(ds_a, [names_a[i] for i in keep])
    new_b = reorder_mapped_first(ds_b, [names_b[i] for i in keep])
    gold = tuple((names_a[i], names_b[i]) for i in sorted(set(hide_positions)))
    spec = ScenarioSpec(
        map_kind="partial",
        gold_map=gold,
        features_a=tuple(new_a.feature_names),
        features_b=tuple(new_b.feature_names),
    )
    return new_a, new_b, spec


def tune_config_class(method: str) -> type:
    """The config class a `tune_hyperparams` grid holds for `method`. kmf reads
    no config, so it is rejected before any grid entry is decoded."""
    if method == "kmf":
        raise ValueError("kmf reads no config; there is nothing to tune")
    return kang_mod.KangConfig if method == "kang" else chimeric_mod.ChimericConfig


def tune_hyperparams(
    ds_a: Dataset,
    ds_b: Dataset,
    grid,
    protocol: str = "leave_one_out",
    folds: int = 10,
    method: str = "chimeric",
    settings: MatchSettings | None = None,
    seed: int = 0,
) -> TuneResult:
    """Score each candidate config by how well the method recovers deliberately
    hidden mapped pairs, and pick the best mean score. Each grid entry is a
    `tune_config_class(method)`; kmf reads no config, so it is rejected.

    leave_one_out: one fold per mapped position, hiding that single pair.
    half_split: `folds` random folds, each hiding half the mapped positions.
    """
    tune_config_class(method)
    grid = list(grid)
    if not grid:
        raise ValueError("empty grid")
    k = ds_a.mapped_count
    if ds_b.mapped_count != k:
        raise ValueError("databases disagree on the mapped count")
    if protocol == "leave_one_out":
        if k < 2:
            raise ValueError("leave_one_out needs at least 2 mapped features")
        fold_sets = [[h] for h in range(k)]
    elif protocol == "half_split":
        if k < 2:
            raise ValueError("half_split needs at least 2 mapped features")
        if folds < 1:
            raise ValueError("half_split needs folds >= 1")
        fold_sets = []
        for f in range(folds):
            rng = np.random.default_rng([seed, 23, f])
            fold_sets.append(sorted(rng.choice(k, size=k // 2, replace=False).tolist()))
    else:
        raise ValueError(f"unknown protocol {protocol!r}")

    settings = settings or MatchSettings()
    means = []
    for cfg in grid:
        scores = []
        for hide in fold_sets:
            a2, b2, spec = _hide_mapped(ds_a, ds_b, hide)
            if method == "kang":
                res = run_method(method, a2, b2, settings, kang_cfg=cfg)
            else:
                res = run_method(method, a2, b2, settings, chimeric_cfg=cfg)
            scores.append(evaluate(res.proposals, spec).f1)
        means.append(float(np.mean(scores)))
    best = int(np.argmax(means))
    return TuneResult(best_index=best, best_score=means[best], mean_scores=means)


@dataclass(frozen=True)
class ExperimentConfig:
    """One replicated benchmark: a data family, a scenario shape, a sweep axis,
    and the methods to compare."""

    name: str = "experiment"
    family: str = "gaussian"
    dim: int = 20
    factor_dim: int = 10
    n_samples: int = 10000
    map_kind: str = "permutation"
    sweep: str = "k_mapped"  # k_mapped | n_samples | extra_features | latent_dim
    sweep_values: tuple[int, ...] = (2, 4, 6, 8, 10)
    fixed_k: int = 4
    drop_a: int = 0
    drop_b: int = 0
    transform_count: int = 0
    methods: tuple[str, ...] = ("kmf",)
    chimeric: chimeric_mod.ChimericConfig = field(
        default_factory=chimeric_mod.ChimericConfig
    )
    kang: kang_mod.KangConfig = field(default_factory=kang_mod.KangConfig)
    settings: MatchSettings = field(default_factory=MatchSettings)
    n_trials: int = 3
    n_perms: int = 3
    master_seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.map_kind not in MAP_KINDS:
            raise ValueError(f"unknown map_kind {self.map_kind!r}; expected one of {MAP_KINDS}")
        if self.sweep not in ("k_mapped", "n_samples", "extra_features", "latent_dim"):
            raise ValueError(f"unknown sweep {self.sweep!r}")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if not self.sweep_values:
            raise ValueError("sweep_values must be non-empty")
        # Python ints only: manifest.json must hold them
        if any(isinstance(v, bool) or not isinstance(v, int) for v in self.sweep_values):
            raise ValueError(f"sweep_values must be integers, got {list(self.sweep_values)}")
        if self.n_trials < 1 or self.n_perms < 1:
            raise ValueError("n_trials and n_perms must be at least 1")


# role tags for seed derivation
_ROLE_COV, _ROLE_DATA, _ROLE_TRIAL, _ROLE_PERM, _ROLE_SPLIT, _ROLE_NN, _ROLE_KANG = range(7)


def derive_seed(master: int, *parts: int) -> int:
    """Stable child seed from a master seed and integer coordinates."""
    ss = np.random.SeedSequence([int(master)] + [int(p) for p in parts])
    return int(ss.generate_state(1, np.uint32)[0])


def _replicate_plan(cfg: ExperimentConfig, value):
    """Per-sweep-value scenario parameters: (k, n_samples, drops, chimeric_cfg)."""
    k = cfg.fixed_k
    n = cfg.n_samples
    drops = (cfg.drop_a, cfg.drop_b)
    ccfg = cfg.chimeric
    if cfg.sweep == "k_mapped":
        k = int(value)
    elif cfg.sweep == "n_samples":
        n = int(value)
    elif cfg.sweep == "extra_features":
        drops = (int(value), cfg.drop_b) if cfg.map_kind == "onto" else (int(value), int(value))
    elif cfg.sweep == "latent_dim":
        ccfg = replace(ccfg, latent_dim=int(value))
    return k, n, drops, ccfg


def run_replicate(cfg: ExperimentConfig, value, vi: int, trial: int, perm: int,
                  cov: np.ndarray | None):
    """Build one scenario and run every configured method on it. Returns
    (scenario, {method: (MethodResult | None, EvalReport | None, error)})."""
    k, n, drops, ccfg = _replicate_plan(cfg, value)
    data_seed = derive_seed(cfg.master_seed, vi, trial, 0, _ROLE_DATA)
    spec = GeneratorSpec(family=cfg.family, dim=cfg.dim, n_samples=n, seed=data_seed)
    ds = sample(spec, cov)
    trial_seed = derive_seed(cfg.master_seed, vi, trial, 0, _ROLE_TRIAL)
    perm_seed = derive_seed(cfg.master_seed, vi, trial, perm, _ROLE_PERM)
    ds_a, ds_b, scenario = build_scenario(
        ds, cfg.map_kind, k, drop_counts=drops,
        transform_count=cfg.transform_count,
        seed=trial_seed, perm_seed=perm_seed, trial=trial, perm=perm,
    )
    del ds  # the source table is not read again; free it before the methods run
    ds_a = unit_norm(ds_a)
    ds_b = unit_norm(ds_b)
    settings = replace(
        cfg.settings, split_seed=derive_seed(cfg.master_seed, vi, trial, perm, _ROLE_SPLIT)
    )
    ccfg = replace(ccfg, seed=derive_seed(cfg.master_seed, vi, trial, perm, _ROLE_NN))
    kcfg = replace(cfg.kang, seed=derive_seed(cfg.master_seed, vi, trial, perm, _ROLE_KANG))
    out = {}
    for method in cfg.methods:
        try:
            res = run_method(method, ds_a, ds_b, settings,
                             chimeric_cfg=ccfg, kang_cfg=kcfg)
            rep = evaluate(res.proposals, scenario)
            out[method] = (res, rep, "")
        except Exception as exc:  # record and continue with other replicates
            out[method] = (None, None, f"{type(exc).__name__}: {exc}")
    return scenario, out


def iter_replicates(cfg: ExperimentConfig):
    """Run every replicate of a config in canonical order (sweep value, then
    trial, then permutation) and yield (value, trial, perm, results), where
    results is run_replicate's {method: (MethodResult, EvalReport, error)}."""
    cov = None
    if cfg.family != "independent_gaussian":
        cov_seed = derive_seed(cfg.master_seed, 0, 0, 0, _ROLE_COV)
        cov = make_covariance(CovarianceSpec(cfg.dim, cfg.factor_dim, seed=cov_seed))
    for vi, value in enumerate(cfg.sweep_values):
        for trial in range(cfg.n_trials):
            for perm in range(cfg.n_perms):
                _, results = run_replicate(cfg, value, vi, trial, perm, cov)
                yield value, trial, perm, results


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run_benchmark(cfg: ExperimentConfig, out_dir) -> dict[str, str]:
    """Run the full replicated sweep and write results.csv, summary.csv,
    wilcoxon.csv, and manifest.json. Output is byte-stable for a fixed config.
    `out_dir` is made only after the last replicate, so a failed run leaves
    nothing behind."""
    rows = []
    scored = []  # (value, method, F1 as written), in row order
    for value, trial, perm, results in iter_replicates(cfg):
        for method in cfg.methods:
            _, rep, err = results[method]
            if rep is None:
                rows.append([cfg.sweep, value, trial, perm, method, "", "", "", "", err])
                continue
            f1 = f"{rep.f1:.6f}"
            rows.append([cfg.sweep, value, trial, perm, method, rep.tp, rep.fp, rep.fn, f1, err])
            scored.append((value, method, float(f1)))

    summary = []
    for value in cfg.sweep_values:
        for method in cfg.methods:
            vals = [f for v, m, f in scored if v == value and m == method]
            if not vals:
                summary.append([value, method, 0, "", ""])
                continue
            sd = f"{float(np.std(vals, ddof=1)):.6f}" if len(vals) > 1 else ""
            summary.append([value, method, len(vals), f"{float(np.mean(vals)):.6f}", sd])

    pooled = {method: np.array([f for _, m, f in scored if m == method])
              for method in cfg.methods}
    wilcoxon = []
    for a, b in itertools.combinations(cfg.methods, 2):
        test = ["", ""]
        if pooled[a].size and pooled[b].size:
            u, p = wilcoxon_ranksum(pooled[a], pooled[b])
            test = [f"{u:.6f}", f"{p:.6g}"]
        wilcoxon.append([a, b, pooled[a].size, pooled[b].size, *test])

    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, f"{name}.csv")
             for name in ("results", "summary", "wilcoxon")}
    _write_csv(paths["results"], ["sweep", "value", "trial", "perm", "method",
                                  "tp", "fp", "fn", "f1", "error"], rows)
    _write_csv(paths["summary"], ["value", "method", "n", "mean_f1", "sd_f1"], summary)
    _write_csv(paths["wilcoxon"], ["method_a", "method_b", "n_a", "n_b", "u", "p"], wilcoxon)
    paths["manifest"] = os.path.join(out_dir, "manifest.json")
    with open(paths["manifest"], "w") as fh:
        json.dump(asdict(cfg), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return paths
