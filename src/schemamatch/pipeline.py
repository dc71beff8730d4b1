"""End-to-end matching runs, evaluation against scenario ground truth,
hyperparameter tuning on the mapped set, and the replicated benchmark driver."""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import chimeric as chimeric_mod
from . import kang as kang_mod
from .core import Dataset, ScenarioSpec, reorder_mapped_first, unit_norm
from .kmf import (
    PromotionPolicy,
    fingerprint_translation,
    fingerprints,
    kmf_similarity,
    promote_matches,
)
from .matcher import DIRECTIONS, MatchProposal, gale_shapley, holdout_filter
from .stats import wilcoxon_ranksum
from .synthgen import CovarianceSpec, GeneratorSpec, build_scenario, make_covariance, sample

METHODS = ("kmf", "chimeric", "kmf_then_chimeric", "kang")
PROTOCOLS = ("leave_one_out", "half_split")


@dataclass(frozen=True)
class MatchSettings:
    fdr_q: float = 0.05
    holdout_fraction: float = 0.25
    split_seed: int = 0
    direction: str = "auto"
    flip_translation: bool = False  # score (x_B, z_A) instead of (x_A, z_B)
    measure: str = "pearson"
    promotion: PromotionPolicy = field(default_factory=PromotionPolicy)

    def __post_init__(self):
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in (0, 1)")
        if not 0.0 < self.fdr_q < 1.0:
            raise ValueError("fdr_q must be in (0, 1)")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.measure not in chimeric_mod.MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")


@dataclass
class MethodResult:
    method: str
    proposals: list[MatchProposal]
    model: chimeric_mod.ChimericModel | None = None
    stage_one: list[MatchProposal] | None = None
    promoted: list[MatchProposal] = field(default_factory=list)
    mapped_after_promotion: int = 0


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
        return MethodResult(method="kmf", proposals=[])
    tr_a, ho_a = split_rows(ds_a.n_rows, settings.holdout_fraction, settings.split_seed)
    tr_b, _ = split_rows(ds_b.n_rows, settings.holdout_fraction, settings.split_seed + 1)
    fp_a, fp_b = fingerprints(ds_a.subset_rows(tr_a)), fingerprints(ds_b.subset_rows(tr_b))
    sim = kmf_similarity(fp_a, fp_b)
    proposals = gale_shapley(sim, direction=settings.direction)
    a_hold = ds_a.values[ho_a]
    translated = fingerprint_translation(a_hold[:, : ds_a.mapped_count], fp_b)
    proposals = holdout_filter(
        proposals, a_hold, ds_a.feature_names, translated, fp_b.row_features,
        q=settings.fdr_q,
    )
    return MethodResult(method="kmf", proposals=proposals)


def run_chimeric(
    ds_a: Dataset,
    ds_b: Dataset,
    cfg: chimeric_mod.ChimericConfig | None = None,
    settings: MatchSettings | None = None,
) -> MethodResult:
    """Train the paired autoencoders on both training splits, match the
    unmapped blocks on translated correlations, and filter on hold-out rows.
    The source side's columns are scored against the translation of its rows:
    A against A->B, or B against B->A with flip_translation, whose pairs are
    swapped back so feature_a names A's feature. The trained model is returned
    also when a side has no unmapped feature and nothing is proposed."""
    cfg = cfg or chimeric_mod.ChimericConfig()
    settings = settings or MatchSettings()
    tr_a, ho_a = split_rows(ds_a.n_rows, settings.holdout_fraction, settings.split_seed)
    tr_b, ho_b = split_rows(ds_b.n_rows, settings.holdout_fraction, settings.split_seed + 1)
    a_train, b_train = ds_a.subset_rows(tr_a), ds_b.subset_rows(tr_b)
    model = chimeric_mod.train(a_train, b_train, cfg)
    if not ds_a.unmapped_names or not ds_b.unmapped_names:
        return MethodResult(method="chimeric", proposals=[], model=model)
    flip = settings.flip_translation
    src, src_train, ho_src, dst = ((ds_b, b_train, ho_b, ds_a) if flip
                                   else (ds_a, a_train, ho_a, ds_b))
    direction = "b_to_a" if flip else "a_to_b"
    z_train = chimeric_mod.translate(model, src_train.values, direction)
    sim_full = chimeric_mod.chimeric_dependence(
        src_train, z_train, dst.feature_names, measure=settings.measure
    )
    sub = sim_full.submatrix(src.unmapped_names, dst.unmapped_names)
    raw = gale_shapley(sub, direction=settings.direction)
    x_hold = src.values[ho_src]
    z_hold = chimeric_mod.translate(model, x_hold, direction)
    proposals = holdout_filter(
        raw, x_hold, src.feature_names, z_hold, dst.feature_names, q=settings.fdr_q,
    )
    if flip:
        proposals = [replace(p, feature_a=p.feature_b, feature_b=p.feature_a)
                     for p in proposals]
    return MethodResult(method="chimeric", proposals=proposals, model=model)


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
    ds_a2, ds_b2, promoted = promote_matches(ds_a, ds_b, stage_one, settings.promotion)
    stage_two = MethodResult(method="chimeric", proposals=[])
    if ds_a2.unmapped_names and ds_b2.unmapped_names:
        stage_two = run_chimeric(ds_a2, ds_b2, cfg, settings)
    return MethodResult(
        method="kmf_then_chimeric",
        proposals=promoted + stage_two.proposals,
        model=stage_two.model,
        stage_one=stage_one,
        promoted=promoted,
        mapped_after_promotion=ds_a2.mapped_count,
    )


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
    for i in range(result.n_real_a):
        if i < k:
            continue  # anchors are not proposals
        j = int(result.assignment[i])
        if j >= result.n_real_b:
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
    return MethodResult(method="kang", proposals=proposals)


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


def run_benchmark(cfg: ExperimentConfig, out_dir) -> dict[str, str]:
    """Run the full replicated sweep and write results.csv, summary.csv,
    wilcoxon.csv, and manifest.json. Output is byte-stable for a fixed config."""
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for value, trial, perm, results in iter_replicates(cfg):
        for method in cfg.methods:
            res, rep, err = results[method]
            rows.append(
                {
                    "sweep": cfg.sweep,
                    "value": value,
                    "trial": trial,
                    "perm": perm,
                    "method": method,
                    "tp": rep.tp if rep else "",
                    "fp": rep.fp if rep else "",
                    "fn": rep.fn if rep else "",
                    "f1": f"{rep.f1:.6f}" if rep else "",
                    "error": err,
                }
            )

    results_path = os.path.join(out_dir, "results.csv")
    with open(results_path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["sweep", "value", "trial", "perm", "method",
                            "tp", "fp", "fn", "f1", "error"]
        )
        writer.writeheader()
        writer.writerows(rows)

    summary_path = os.path.join(out_dir, "summary.csv")
    f1s: dict[tuple, list[float]] = {}
    for row in rows:
        if row["f1"] != "":
            f1s.setdefault((row["value"], row["method"]), []).append(float(row["f1"]))
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "method", "n", "mean_f1", "sd_f1"])
        for value in cfg.sweep_values:
            for method in cfg.methods:
                vals = f1s.get((value, method), [])
                if not vals:
                    writer.writerow([value, method, 0, "", ""])
                    continue
                mean = float(np.mean(vals))
                sd = f"{float(np.std(vals, ddof=1)):.6f}" if len(vals) > 1 else ""
                writer.writerow([value, method, len(vals), f"{mean:.6f}", sd])

    wilcoxon_path = os.path.join(out_dir, "wilcoxon.csv")
    pooled: dict[str, list[float]] = {m: [] for m in cfg.methods}
    for row in rows:
        if row["f1"] != "":
            pooled[row["method"]].append(float(row["f1"]))
    with open(wilcoxon_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method_a", "method_b", "n_a", "n_b", "u", "p"])
        ms = list(cfg.methods)
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                a, b = pooled[ms[i]], pooled[ms[j]]
                if a and b:
                    u, p = wilcoxon_ranksum(np.array(a), np.array(b))
                    writer.writerow([ms[i], ms[j], len(a), len(b),
                                     f"{u:.6f}", f"{p:.6g}"])
                else:
                    writer.writerow([ms[i], ms[j], len(a), len(b), "", ""])

    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(asdict(cfg), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return {
        "results": results_path,
        "summary": summary_path,
        "wilcoxon": wilcoxon_path,
        "manifest": manifest_path,
    }

