"""Command-line interface: generate synthetic scenarios, run matchers, translate
rows across databases, evaluate proposals, tune hyperparameters, and run
replicated benchmarks."""

from __future__ import annotations

import argparse
import json
import logging
import sys

import numpy as np

from . import chimeric as chimeric_mod
from . import kang as kang_mod
from .core import (
    ScenarioSpec,
    from_dict,
    load_dataset,
    unit_norm,
    write_dataset_csv,
    write_mapped_sidecar,
)
from .matcher import proposals_from_csv, proposals_to_csv
from .pipeline import (
    ExperimentConfig,
    MatchSettings,
    evaluate,
    run_benchmark,
    run_method,
    tune_hyperparams,
)
from .synthgen import CovarianceSpec, GeneratorSpec, build_scenario, make_covariance, sample

log = logging.getLogger("schemamatch")


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _method_cfg(cls, args):
    """The --config file as a `cls` instance, or the defaults seeded by --seed."""
    if getattr(args, "config", None):
        return from_dict(cls, _load_json(args.config))
    return cls(seed=getattr(args, "seed", 0))


def _cmd_synth(args) -> int:
    import os

    os.makedirs(args.out, exist_ok=True)
    cov = None
    if args.family != "independent_gaussian":
        cov = make_covariance(
            CovarianceSpec(args.dim, args.factor_dim, seed=args.seed)
        )
    ds = sample(
        GeneratorSpec(family=args.family, dim=args.dim, n_samples=args.n_samples,
                      seed=args.seed),
        cov,
    )
    ds_a, ds_b, scenario = build_scenario(
        ds, args.map_kind, args.k_mapped,
        drop_counts=(args.drop_a, args.drop_b),
        transform_count=args.transform_count,
        seed=args.seed,
    )
    if args.normalize:
        ds_a, ds_b = unit_norm(ds_a), unit_norm(ds_b)
    write_dataset_csv(ds_a, os.path.join(args.out, "a.csv"))
    write_dataset_csv(ds_b, os.path.join(args.out, "b.csv"))
    write_mapped_sidecar(ds_a, os.path.join(args.out, "a.mapped"))
    write_mapped_sidecar(ds_b, os.path.join(args.out, "b.mapped"))
    with open(os.path.join(args.out, "scenario.json"), "w") as fh:
        fh.write(scenario.to_json())
    log.info("wrote scenario to %s", args.out)
    return 0


def _load_pair(args):
    ds_a = load_dataset(args.a, args.mapped_a, name="A")
    ds_b = load_dataset(args.b, args.mapped_b, name="B")
    if args.normalize:
        ds_a, ds_b = unit_norm(ds_a), unit_norm(ds_b)
    return ds_a, ds_b


def _cmd_match(args) -> int:
    ds_a, ds_b = _load_pair(args)
    settings = MatchSettings(fdr_q=args.fdr_q, split_seed=args.seed)
    # --config holds the chosen method's config; build only the one it reads
    res = run_method(
        args.method, ds_a, ds_b, settings,
        chimeric_cfg=(_method_cfg(chimeric_mod.ChimericConfig, args)
                      if "chimeric" in args.method else None),
        kang_cfg=_method_cfg(kang_mod.KangConfig, args) if args.method == "kang" else None,
    )
    proposals_to_csv(res.proposals, args.out)
    n_acc = sum(p.accepted for p in res.proposals)
    log.info("%d proposals (%d accepted) -> %s", len(res.proposals), n_acc, args.out)
    return 0


def _cmd_translate(args) -> int:
    import csv as csv_mod

    ds_a, ds_b = _load_pair(args)
    cfg = _method_cfg(chimeric_mod.ChimericConfig, args)
    model = chimeric_mod.train(ds_a, ds_b, cfg)
    src = ds_a if args.direction == "a_to_b" else ds_b
    z = chimeric_mod.translate(model, src.values, args.direction)
    names = model.features_b if args.direction == "a_to_b" else model.features_a
    with open(args.out, "w", newline="") as fh:
        writer = csv_mod.writer(fh)
        writer.writerow(names)
        for row in z:
            writer.writerow([f"{v:.10g}" for v in row])
    if args.model_out:
        chimeric_mod.save_model(model, args.model_out)
    log.info("translated %d rows -> %s", z.shape[0], args.out)
    return 0


def _cmd_eval(args) -> int:
    proposals = proposals_from_csv(args.proposals)
    with open(args.scenario) as fh:
        scenario = ScenarioSpec.from_json(fh.read())
    rep = evaluate(proposals, scenario)
    line = (
        f"tp={rep.tp} fp={rep.fp} fn={rep.fn} f1={rep.f1:.6f} n_gold={rep.n_gold}"
    )
    print(line)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(line + "\n")
    return 0


def _cmd_tune(args) -> int:
    ds_a, ds_b = _load_pair(args)
    grid_raw = _load_json(args.grid)
    cls = kang_mod.KangConfig if args.method == "kang" else chimeric_mod.ChimericConfig
    grid = [from_dict(cls, g) for g in grid_raw]
    result = tune_hyperparams(
        ds_a, ds_b, grid, protocol=args.protocol, folds=args.folds,
        method=args.method, seed=args.seed,
    )
    out = {
        "best_index": result.best_index,
        "best_score": result.best_score,
        "mean_scores": result.mean_scores,
        "best_config": grid_raw[result.best_index],
    }
    text = json.dumps(out, indent=1)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


def _cmd_bench(args) -> int:
    cfg = from_dict(ExperimentConfig, _load_json(args.config))
    paths = run_benchmark(cfg, args.out)
    for key, path in paths.items():
        log.info("%s: %s", key, path)
    print(paths["summary"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schemamatch",
        description="Schema matching and cross-database translation toolkit",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic two-database scenario")
    p.add_argument("--family", default="gaussian",
                   choices=["gaussian", "two_cluster_gaussian",
                            "binarized_two_cluster", "independent_gaussian"])
    p.add_argument("--dim", type=int, default=20)
    p.add_argument("--factor-dim", type=int, default=10)
    p.add_argument("--n-samples", type=int, default=10000)
    p.add_argument("--map-kind", default="permutation",
                   choices=["permutation", "onto", "partial"])
    p.add_argument("--k-mapped", type=int, default=4)
    p.add_argument("--drop-a", type=int, default=0)
    p.add_argument("--drop-b", type=int, default=0)
    p.add_argument("--transform-count", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--normalize", action="store_true",
                   help="unit-norm continuous columns before writing")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    def add_pair_args(p):
        p.add_argument("--a", required=True, help="CSV for database A")
        p.add_argument("--b", required=True, help="CSV for database B")
        p.add_argument("--mapped-a", required=True, help="mapped sidecar for A")
        p.add_argument("--mapped-b", required=True, help="mapped sidecar for B")
        p.add_argument("--normalize", action="store_true")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("match", help="propose feature matches between two databases")
    add_pair_args(p)
    p.add_argument("--method", default="kmf",
                   choices=["kmf", "chimeric", "kmf_then_chimeric", "kang"])
    p.add_argument("--config", help="JSON config for the chosen method")
    p.add_argument("--fdr-q", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("translate", help="translate rows into the partner schema")
    add_pair_args(p)
    p.add_argument("--direction", default="a_to_b", choices=["a_to_b", "b_to_a"])
    p.add_argument("--config", help="JSON chimeric config")
    p.add_argument("--model-out", help="optional model checkpoint path")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("eval", help="score proposals against scenario ground truth")
    p.add_argument("--proposals", required=True)
    p.add_argument("--scenario", required=True, help="scenario.json with the gold map")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("tune", help="grid-search configs by hidden-pair recovery")
    add_pair_args(p)
    p.add_argument("--grid", required=True, help="JSON list of configs")
    p.add_argument("--protocol", default="leave_one_out",
                   choices=["leave_one_out", "half_split"])
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--method", default="chimeric",
                   choices=["kmf", "chimeric", "kmf_then_chimeric", "kang"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("bench", help="run a replicated benchmark from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except Exception as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
