"""What the traced run wraps, what it counts, and how spans become the
per-layer metrics named in BENCHMARK.json."""

from __future__ import annotations

import math
import sys
from collections import defaultdict

from spans import Tracer, subtree


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _macs(net) -> int:
    return sum(a * b for a, b in zip(net.sizes[:-1], net.sizes[1:]))


def _forward(c, args, kwargs, out, exc, dt):
    net, x = args[0], args[1]
    rows = len(x)
    c["neural.forward_rows"] += rows
    c["neural.flop"] += 2 * _macs(net) * rows
    if not _arg(args, kwargs, 2, "train", False):
        c["neural.forward_eval_s"] += dt
        c["neural.forward_eval_calls"] += 1
        c["neural.forward_eval_rows"] += rows


def _backward(c, args, kwargs, out, exc, dt):
    # weight gradient and input gradient: two matrix products per layer
    c["neural.flop"] += 4 * _macs(args[0]) * len(_arg(args, kwargs, 2, "grad_output"))


def _train(c, args, kwargs, out, exc, dt):
    if exc is not None:
        if type(exc).__name__ == "TrainingDiverged":
            c["chimeric.diverged"] += 1
        return
    cfg = out.config
    rows = max(args[0].n_rows, args[1].n_rows)
    c["chimeric.steps"] += max(1, math.ceil(rows / cfg.batch_size)) * cfg.epochs


def _translate(c, args, kwargs, out, exc, dt):
    c["chimeric.translate_rows"] += len(args[1])


def _run_method(c, args, kwargs, out, exc, dt):
    c[f"pipeline.{_arg(args, kwargs, 0, 'method')}_s"] += dt


def _kang_match(c, args, kwargs, out, exc, dt):
    cfg = _arg(args, kwargs, 3, "cfg") or sys.modules["schemamatch.kang"].KangConfig()
    c["kang.swaps_proposed"] += max(1, cfg.iterations // 500) * cfg.iterations


def _gale_shapley(c, args, kwargs, out, exc, dt):
    c["matcher.market_cells"] += _arg(args, kwargs, 0, "sim").values.size


def _holdout_filter(c, args, kwargs, out, exc, dt):
    c["matcher.proposals_tested"] += sum(p.rank_of_choice != 0 for p in args[0])
    if out is not None:
        c["matcher.proposals_accepted"] += sum(
            p.accepted and p.rank_of_choice != 0 for p in out
        )


def _promote(c, args, kwargs, out, exc, dt):
    c["kmf.stage_one_accepted"] += sum(p.accepted for p in args[2])
    if out is not None:
        c["kmf.promoted_pairs"] += len(out[2])


def _load_dataset(c, args, kwargs, out, exc, dt):
    if out is not None:
        columns = {f.parent or f.name for f in out.features}
        c["core.cells_parsed"] += out.n_rows * len(columns)


# (module, attribute path, span name, count hook)
WRAPPED = (
    ("schemamatch.pipeline", "run_replicate", "pipeline.run_replicate", None),
    ("schemamatch.pipeline", "run_method", "pipeline.run_method", _run_method),
    ("schemamatch.pipeline", "evaluate", "pipeline.evaluate", None),
    ("schemamatch.synthgen", "make_covariance", "synthgen.make_covariance", None),
    ("schemamatch.synthgen", "sample", "synthgen.sample", None),
    ("schemamatch.synthgen", "build_scenario", "synthgen.build_scenario", None),
    ("schemamatch.core", "unit_norm", "core.unit_norm", None),
    ("schemamatch.core", "write_dataset_csv", "core.write_dataset_csv", None),
    ("schemamatch.core", "load_dataset", "core.load_dataset", _load_dataset),
    ("schemamatch.kmf", "fingerprints", "kmf.fingerprints", None),
    ("schemamatch.kmf", "kmf_similarity", "kmf.kmf_similarity", None),
    ("schemamatch.kmf", "fingerprint_translation", "kmf.fingerprint_translation", None),
    ("schemamatch.kmf", "promote_matches", "kmf.promote_matches", _promote),
    ("schemamatch.matcher", "gale_shapley", "matcher.gale_shapley", _gale_shapley),
    ("schemamatch.matcher", "holdout_filter", "matcher.holdout_filter", _holdout_filter),
    ("schemamatch.stats", "mutual_information", "stats.mutual_information", None),
    ("schemamatch.stats", "entropy", "stats.entropy", None),
    ("schemamatch.stats", "pearson_matrix", "stats.pearson_matrix", None),
    ("schemamatch.stats", "by_stepdown", "stats.by_stepdown", None),
    ("schemamatch.kang", "mi_matrix", "kang.mi_matrix", None),
    ("schemamatch.kang", "kang_match", "kang.kang_match", _kang_match),
    ("schemamatch.chimeric", "train", "chimeric.train", _train),
    ("schemamatch.chimeric", "translate", "chimeric.translate", _translate),
    ("schemamatch.chimeric", "chimeric_dependence", "chimeric.chimeric_dependence", None),
    ("schemamatch.chimeric", "reconstruct_unshared", "chimeric.reconstruct_unshared", None),
    ("schemamatch.chimeric", "save_model", "chimeric.save_model", None),
    ("schemamatch.chimeric", "load_model", "chimeric.load_model", None),
    ("schemamatch.neural", "Mlp.forward", "neural.forward", _forward),
    ("schemamatch.neural", "Mlp.backward", "neural.backward", _backward),
    ("schemamatch.neural", "Adam.step", "neural.adam_step", None),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, wall_traced: float) -> dict[str, float]:
    """Every per-layer quantity the trace yields: `<span>_s` and `<span>_calls`
    for each span name, the hooks' counters, `<module>.self_s`, derived
    rates, and the self-time closure of the timed section. A name that never
    occurred (a layer the workload does not reach, or a missing function) is
    absent; callers read it as zero."""
    out: dict[str, float] = defaultdict(float)
    selfs = tracer.self_times()
    for name, s, e, own in zip(tracer.names, tracer.starts, tracer.ends, selfs):
        out[f"{name}_s"] += e - s
        out[f"{name}_calls"] += 1
        out[f"{name.split('.')[0]}.self_s"] += own
    out.update(tracer.counters)
    busy = out["neural.forward_s"] + out["neural.backward_s"]
    out["neural.gflop_per_s"] = _ratio(out["neural.flop"], busy) / 1e9
    out["chimeric.step_ms"] = _ratio(out["chimeric.train_s"], out["chimeric.steps"]) * 1e3
    out["kang.swaps_per_s"] = _ratio(out["kang.swaps_proposed"], out["kang.kang_match_s"])
    out["matcher.accept_ratio"] = _ratio(out["matcher.proposals_accepted"],
                                         out["matcher.proposals_tested"])
    out["kmf.promoted_ratio"] = _ratio(out["kmf.promoted_pairs"],
                                       out["kmf.stage_one_accepted"])
    roots = [i for i, n in enumerate(tracer.names) if n == "bench.timed"]
    timed = subtree(tracer.parents, roots[0]) if roots else []
    out["trace.self_sum_s"] = sum(selfs[i] for i in timed)
    out["trace.bench_share"] = _ratio(selfs[roots[0]], wall_traced) if roots else 0.0
    out["trace.wall_s_traced"] = wall_traced
    out["trace.spans"] = len(tracer.names)
    out["trace.missing_layers"] = len(tracer.missing)
    return out
