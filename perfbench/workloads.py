"""One benchmark workload in one process: set up, warm up, run the timed
section, check the outputs, and print one JSON object as the last line.

run.py starts this file in a fresh process per workload, so set-up time
includes the imports and peak RSS belongs to this workload alone.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S
        [--trace] [--setup-only] [--tiny] [--t0 UNIX_TIME] [--spans PATH]
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, pinned before numpy loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from schemamatch import chimeric, core, kmf, pipeline, synthgen  # noqa: E402
from schemamatch.kang import KangConfig  # noqa: E402
from spans import patch_everywhere  # noqa: E402

# lowest acceptable f1_mean of each matching workload at full size: below the
# lowest value seen over 35 seeds on a 2-CPU Xeon box (chimeric_train 0.84,
# kang_mi 0.95, wide_kmf 0.999), above what the collapse of one method gives
F1_FLOORS = {"chimeric_train": 0.70, "kang_mi": 0.85, "wide_kmf": 0.98}

# Seed of each workload's fixed problem: the factor covariance and, on
# translate_rows, which columns are mapped and withheld. The run's --seed draws
# everything else (rows, scenarios, splits, initialisation, request mix), so
# it changes the instance but not how hard the problem is.
PROBLEM_SEED = 0

# largest share of the traced timed section the benchmark's own code may take
BENCH_SHARE_MAX = 0.2

# one-row, 64-row and 4096-row translate calls
BATCH_SIZES = (1, 64, 4096)


@dataclass(frozen=True)
class MatchingSpec:
    """A replicated matching sweep timed around pipeline.run_replicate."""

    dim: int
    factor_dim: int
    n_samples: int
    k_values: tuple[int, ...]
    methods: tuple[str, ...]
    replicate_s: float  # reference seconds per replicate, sizes the plan
    # the translator the pipeline calls on whole row blocks: module, function,
    # position of the row block among its arguments
    translator: tuple[str, str, int]
    # times each replicate's last translator call is re-timed, off the clock,
    # right after the replicate; the median of them is that call's latency
    retimes: int
    chimeric_cfg: chimeric.ChimericConfig = chimeric.ChimericConfig()
    kang_cfg: KangConfig = KangConfig()


@dataclass(frozen=True)
class TranslateSpec:
    """A trained translator reloaded and driven with a mix of batch sizes."""

    dim: int
    factor_dim: int
    n_samples: int
    k_mapped: int
    withheld: int
    epochs: int
    mix: tuple[int, int, int]  # calls per pass at each of BATCH_SIZES
    pass_s: float  # reference seconds per pass, sizes the plan


# the acceptance tier's tuned network, with epochs scaled to fit a run
TUNED = chimeric.ChimericConfig(lr=1e-3, hidden=(80, 40), batch_size=64, epochs=10)
AUTOENCODER = ("schemamatch.chimeric", "translate", 1)
FINGERPRINT = ("schemamatch.kmf", "fingerprint_translation", 0)

FULL = {
    # 1.25 s is below the 1.7-2.0 s a replicate takes, so that a 15 s run
    # gets four rounds of the sweep: twelve samples for replicate_s.p50
    "chimeric_train": MatchingSpec(20, 10, 10000, (6, 8, 10),
                                   ("chimeric", "kmf_then_chimeric"), 1.25,
                                   AUTOENCODER, 45, TUNED),
    "kang_mi": MatchingSpec(40, 10, 5000, (6, 10), ("kmf", "kang"), 1.9,
                            FINGERPRINT, 2001),
    "wide_kmf": MatchingSpec(1000, 10, 4000, (20, 50), ("kmf",), 0.75, FINGERPRINT, 45),
    # one-row calls outnumber the big operations that evict the caches (4096-row
    # batches, reconstructions, the reload) by more than 200 to 1, so p99 is a
    # tail of one population, not the edge between warm and cold calls
    "translate_rows": TranslateSpec(20, 10, 10000, 8, 3, 10, (1600, 60, 3), 0.2),
}

# shapes small enough for the smoke test; outputs are not held to floors
TINY = {
    "chimeric_train": replace(FULL["chimeric_train"], n_samples=800, k_values=(8,),
                              retimes=3, chimeric_cfg=replace(TUNED, epochs=1)),
    "kang_mi": replace(FULL["kang_mi"], dim=12, factor_dim=4, n_samples=600,
                       k_values=(4,), retimes=3, kang_cfg=KangConfig(iterations=200)),
    "wide_kmf": replace(FULL["wide_kmf"], dim=60, n_samples=600, k_values=(10,),
                        retimes=3),
    "translate_rows": replace(FULL["translate_rows"], n_samples=800, epochs=1,
                              mix=(20, 4, 1)),
}


def plan_size(seconds: float, unit_s: float, group: int = 1) -> int:
    """How many units of work, in whole groups, fill `seconds` at the
    reference speed."""
    return max(1, round(seconds / (unit_s * group))) * group


def make_mix(rng, counts, n_dirs: int, n_rows: int):
    """A seeded, shuffled list of (batch size, direction, first row)."""
    calls = []
    for size, count in zip(BATCH_SIZES, counts):
        for _ in range(count):
            calls.append((size, int(rng.integers(n_dirs)),
                          int(rng.integers(0, n_rows - size + 1))))
    return [calls[i] for i in rng.permutation(len(calls))]


def tile_rows(values: np.ndarray) -> np.ndarray:
    """Repeat rows until the largest batch fits."""
    reps = math.ceil(max(BATCH_SIZES) / len(values))
    return np.tile(values, (reps, 1)) if reps > 1 else values


class MixStats:
    """Accumulates the timings and failures of translate calls."""

    def __init__(self):
        self.single_us: list[float] = []
        self.rows = 0
        self.seconds = 0.0
        self.attempted = 0
        self.errors: list[str] = []

    def run(self, calls, fns, sources) -> None:
        for size, d, first in calls:
            x = sources[d][first:first + size]
            self.attempted += 1
            t = time.perf_counter()
            try:
                out = fns[d](x)
            except Exception as exc:  # count it and keep going
                self.errors.append(f"translate {size} rows: {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t
            if not np.all(np.isfinite(out)):
                self.errors.append(f"translate {size} rows: non-finite output")
                continue
            self.rows += size
            self.seconds += dt
            if size == 1:
                self.single_us.append(dt * 1e6)

    def enough_for_p99(self, tiny: bool) -> bool:
        """At least ten one-row samples beyond p99 (any at smoke-test sizes)."""
        return len(self.single_us) >= (1 if tiny else 1000)

    def metrics(self) -> dict[str, float]:
        us = np.array(self.single_us)
        return {
            "rows_per_s": self.rows / self.seconds,
            "single_row_us.p50": float(np.percentile(us, 50)),
            "single_row_us.p99": float(np.percentile(us, 99)),
        }


class Matching:
    def __init__(self, name: str, spec: MatchingSpec, seed: int, seconds: float,
                 tiny: bool, workdir: Path):
        self.name, self.spec, self.seed, self.tiny = name, spec, seed, tiny
        self.cfg = pipeline.ExperimentConfig(
            name=name, family="gaussian", dim=spec.dim, factor_dim=spec.factor_dim,
            n_samples=spec.n_samples, sweep="k_mapped", sweep_values=spec.k_values,
            methods=spec.methods, chimeric=spec.chimeric_cfg, kang=spec.kang_cfg,
            master_seed=seed,
        )
        n = plan_size(seconds, spec.replicate_s, len(spec.k_values))
        ks = spec.k_values
        # (sweep index, k, trial): every k in turn, a new trial per round
        self.plan = [(i % len(ks), ks[i % len(ks)], i // len(ks)) for i in range(n)]
        self.replicate_s: list[float] = []
        self.results = []
        self.last_call = None  # arguments of the translator's latest call
        self.latency: list[tuple[int, float]] = []  # (rows, median seconds) per call
        self.translator_calls = 0
        self.off_clock = 0.0  # seconds of re-timing inside the timed section

    def setup(self, tracer) -> None:
        spec = self.spec
        self.cov = synthgen.make_covariance(
            synthgen.CovarianceSpec(spec.dim, spec.factor_dim, seed=PROBLEM_SEED))
        # warm-up: the first planned replicate, with training and swap search cut short
        warm = replace(self.cfg, chimeric=replace(self.cfg.chimeric, epochs=1),
                       kang=replace(self.cfg.kang, iterations=min(500, self.cfg.kang.iterations)))
        vi, k, trial = self.plan[0]
        tracer.replicate = "warmup"
        pipeline.run_replicate(warm, k, vi, trial, 0, self.cov)
        self.capture_translator()

    def capture_translator(self) -> None:
        """Wrap the translator so that each call's arguments are remembered.
        The wrapper adds one assignment per call; the pipeline makes one to
        four such calls per replicate."""
        module, attr, _ = self.spec.translator
        self.translate = orig = getattr(sys.modules[module], attr)

        @functools.wraps(orig)
        def remembered(*args, **kwargs):
            self.last_call = (args, kwargs)
            self.translator_calls += 1
            return orig(*args, **kwargs)

        patch_everywhere(orig, remembered)

    def timed(self, tracer) -> None:
        for vi, k, trial in self.plan:
            tracer.replicate = f"k{k}/t{trial}"
            t = time.perf_counter()
            try:
                scenario, out = pipeline.run_replicate(self.cfg, k, vi, trial, 0, self.cov)
            except Exception as exc:  # the whole replicate failed
                err = f"{type(exc).__name__}: {exc}"
                scenario, out = None, {m: (None, None, err) for m in self.cfg.methods}
            self.replicate_s.append(time.perf_counter() - t)
            self.results.append((k, trial, scenario, out))
            # end-to-end metrics come from untraced runs only: a traced run
            # skips the re-timing, so its per-layer figures show the pipeline
            if self.last_call is not None and not tracer.active:
                t = time.perf_counter()
                self.latency.append(self.retime(*self.last_call))
                self.off_clock += time.perf_counter() - t
            self.last_call = None

    def retime(self, args, kwargs) -> tuple[int, float]:
        """Re-time one of the pipeline's own translator calls, at its real
        shape, and return its rows and median seconds. It runs right after
        its replicate, so the calls of a run sample the host over the whole
        timed section; the pipeline's single call per replicate is too
        exposed to a moment's slowness for a steady figure."""
        times = np.empty(self.spec.retimes)
        for r in range(self.spec.retimes):
            t = time.perf_counter()
            self.translate(*args, **kwargs)
            times[r] = time.perf_counter() - t
        return len(args[self.spec.translator[2]]), float(np.median(times))

    def latency_metrics(self) -> dict[str, float]:
        """There are no one-row calls here: single_row_us is the cost per row
        of the pipeline's whole-block calls, ranked over the calls."""
        rows, seconds = np.array(self.latency).T
        per_row_us = seconds * 1e6 / rows
        return {
            "rows_per_s": float(rows.sum() / seconds.sum()),
            "single_row_us.p50": float(np.percentile(per_row_us, 50)),
            "single_row_us.p99": float(np.percentile(per_row_us, 99)),
        }

    def finish(self, tracer) -> dict:
        f1s, errors, surrogate = [], [], []
        for k, trial, scenario, out in self.results:
            gold = dict(scenario.gold_map) if scenario is not None else {}
            for method, (res, rep, err) in out.items():
                f1s.append(rep.f1 if rep is not None else 0.0)
                if err:
                    errors.append(f"{method}@k{k}/t{trial}: {err}")
                    continue
                # hold-out correlation of each proposed gold pair: how well the
                # method's translator reconstructs the partner column
                surrogate += [abs(p.holdout_stat) for p in res.proposals
                              if gold.get(p.feature_a) == p.feature_b
                              and not math.isnan(p.holdout_stat)]
        f1_mean = float(np.mean(f1s))
        checks = {"translator_called": self.translator_calls > 0}
        if not self.tiny:
            checks["f1_floor"] = f1_mean >= F1_FLOORS[self.name]
        latency = self.latency_metrics() if self.latency else {}
        return {
            # one operation per (replicate, method) pair
            "attempted": len(f1s),
            "errors": errors,
            "checks": checks,
            "metrics": {
                "replicate_s.p50": float(np.median(self.replicate_s)),
                "f1_mean": f1_mean,
                "surrogate_corr": float(np.mean(surrogate)) if surrogate else 0.0,
                **latency,
            },
            "samples": {"replicate": len(self.replicate_s),
                        "latency": len(self.latency) * self.spec.retimes},
        }


class Translate:
    DIRECTIONS = ("a_to_b", "b_to_a")
    off_clock = 0.0

    def __init__(self, name: str, spec: TranslateSpec, seed: int, seconds: float,
                 tiny: bool, workdir: Path):
        self.spec, self.seed, self.tiny, self.workdir = spec, seed, tiny, workdir
        self.passes = plan_size(seconds, spec.pass_s)
        self.pass_s: list[float] = []
        self.mix = MixStats()

    def setup(self, tracer) -> None:
        spec, seed = self.spec, self.seed
        derive = pipeline.derive_seed
        cov = synthgen.make_covariance(
            synthgen.CovarianceSpec(spec.dim, spec.factor_dim, seed=PROBLEM_SEED))
        self.source = synthgen.sample(synthgen.GeneratorSpec(
            "gaussian", spec.dim, spec.n_samples, seed=derive(seed, 1)), cov)
        ds_a, ds_b, self.scenario = synthgen.build_scenario(
            self.source, "onto", spec.k_mapped, drop_counts=(spec.withheld, 0),
            seed=PROBLEM_SEED)
        ds_a, ds_b = core.unit_norm(ds_a), core.unit_norm(ds_b)
        # round trip through the CSV files and mapped-column sidecars
        loaded = []
        for tag, ds in (("a", ds_a), ("b", ds_b)):
            csv_path, map_path = self.workdir / f"{tag}.csv", self.workdir / f"{tag}.mapped"
            core.write_dataset_csv(ds, csv_path)
            core.write_mapped_sidecar(ds, map_path)
            loaded.append(core.load_dataset(csv_path, map_path, name=tag.upper()))
        self.csv_exact = all(np.array_equal(x.values, y.values)
                             for x, y in zip((ds_a, ds_b), loaded))
        self.ds_a, self.ds_b = loaded
        # the library defaults (lr 1e-2): at 10 epochs the tuned lr 1e-3 leaves
        # the translator undertrained and its quality swings with the seed
        cfg = chimeric.ChimericConfig(epochs=spec.epochs, seed=derive(seed, 4))
        settings = pipeline.MatchSettings(split_seed=derive(seed, 5))
        res = pipeline.run_chimeric(self.ds_a, self.ds_b, cfg, settings)
        self.f1 = pipeline.evaluate(res.proposals, self.scenario).f1
        self.model = res.model
        self.checkpoint = self.workdir / "model.npz"
        chimeric.save_model(self.model, self.checkpoint)
        self.sources = [tile_rows(self.ds_a.values), tile_rows(self.ds_b.values)]
        rng = np.random.default_rng([seed, 6])
        self.calls = make_mix(rng, spec.mix, 2, min(len(s) for s in self.sources))
        # warm-up: reload once and translate one batch of each size both ways
        tracer.replicate = "warmup"
        model = chimeric.load_model(self.checkpoint)
        warm = [(size, d, 0) for size in BATCH_SIZES for d in (0, 1)]
        MixStats().run(warm, self._fns(model), self.sources)

    def _fns(self, model):
        return [lambda x, d=d: chimeric.translate(model, x, d) for d in self.DIRECTIONS]

    def timed(self, tracer) -> None:
        for i in range(self.passes):
            tracer.replicate = f"pass{i}"
            t = time.perf_counter()
            model = chimeric.load_model(self.checkpoint)
            self.mix.run(self.calls, self._fns(model), self.sources)
            recon = {}
            for feature in self.scenario.dropped_from_a:
                self.mix.attempted += 1
                try:
                    recon[feature] = chimeric.reconstruct_unshared(
                        model, self.ds_a, feature, "a_to_b")
                except Exception as exc:  # count it and keep going
                    self.mix.errors.append(f"reconstruct {feature}: {type(exc).__name__}: {exc}")
            self.pass_s.append(time.perf_counter() - t)
        self.loaded, self.recon = model, recon

    def finish(self, tracer) -> dict:
        tracer.replicate = "checks"
        bitwise = all(
            np.array_equal(chimeric.translate(self.model, src, d),
                           chimeric.translate(self.loaded, src, d))
            for src, d in zip((self.ds_a.values, self.ds_b.values), self.DIRECTIONS)
        )
        corrs = []
        for feature, pred in self.recon.items():
            truth = pipeline.withheld_truth(self.source, self.scenario, feature, "a")
            corrs.append(abs(float(np.corrcoef(pred, truth)[0, 1])))
        finite = all(np.all(np.isfinite(v)) for v in self.recon.values())
        return {
            "attempted": self.mix.attempted,
            "errors": self.mix.errors,
            "checks": {"checkpoint_bitwise": bitwise, "csv_round_trip": self.csv_exact,
                       "reconstruction_finite": finite,
                       "single_row_samples": self.mix.enough_for_p99(self.tiny)},
            "metrics": {
                "replicate_s.p50": float(np.median(self.pass_s)),
                "f1_mean": self.f1,
                "surrogate_corr": float(np.mean(corrs)) if corrs else 0.0,
                **self.mix.metrics(),
            },
            "samples": {"replicate": len(self.pass_s),
                        "latency": len(self.mix.single_us)},
        }


WORKLOADS = {"chimeric_train": Matching, "kang_mi": Matching, "wide_kmf": Matching,
             "translate_rows": Translate}


class Untraced:
    """Stands in for spans.Tracer when the run is not traced."""

    replicate = ""
    active = False

    def span(self, name):
        return nullcontext()


def blas_threads() -> int:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def provenance(seed: int) -> dict:
    import platform

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--t0", type=float, default=None,
                    help="wall-clock time the parent started this process")
    ap.add_argument("--spans", default=None, help="write the traced spans here")
    args = ap.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.time()

    tracer = Untraced()
    if args.trace:
        from layers import WRAPPED
        from spans import Tracer

        tracer = Tracer()
        tracer.install(WRAPPED)
    specs = TINY if args.tiny else FULL
    tmp_root = ROOT / ".perfbench" / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        work = WORKLOADS[args.workload](args.workload, specs[args.workload], args.seed,
                                        args.seconds, args.tiny, workdir)
        with tracer.span("bench.setup"):
            work.setup(tracer)
        setup_s = time.time() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        with tracer.span("bench.timed"):
            t = time.perf_counter()
            work.timed(tracer)
            wall_s = time.perf_counter() - t - work.off_clock
        with tracer.span("bench.finish"):
            result = work.finish(tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # every failed operation fails the run; its message is in "errors"
    result["checks"]["no_failures"] = not result["errors"]
    result["metrics"].update(
        setup_s=setup_s,
        wall_s=wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    result["provenance"] = provenance(args.seed)
    if args.trace:
        from layers import per_layer

        layer = per_layer(tracer, wall_s)
        result["layers"] = layer
        result["missing_layers"] = tracer.missing
        result["checks"]["trace_spans_closed"] = tracer.open_spans() == 0
        # the timed section must time the program, not the benchmark's own loop
        result["checks"]["trace_bench_share"] = layer["trace.bench_share"] <= BENCH_SHARE_MAX
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
