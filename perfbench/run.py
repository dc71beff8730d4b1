"""schemamatch benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload runs in fresh child processes
(perfbench/workloads.py, which pins itself to one BLAS thread). With --trace 0
the last line of standard output is a JSON object holding every end-to-end
metric of BENCHMARK.json; with --trace 1 it holds every per-layer metric, from a traced
child compared against an untraced one. Exit status is 0 only when every
output check passed. Full records, including provenance, error messages and
traced spans, are written under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3  # set-ups per run; setup_s is their median
BUDGET_S = 170.0  # every child must end within this many seconds of the start


class BenchError(RuntimeError):
    pass


def source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git repos."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def child(args, deadline: float, *extra: str) -> dict:
    """Run workloads.py once and return the JSON object it printed last."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra,
           "--t0", repr(time.time())]
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("time budget spent before a child could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{' '.join(extra) or 'run'} child exceeded the budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited with {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"child printed no result: {lines[-1][:200]!r}") from exc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes; f1 floors are not applied")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "schemamatch" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a schemamatch checkout (src/schemamatch and "
              "BENCHMARK.json are needed)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tiny = ("--tiny",) if args.tiny else ()
    try:
        main_run = child(args, deadline, *tiny)
        runs = [main_run]
        if args.trace:
            traced = child(args, deadline, "--trace", "--spans",
                           str(out_dir / f"{tag}.spans.json"), *tiny)
            runs.append(traced)
            values = dict(traced["layers"])
            values["trace.wall_s_untraced"] = main_run["metrics"]["wall_s"]
            values["trace.overhead"] = traced["metrics"]["wall_s"] / main_run["metrics"]["wall_s"]
            entries = spec["per_layer"]
        else:
            setups = [main_run["metrics"]["setup_s"]]
            for _ in range(SETUP_REPEATS - 1):
                setups.append(child(args, deadline, "--setup-only", *tiny)["setup_s"])
            values = dict(main_run["metrics"])
            values["setup_s"] = statistics.median(setups)
            entries = spec["end_to_end"]
    except BenchError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    record = runs[-1]
    errors = [err for run in runs for err in run["errors"]]
    failed = len(errors)
    attempted = sum(run["attempted"] for run in runs)
    values["ok_ratio"] = 1.0 - failed / attempted
    # sample counts of the untraced run, the one end-to-end metrics come from
    values["bench.replicate_samples"] = main_run["samples"]["replicate"]
    values["bench.latency_samples"] = main_run["samples"]["latency"]
    # a check passes only if it passed in every child
    checks: dict[str, bool] = {}
    for run in runs:
        for name, ok in run["checks"].items():
            checks[name] = checks.get(name, True) and ok
    if not args.trace and not all(e["name"] in values for e in entries):
        print(f"perfbench: end-to-end metrics missing from {args.workload}", file=sys.stderr)
        return 1
    # a per-layer quantity the workload never produced (layer not reached, or
    # its function missing) reads as zero
    metrics = {e["name"]: {"value": float(values.get(e["name"], 0.0)), "unit": e["unit"]}
               for e in entries}
    provenance = dict(record["provenance"], git_sha=git_sha(), src_sha256=source_digest(),
                      workload=args.workload, seconds=args.seconds, trace=args.trace)
    correct = all(checks.values())
    full = {"provenance": provenance, "checks": checks, "errors": errors,
            "samples": main_run["samples"], "missing_layers": record.get("missing_layers", []),
            "metrics": metrics}
    (out_dir / f"{tag}.json").write_text(json.dumps(full, indent=1) + "\n")

    for err in errors:
        print(f"failed: {err}")
    for name in record.get("missing_layers", []):
        print(f"missing layer: {name}")
    for name, ok in sorted(checks.items()):
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
