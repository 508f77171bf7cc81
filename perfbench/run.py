"""Pipeline benchmark for waverg: one closed-loop client per workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload report_gapless --seed 1 \
        --seconds 30 --trace 0

Set-up runs several times, each in a fresh interpreter that imports the
package, draws the seeded inputs and (for ``report_gapless``) designs and
writes the filter pairs; ``setup_s`` is the median time from spawning that
interpreter until its inputs are written.  The main process then screens
every drawn input once (the census, untimed), which counts and attributes
the inputs that fail for known reasons, and runs one op after another on the
inputs that passed until ``--seconds`` have passed, timing each op and
checking its output.  The result line's ``attempted`` and ``failed`` count
these timed ops; the census is in the record line and, with ``--trace 1``,
in the per-layer ``*.failures`` metrics.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs ops
untraced for half of ``--seconds``, then replays the same ops with every
layer's public functions wrapped (see ``tracing.py``) and prints per-layer
self time and counts per successful op.

Standard output ends with two JSON lines: a record (environment, every op's
inputs, results, timings and failure attribution) and the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS thread: a steadier clock on a small shared machine, and the same
# setting for the set-up interpreters, which inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 120
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--prepare", default=None, metavar="DIR",
                    help=argparse.SUPPRESS)  # set-up interpreter mode
    return ap.parse_args(argv)


def prepare(args) -> None:
    """Set-up interpreter: draw the inputs, write them, report when ready."""
    work = Path(args.prepare)
    cls = WORKLOADS[args.workload]
    inputs = {"workload": cls.name, "seed": args.seed,
              "items": cls.draw(args.seed), **cls.prepare(work)}
    (work / "inputs.json").write_text(json.dumps(inputs))
    print(time.monotonic())


def set_up(args, work: Path) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--prepare", str(work)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(f"perfbench: set-up failed with code {done.returncode}")
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def attribute(err: Exception) -> dict:
    """The waverg layer.function that raised, and the exception type."""
    if isinstance(err, CliExit):
        return {"where": "cli.main", "type": err.error_type}
    package = str(SRC / "waverg")
    where = "perfbench"
    for frame in traceback.extract_tb(err.__traceback__):
        if frame.filename.startswith(package):
            where = f"{Path(frame.filename).stem}.{frame.name}"
    return {"where": where, "type": type(err).__name__,
            "message": str(err)[:200]}


def run_op(workload, item: dict) -> dict:
    record = {"item": item}
    start = time.perf_counter()
    try:
        out = workload.op(item)
    except Exception as err:  # a refused op is counted, and the loop goes on
        record.update(t=time.perf_counter() - start, ok=False,
                      error=attribute(err))
        return record
    record["t"] = time.perf_counter() - start
    problems = workload.check(item, out)
    record["ok"] = not problems
    if problems:
        record["error"] = {"where": "check", "type": "CheckFailed",
                           "checks": problems}
    else:
        record["results"] = workload.results(item, out)
    return record


def key(item: dict) -> str:
    return json.dumps(item, sort_keys=True)


def census(workload, items: list[dict]) -> list[dict]:
    """Screen each distinct drawn input once; a record for each."""
    records = []
    for item in {key(item): item for item in items}.values():
        record = {"item": item}
        try:
            problems = workload.screen(item)
        except Exception as err:  # a known failure: counted and attributed
            record.update(ok=False, error=attribute(err))
        else:
            record["ok"] = not problems
            if problems:
                record["error"] = {"where": "check", "type": "CheckFailed",
                                   "checks": problems}
        records.append(record)
    return records


def timed_items(workload, drawn: list[dict], screened: list[dict]):
    """The drawn inputs that passed the census, in draw order, and the
    positions in that list at which a round of draws ends (None: any)."""
    failing = {key(r["item"]) for r in screened if not r["ok"]}
    items, round_ends = [], []
    for i, item in enumerate(drawn, 1):
        if key(item) not in failing:
            items.append(item)
        if workload.round_size and i % workload.round_size == 0:
            round_ends.append(len(items))
    if not items:
        sys.exit("perfbench: no drawn input passed the census")
    return items, ({n % len(items) for n in round_ends}
                   if round_ends else None)


def run_loop(workload, items: list[dict], seconds: float = float("inf"),
             count: int | None = None, before_op=None,
             stops: set[int] | None = None) -> tuple[list, float]:
    """Closed loop: ops until ``seconds`` pass and the position in ``items``
    is one of ``stops`` (any, if None), or exactly ``count`` ops."""
    records = []
    start = time.perf_counter()

    def more() -> bool:
        if count is not None:
            return len(records) < count
        return time.perf_counter() - start < seconds or (
            stops is not None and len(records) % len(items) not in stops)

    while more():
        if before_op is not None:
            before_op(len(records))
        records.append(run_op(workload, items[len(records) % len(items)]))
    return records, time.perf_counter() - start


def environment(seed: int) -> dict:
    import numpy as np  # after the BLAS thread setting above

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "waverg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "seed": seed, "git_commit": commit,
            "src_sha256": digest.hexdigest()}


def failures(records: list[dict]) -> dict:
    """Failure attribution: counts by ``layer.function:ExceptionType``."""
    counts: dict[str, int] = {}
    for r in records:
        if not r["ok"]:
            key = f"{r['error']['where']}:{r['error']['type']}"
            counts[key] = counts.get(key, 0) + 1
    return counts


def summarize(records: list[dict]) -> dict:
    """Failure attribution and result extremes over a list of op records."""
    results = [r["results"] for r in records if r["ok"]]

    def extreme(key, pick=max):
        vals = [x[key] for x in results if x.get(key) is not None]
        return pick(vals) if vals else None

    return {"failures": failures(records),
            "failed_frac": sum(not r["ok"] for r in records) / len(records),
            "epsilon.max": extreme("epsilon"),
            "pr_residual.max": extreme("pr_residual"),
            "delta_p.max": extreme("delta_p"),
            "delta_q.max": extreme("delta_q"),
            "bound_p.max": extreme("bound_p"),
            "log10_bound_over_delta.min": extreme("log10_bound_over_delta",
                                                  min),
            "bound_vacuous.count": sum(bool(x.get("bound_vacuous"))
                                       for x in results)}


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(records, wall, setup_times) -> dict:
    good = [r["t"] for r in records if r["ok"]] or [r["t"] for r in records]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"setup_s": metric(statistics.median(setup_times), "s"),
            "op_s.p50": metric(statistics.median(good), "s"),
            "ops_per_s": metric(sum(r["ok"] for r in records) / wall, "1/s"),
            "peak_rss_mb": metric(peak_kb / 1024.0, "MB")}


def p90(records) -> float | None:
    good = [r["t"] for r in records if r["ok"]]
    if len(good) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(good, n=10)[-1]


def per_layer(tracer, untraced, traced, screened) -> dict:
    from tracing import TRACED

    n_ok = max(1, sum(r["ok"] for r in traced))
    self_s = tracer.self_seconds()
    calls = tracer.calls()
    out = {f"{layer}.self_s": metric(self_s.get(layer, 0.0) / n_ok, "s")
           for layer in TRACED}
    for layer in ("filters.multi_layer_map", "design.design_pair"):
        out[f"{layer}.calls"] = metric(calls.get(layer, 0) / n_ok, "count")
    for key, unit in (("filters.dense_map_mb", "MB"),
                      ("mera.exact_profile.samples", "count"),
                      ("dispersion.base_points", "count"),
                      ("continuum.cascade.points", "count")):
        out[key] = metric(tracer.counts.get(key, 0.0) / n_ok, unit)
    out["mera.quad_error.max"] = metric(
        tracer.counts.get("mera.quad_error.max", 0.0), "abs")
    # Failures come from the census, which sees every drawn input once;
    # the timed ops run only inputs that passed it.
    failing = [r for r in screened + traced if not r["ok"]]
    for layer in ("filters", "dispersion", "design", "circuit", "mera",
                  "continuum", "cli"):
        n = sum(r["error"]["where"].split(".")[0] == layer for r in failing)
        out[f"{layer}.failures"] = metric(
            n / (len(screened) or len(traced)), "frac")
    summary = summarize(traced)
    for key, name, unit in (("delta_p.max", "mera.delta_p.max", "abs"),
                            ("delta_q.max", "mera.delta_q.max", "abs"),
                            ("log10_bound_over_delta.min",
                             "mera.bound_margin.min", "log10"),
                            ("epsilon.max", "design.epsilon.max", "abs"),
                            ("pr_residual.max", "filters.pr_residual.max",
                             "abs")):
        out[name] = metric(summary[key] or 0.0, unit)
    untraced_s = sum(r["t"] for r in untraced)
    traced_s = sum(r["t"] for r in traced)
    out["trace.untraced_op_s"] = metric(untraced_s / n_ok, "s")
    out["trace.self_sum_s"] = metric(sum(self_s.values()) / n_ok, "s")
    out["trace_overhead_frac"] = metric(traced_s / untraced_s - 1.0, "frac")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.prepare is not None:
        prepare(args)
        return 0

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        setup_times = set_up(args, work)
        inputs = json.loads((work / "inputs.json").read_text())
        workload = WORKLOADS[args.workload](inputs, work)
        screened = census(workload, inputs["items"]) \
            if workload.screens else []
        items, stops = timed_items(workload, inputs["items"], screened)

        if args.trace:
            untraced, _ = run_loop(workload, items, args.seconds / 2.0,
                                   stops=stops)
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced, _ = run_loop(
                    workload, items, count=len(untraced),
                    before_op=lambda i: setattr(tracer, "op", i))
            finally:
                tracer.uninstall()
            records = untraced + traced
            metrics = per_layer(tracer, untraced, traced, screened)
            wall = None
        else:
            records, wall = run_loop(workload, items, args.seconds,
                                     stops=stops)
            metrics = end_to_end(records, wall, setup_times)

        run_checks = oracle_check() + determinism_check(inputs["items"][0])

    checks_failed = any(r.get("error", {}).get("where") == "check"
                        for r in screened + records)
    correct = not run_checks and not checks_failed \
        and any(r["ok"] for r in records)
    record = {"record": {
        "workload": args.workload, "trace": args.trace,
        "seconds": args.seconds, "wall_s": wall,
        "environment": environment(args.seed),
        "setup_s": setup_times, "run_checks_failed": run_checks,
        "census": {"attempted": len(screened),
                   "failed": sum(not r["ok"] for r in screened),
                   "failures": failures(screened), "ops": screened},
        "samples": sum(r["ok"] for r in records),
        "op_s.p90": p90(records), **summarize(records), "ops": records}}
    print(json.dumps(record, default=float))
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": sum(not r["ok"] for r in records),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if not (SRC / "waverg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/waverg under {ROOT}; "
                 "run from the root of a waverg checkout")
    sys.path.insert(0, str(SRC))
    from workloads import (WORKLOADS, CliExit, determinism_check,
                           oracle_check)

    sys.exit(main())
