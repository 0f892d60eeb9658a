"""Seeded benchmark of oranslice's solve, sweep and oracle paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/``.  One
run sets up the workload's inputs from ``--seed``, then runs operations in a
closed loop for ``--seconds`` (at least the workload's first ``min_ops``
operations), checks every output after the timed loop, and prints as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` spans are recorded around each module's public functions and
the metrics are per layer.  Files go to ``.perfbench/`` under the root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"),
              ("latency_p50_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("radio.ibar_calls", "count"), ("radio.ibar_s", "s"),
    ("radio.channels_s", "s"), ("radio.eval_calls", "count"),
    ("radio.eval_s", "s"), ("radio.ibar_call_s.u52", "s"),
    ("radio.ibar_call_s.u147", "s"), ("radio.ibar_call_s.u289", "s"),
    ("slicing.sweep_s", "s"), ("slicing.checks", "count"),
    ("slicing.check_s_p50", "s"), ("slicing.accept_ratio", "ratio"),
    ("slicing.reject.ru_cap", "count"), ("slicing.reject.min_rate", "count"),
    ("slicing.reject.fronthaul", "count"), ("slicing.reject.delay", "count"),
    ("slicing.reject.singular", "count"),
    ("power.steps", "count"), ("power.inner_iters", "count"),
    ("power.capped_ratio", "ratio"), ("power.subgradient_s", "s"),
    ("power.inner_iter_s", "s"),
    ("queueing.delay_calls", "count"), ("queueing.delay_s", "s"),
    ("placement.place_s", "s"), ("placement.admitted_ratio", "ratio"),
    ("oracle.exhaustive_s", "s"), ("oracle.leaves", "count"),
    ("oracle.leaves_per_s", "1/s"), ("oracle.brute_force_s", "s"),
    ("oracle.mappings_tried", "count"), ("oracle.mm1_s", "s"),
    ("scenario.load_s", "s"), ("scenario.generate_s", "s"),
    ("cli.self_s", "s"), ("cli.pool_cpu_util", "ratio"),
    ("cli.pool_speedup", "ratio"),
    ("baseline.u52.sweep_s", "s"), ("baseline.u52.power_s", "s"),
    ("baseline.u52.checks", "count"), ("baseline.u52.inner_iters", "count"),
    ("baseline.u147.sweep_s", "s"), ("baseline.u147.power_s", "s"),
    ("baseline.u147.checks", "count"),
    ("baseline.u147.inner_iters", "count"),
)


def git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside
    a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, nproc: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "nproc": nproc,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
            "ORAN_SLICE_THREADS": os.environ["ORAN_SLICE_THREADS"],
            "commit": git_commit(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing the CLI."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import oranslice.cli"],
                       env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail_latency(walls: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n < 20:
        return None
    ordered = sorted(walls)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = int(pct / 100.0 * n)
        if n - rank >= 10:
            return {"value": ordered[min(rank, n - 1)], "unit": "s",
                    "percentile": pct, "samples": n}
    return None


def check_hashes(workload: str, seed: int, ops) -> list[str]:
    """Result files of one input must hash the same within this run and
    across every earlier run of this workload and seed, traced or not."""
    errors = []
    seen: dict[str, dict] = {}
    for res, _wall in ops:
        if not res.hashes:
            continue
        if res.key in seen and seen[res.key] != res.hashes:
            errors.append(f"{res.key}: result files differ between repeats")
        seen.setdefault(res.key, res.hashes)
    store_dir = os.path.join(OUT, "hashes")
    os.makedirs(store_dir, exist_ok=True)
    store = os.path.join(store_dir, f"{workload}-s{seed}.json")
    earlier = {}
    if os.path.exists(store):
        with open(store) as fh:
            earlier = json.load(fh)
    for key, hashes in seen.items():
        if key in earlier and earlier[key] != hashes:
            errors.append(f"{key}: result files differ from an earlier run")
    earlier.update({k: v for k, v in seen.items() if k not in earlier})
    with open(store, "w") as fh:
        json.dump(earlier, fh, indent=1, sort_keys=True)
    return errors


def closed_loop(wl, seconds: float, tracer, log, op_result):
    """Run operations back to back for `seconds`, and at least the
    workload's first `min_ops`; returns [(OpResult, wall seconds)]."""
    ops = []
    t_start = time.perf_counter()
    k = 0
    while time.perf_counter() - t_start < seconds or k < wl.min_ops:
        if tracer:
            tracer.op = k
        t0 = time.perf_counter()
        try:
            res = wl.op(k, log)
        except Exception:
            res = op_result(units=0, ok=False,
                            errors=[traceback.format_exc()])
        ops.append((res, time.perf_counter() - t0))
        k += 1
    if tracer:
        tracer.op = None
    return ops


def check_outputs(wl, ops) -> None:
    """Run the workload's output checks.  A rerun whose result files hash
    the same as a checked one needs no second check; check_hashes reports
    any that differ."""
    checked: dict[tuple, list[str]] = {}
    for res, _wall in ops:
        sig = (res.key, json.dumps(res.hashes, sort_keys=True))
        if res.hashes and sig in checked:
            res.errors += checked[sig]
            continue
        try:
            wl.check(res)
        except Exception:
            res.errors.append(traceback.format_exc())
        checked[sig] = list(res.errors)


def end_to_end(ops, setup_s: float, peak_rss_mb: float,
               failed: int) -> tuple[dict, dict]:
    """(bounded metrics, other end-to-end metrics) of one run."""
    walls = [wall for _res, wall in ops]
    units = sum(res.units for res, _wall in ops)
    e2e = {"setup_s": setup_s,
           "ops_per_s": units / sum(walls),
           "latency_p50_s": statistics.median(walls),
           "peak_rss_mb": peak_rss_mb}
    other: dict = {"failed_frac": {"value": failed / len(ops),
                                   "unit": "ratio"}}
    tail = tail_latency(walls)
    if tail:
        other["latency_tail_s"] = tail
    judged = [res for res, _wall in ops if res.feasible is not None]
    if judged:
        other["feasible_frac"] = {
            "value": sum(r.feasible for r in judged)
            / sum(r.units for r in judged), "unit": "ratio"}
    etas = [eta for res, _wall in ops for eta in res.etas]
    if etas:
        other["eta_mean_bit_per_j"] = {"value": statistics.fmean(etas),
                                       "unit": "bit/J"}
    return e2e, other


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "oranslice", "__init__.py")):
        print(f"error: no oranslice package under {SRC}", file=sys.stderr)
        return 2
    # BLAS threads would stack on top of the sweep's worker threads.
    nproc = len(os.sched_getaffinity(0))
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["ORAN_SLICE_THREADS"] = str(nproc)
    sys.path.insert(0, SRC)

    t_import = import_seconds()
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(args, nproc)
    print(json.dumps({"env": env}, sort_keys=True))
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = os.path.join(OUT, "runs", tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)

    record: dict = {"env": env, "ops": [], "errors": [],
                    "setup_times": setup_times, "import_s": t_import}
    tracer = spans.Tracer() if args.trace else None
    layer: dict[str, float] = {}
    with open(os.path.join(workdir, "program.log"), "w") as log:
        if tracer:
            tracer.install(workloads)
        ops = closed_loop(wl, args.seconds, tracer, log, workloads.OpResult)
        peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0)
        if tracer:
            layer = spans.layer_metrics(
                [sp for sp in tracer.spans
                 if isinstance(sp["op"], int) and sp["op"] < wl.min_ops])
            try:
                extra, info, errors = wl.extras(tracer, log, ops, nproc)
            except Exception:
                extra, info, errors = {}, {}, [traceback.format_exc()]
            layer.update(extra)
            record["errors"] += errors
            record.update(extras=info, absent=tracer.absent)
            tracer.uninstall()
            tracer.write(os.path.join(workdir, "spans.jsonl"))

    t_check = time.perf_counter()
    check_outputs(wl, ops)
    record["errors"] += check_hashes(args.workload, args.seed, ops)
    record["check_s"] = time.perf_counter() - t_check

    failed = sum(1 for res, _wall in ops if not res.ok or res.errors)
    e2e, other = end_to_end(ops, t_import + statistics.median(setup_times),
                            peak_rss_mb, failed)
    e2e_dir = os.path.join(OUT, "e2e")
    os.makedirs(e2e_dir, exist_ok=True)
    with open(os.path.join(e2e_dir, f"{tag}.json"), "w") as fh:
        json.dump(e2e, fh, indent=1, sort_keys=True)
    if args.trace:
        untraced = os.path.join(e2e_dir,
                                f"{args.workload}-s{args.seed}-t0.json")
        if os.path.exists(untraced):
            with open(untraced) as fh:
                base = json.load(fh)
            other["trace_overhead"] = {
                "value": e2e["latency_p50_s"] / base["latency_p50_s"] - 1.0,
                "unit": "ratio"}
        metrics = {name: {"value": float(layer.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER}
        other.update({name: {"value": e2e[name], "unit": unit}
                      for name, unit in END_TO_END})
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}

    record["ops"] = [{"key": res.key, "wall_s": wall, "units": res.units,
                      "feasible": res.feasible, "hashes": res.hashes,
                      "errors": res.errors} for res, wall in ops]
    record.update(metrics=metrics, other_metrics=other)
    with open(os.path.join(workdir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for res, _wall in ops:
        for err in res.errors:
            print(f"op {res.key}: {err.strip()}", file=sys.stderr)
    for err in record["errors"]:
        print(err.strip(), file=sys.stderr)
    if record.get("extras"):
        print(json.dumps({"extras": record["extras"]}, sort_keys=True))
    if record.get("absent"):
        print(json.dumps({"absent": record["absent"]}))
    print(json.dumps({"other_metrics": other}, sort_keys=True))
    correct = failed == 0 and not record["errors"]
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
