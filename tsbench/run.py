"""Benchmark of tsflow's command line, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 tsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then runs one worker process
at a time (a closed loop with one client), each op being one in-process call
of `tsflow.cli.main` on the generated files. Every timing is corrected for
host drift with the reference kernel (see refkernel.py and README.md). Every
op's outputs are checked against an independent oracle (workloads.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs a single worker that
alternates traced and untraced ops and prints the per-layer metrics. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".tsbench_work")

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "TSF_THREADS": "2",
}
# before numpy loads, so that this process times the reference kernel the
# way the workers do
os.environ.update(THREAD_ENV)
sys.path.insert(0, BENCH)

import refkernel  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Worker processes per untraced run: (setup-only, warm). A setup-only worker
# does the import and the cold op and exits; a warm worker then spends its
# share of the rest of the run on warm ops. setup_s is the median over all
# of them. The two workloads near 2 s per op get fewer of each, so that
# enough of a run is warm.
WORKERS = {"stokes-3d": (10, 3), "ns-3d": (5, 2), "verify-2d": (5, 2), "export-2d": (10, 3)}

# Wall-clock margin per run beyond --seconds, for cold ops and checks.
GRACE_S = 100.0


def _git_commit():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "tsflow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _cache_sizes():
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            if kind != "Instruction":
                sizes[f"L{level}"] = size
    except OSError:
        pass
    return sizes


def stamp():
    import numpy

    return {
        "commit": _git_commit(),
        "src_tsflow_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
        "caches": _cache_sizes(),
        "r_nominal_s": refkernel.R_NOMINAL,
    }


def _run_worker(cfg, deadline):
    """Start one worker, wait for it, return its result dict or None."""
    cfg_path = cfg["result"] + ".cfg.json"
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    env = dict(os.environ, **THREAD_ENV, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "worker.py"), cfg_path],
            cwd=cfg["workdir"], env=env, capture_output=True, text=True,
            timeout=max(5.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        print(f"worker timed out: {cfg['workload']}", file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.exists(cfg["result"]):
        print(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}",
              file=sys.stderr)
        return None
    with open(cfg["result"], encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload, seed, seconds, trace, size="full", corrupt=None):
    """One benchmark run: the result dict, with its report lines under "lines".

    corrupt ("truncate" or "perturb") damages every op's output before its
    check; the self-test uses it.
    """
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"run-{workload}-{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    deadline = time.monotonic() + seconds + GRACE_S
    try:
        t0 = time.perf_counter()
        work = workloads.make(workload, seed, size, workdir)
        gen_s = time.perf_counter() - t0
        compileall.compile_dir(os.path.join(SRC, "tsflow"), quiet=1)
        end = time.monotonic() + seconds
        n_setup, n_warm = (0, 1) if trace else WORKERS[workload]
        modes = ["setup"] * n_setup + ["traced" if trace else "plain"] * n_warm
        spans_path = os.path.join(WORK, f"spans-{workload}-seed{seed}.tsv")
        ref = refkernel.ReferenceKernel()
        ref.run()  # warm-up
        results = []
        for k, mode in enumerate(modes):
            warm_left = len(modes) - max(k, n_setup)
            cfg = {
                "workload": workload, "seed": seed, "size": size, "workdir": workdir,
                "argv": work.argv, "src": SRC, "bench": BENCH, "corrupt": corrupt,
                "budget_s": max(0.0, end - time.monotonic()) / warm_left, "mode": mode,
                "result": os.path.join(workdir, f"worker{k}.json"), "spans_path": spans_path,
            }
            ref_before_s = ref.run()
            res = _run_worker(cfg, deadline)
            if res is not None:
                res["ref_before_s"] = ref_before_s
            results.append(res)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [f"generated inputs in {gen_s:.3f} s"]
    summary = (_traced_summary if trace else _plain_summary)(results, lines)
    summary["lines"] = lines
    return summary


def _corr(wall, ref):
    return wall * refkernel.R_NOMINAL / ref


def corrected_ops(res):
    """Drift-corrected wall time of each warm op of one worker.

    R_wall of an op is the mean of the reference timings taken right before
    and right after it; the timing after op i is the one before op i+1.
    """
    out, before = [], res["setup_ref_s"]
    for op in res["ops"]:
        out.append(_corr(op["wall_s"], 0.5 * (before + op["ref_s"])))
        before = op["ref_s"]
    return out


def _tally(results):
    attempted = failed = 0
    errors = []
    for res in results:
        if res is None:
            attempted, failed = attempted + 1, failed + 1
            errors.append("worker produced no result")
            continue
        for err in [res["cold_error"]] + [op["error"] for op in res["ops"]]:
            attempted += 1
            if err is not None:
                failed += 1
                errors.append(err)
    return attempted, failed, errors


def tail_percentile(values):
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return int(100 * (n - 10) / n), ordered[n - 11], 10


def _plain_summary(results, lines):
    attempted, failed, errors = _tally(results)
    ok = [r for r in results if r is not None]
    ops = [op for r in ok for op in r["ops"]]
    metrics = {"ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"}}
    if ops:
        corr = [c for r in ok for c in corrected_ops(r)]
        setups = [_corr(r["setup_s"], 0.5 * (r["ref_before_s"] + r["setup_ref_s"]))
                  for r in ok]
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["op_p50_s"] = {"value": statistics.median(corr), "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": statistics.median(r["peak_rss_mb"] for r in ok), "unit": "MB"}
        raw = statistics.median(op["wall_s"] for op in ops)
        ref = statistics.median(op["ref_s"] for op in ops)
        lines.append(
            f"op_p50_s {metrics['op_p50_s']['value']:.4f} s drift-corrected | raw median "
            f"{raw:.4f} s | reference median {ref:.4f} s (R_nominal {refkernel.R_NOMINAL} s) "
            f"| {len(ops)} warm ops in {sum(1 for r in ok if r['ops'])} workers")
        lines.append(
            f"setup_s {metrics['setup_s']['value']:.4f} s drift-corrected | raw median "
            f"{statistics.median(r['setup_s'] for r in ok):.4f} s | {len(ok)} workers: "
            + ", ".join(f"{s:.3f}" for s in setups))
        tail = tail_percentile(corr)
        lines.append("tail (not gated): " + (
            f"p{tail[0]} = {tail[1]:.4f} s with {tail[2]} of {len(corr)} samples beyond it"
            if tail else f"no percentile has ten samples beyond it ({len(corr)} samples)"))
    for err in errors[:5]:
        lines.append(f"FAILED op: {err}")
    return {"correct": failed == 0 and bool(ops), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _traced_summary(results, lines):
    attempted, failed, errors = _tally(results)
    res = results[0]
    metrics = {}
    correct = failed == 0 and res is not None
    if res is not None:
        scale = [c / op["wall_s"] for c, op in zip(corrected_ops(res), res["ops"])]
        traced = [(op, k) for op, k in zip(res["ops"], scale) if op["traced"]]
        plain = [(op, k) for op, k in zip(res["ops"], scale) if not op["traced"]]
        for layer in tracer.LAYERS:
            calls = [op["layers"][layer]["calls"] for op, _ in traced]
            self_s = [op["layers"][layer]["self_s"] * k for op, k in traced]
            share = [op["layers"][layer]["self_s"] / op["wall_s"] for op, _ in traced]
            metrics[f"{layer}.calls"] = {"value": statistics.median(calls), "unit": "count"}
            metrics[f"{layer}.self_s"] = {"value": statistics.median(self_s), "unit": "s"}
            metrics[f"{layer}.share"] = {"value": statistics.median(share), "unit": "ratio"}
            if len(set(calls)) > 1:
                lines.append(f"WARNING {layer}.calls differs between ops: {calls}")
        for name in tracer.COUNT_NAMES:
            values = [op["counts"][name] * (k if name.endswith("_s") else 1) for op, k in traced]
            unit = "s" if name.endswith("_s") else ("points" if "grid_N" in name else "count")
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            if not name.endswith("_s") and len(set(values)) > 1:
                lines.append(f"WARNING {name} differs between ops: {values}")
        reported = {op.get("report_iterations") for op, _ in traced} - {None}
        if reported:
            # cross-check of the tracer against the program's own report
            counted = metrics["navier_stokes.iterations"]["value"]
            agree = reported == {str(int(counted))}
            lines.append(f"navier_stokes.iterations {counted:g}, report iterations "
                         f"{', '.join(sorted(reported))}: {'agree' if agree else 'DISAGREE'}")
            correct = correct and agree
        t = statistics.median(op["wall_s"] * k for op, k in traced)
        u = statistics.median(op["wall_s"] * k for op, k in plain)
        metrics["trace_overhead"] = {"value": t / u, "unit": "ratio"}
        lines.append(f"{len(traced)} traced and {len(plain)} untraced ops, {res['spans']} spans; "
                     f"traced p50 {t:.4f} s, untraced p50 {u:.4f} s (drift-corrected)")
        lines.append("wrappers removed after every op: " + str(res["wrappers_removed"]))
        correct = correct and res["wrappers_removed"]
    for err in errors[:5]:
        lines.append(f"FAILED op: {err}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tsflow", "__init__.py")):
        print(f"error: no tsflow source tree at {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    info = stamp()
    summary = measure(args.workload, args.seed, args.seconds, args.trace)
    print("stamp: " + json.dumps(info, sort_keys=True))
    for line in summary.pop("lines"):
        print(line)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
