"""Steadiness sweep: repeat the benchmark over seeds and compare sets of runs.

Usage (from the root of a checkout):

    python3 tsbench/sweep.py --seeds 1-10 [--sets 2] [--traced-seed N] [--out FILE.json]

Runs `BENCHMARK.json`'s command once per workload and seed, for its
run_seconds, `--sets` times over, the way any caller of the benchmark runs
it. For each end-to-end metric of each workload it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median next
to the metric's bound, and, with two or more sets, how far each later set's
median moved from the first set's. With --traced-seed it also makes two traced runs of that seed
per workload and reports whether every count repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, trace=trace, wall_s=wall, notes=lines[:-1])
    return result


def spread_table(spec, runs, sets):
    """Per workload and metric: median, quartiles, spread and set-to-set shift."""
    rows = []
    for workload in sorted({r["workload"] for r in runs}):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = []
            for k in range(sets):
                vals = [r["metrics"][name]["value"] for r in runs
                        if r["workload"] == workload and r["set"] == k]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                per_set.append({"median": statistics.median(vals), "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / statistics.median(vals), "n": len(vals)})
            sign = 1.0 if metric["better"] == "lower" else -1.0
            first = per_set[0]["median"]
            shifts = [sign * (s["median"] - first) / first for s in per_set[1:]]
            rows.append({"workload": workload, "metric": name, "bound": bound,
                         "sets": per_set, "worse_by": shifts})
    return rows


def print_table(rows):
    if not rows:
        return
    print(f"{'workload':<10} {'metric':<12} {'bound':>5}  set {'median':>10} {'Q1':>10} "
          f"{'Q3':>10} {'spread':>7} {'<bound/3':>8}")
    for row in rows:
        for k, s in enumerate(row["sets"]):
            ok = "yes" if s["spread"] < row["bound"] / 3 else "NO"
            print(f"{row['workload']:<10} {row['metric']:<12} {row['bound']:>5}  {k:>3} "
                  f"{s['median']:>10.4f} {s['q1']:>10.4f} {s['q3']:>10.4f} "
                  f"{s['spread']:>7.3f} {ok:>8}")
        for k, w in enumerate(row["worse_by"], start=1):
            ok = "within bound" if w <= row["bound"] else "EXCEEDS BOUND"
            print(f"{'':<29} set {k} vs set 0: worse by {w:+.3f} ({ok})")


def traced_repeat(spec, workloads, seed, seconds):
    """Two traced runs of one seed per workload: do all counts repeat?"""
    timed = {m["name"] for m in spec["per_layer"] if m["unit"] in ("s", "ratio")}
    report = {}
    for workload in workloads:
        a, b = (run_once(spec, workload, seed, seconds, 1) for _ in range(2))
        counts = {k: v["value"] for k, v in a["metrics"].items() if k not in timed}
        diff = {k: (v, b["metrics"][k]["value"]) for k, v in counts.items()
                if b["metrics"][k]["value"] != v}
        correct = a["correct"] and b["correct"]
        report[workload] = {"counts": counts, "differ": diff, "correct": correct,
                            "runs": [a["metrics"], b["metrics"]]}
        print(f"{workload}: correct={correct}, {len(counts)} counts, "
              + ("all repeat exactly" if not diff else f"DIFFER: {diff}"))
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--sets", type=int, default=1, help="0: traced runs only")
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs = []
    for k in range(args.sets):  # seed-major, so each workload meets the host's drift
        for seed in args.seeds:
            for workload in names:
                r = run_once(spec, workload, seed, seconds, 0)
                r["set"] = k
                runs.append(r)
                vals = " ".join(f"{m}={v['value']:.4g}" for m, v in r["metrics"].items())
                print(f"set {k} {workload} seed {seed}: correct={r['correct']} "
                      f"{r['attempted'] - r['failed']}/{r['attempted']} ok, {vals} "
                      f"({r['wall_s']:.1f} s)", flush=True)
    rows = spread_table(spec, runs, args.sets) if runs and len(args.seeds) >= 2 else []
    print_table(rows)
    traced = None
    if args.traced_seed is not None:
        traced = traced_repeat(spec, names, args.traced_seed, seconds)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": seconds, "seeds": args.seeds, "sets": args.sets,
                       "table": rows, "runs": runs, "traced_repeat": traced}, fh, indent=1)
    bad = [r for r in runs if not r["correct"]]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
