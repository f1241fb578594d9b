"""Self-test of the benchmark at tiny sizes (a few minutes).

Usage: python3 tsbench/selftest.py

Checks that
  - every metric named in BENCHMARK.json prints with its unit, traced
    (per_layer) and untraced (end_to_end), and the tiny runs are correct;
  - a deliberately corrupted output counts as a failed op (ok_ratio < 1),
    both when it is truncated and when one of its numbers is perturbed with
    its format kept valid (so the numerical oracle itself must fire);
  - the tracer rebinds every import-by-name copy of a wrapped function and
    leaves every binding as it found it after uninstalling;
  - without a tsflow source tree, run.py exits nonzero and prints no result.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

FAILURES = []


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def check_metrics(spec):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for name in run.workloads.NAMES:
            out = run.measure(name, 5, 0.3, trace, size="tiny")
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            expect(got == want, f"{name} trace={trace}: metrics and units match BENCHMARK.json")
            expect(out["correct"] and out["failed"] == 0 and out["attempted"] >= 2,
                   f"{name} trace={trace}: correct, {out['attempted']} ops, none failed")
            if trace == 0:
                expect(out["metrics"]["ok_ratio"]["value"] == 1.0, f"{name}: ok_ratio is 1")


# The check that a perturbed output must trip, by workload.
PERTURB_FAILS = {
    "stokes-3d": "relative H1 error",
    "ns-3d": "relative H1 error",
    "verify-2d": "failures = 1",
    "export-2d": "relative error",
}


def check_corruption():
    for kind in ("truncate", "perturb"):
        for name in run.workloads.NAMES:
            out = run.measure(name, 5, 0.3, 0, size="tiny", corrupt=kind)
            ratio = out["metrics"]["ok_ratio"]["value"]
            expect(not out["correct"] and ratio < 1.0,
                   f"{name} ({kind}): corrupted outputs fail their check "
                   f"(ok_ratio {ratio:.2f})")
            if kind == "perturb":
                fails = [ln for ln in out["lines"] if ln.startswith("FAILED op")]
                expect(bool(fails) and all(PERTURB_FAILS[name] in ln for ln in fails),
                       f"{name}: the failure is '{PERTURB_FAILS[name]}': {fails[:1]}")


def check_tracer():
    sys.path.insert(0, run.SRC)
    import tsflow.cli  # noqa: F401  (loads every layer module)

    mods = run.tracer._tsflow_modules()
    before = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    tr = run.tracer.Tracer()
    count = tr.install()
    ns = sys.modules["tsflow.navier_stokes"]
    spectral = sys.modules["tsflow.spectral"]
    expect(count > 0 and ns.grid_transform is not before[("tsflow.navier_stokes",
                                                          "grid_transform")],
           f"install rebinds import-by-name copies ({count} bindings)")
    expect(ns.grid_transform is spectral.grid_transform,
           "navier_stokes.grid_transform and spectral.grid_transform share one wrapper")
    expect(not hasattr(spectral.index_grids, run.tracer._MARK), "lru_cache helpers are skipped")
    removed = tr.uninstall()
    after = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    same = all(after[key] is value for key, value in before.items())
    expect(removed and same and after.keys() == before.keys(),
           "uninstall restores every original binding")


def check_no_source():
    bare = os.path.join(run.WORK, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, os.path.join(bare, os.path.basename(run.BENCH)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.basename(run.BENCH), "run.py"),
             "--workload", "stokes-3d", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and "correct" not in proc.stdout,
           f"without src/tsflow run.py exits {proc.returncode} and prints no result")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_metrics(spec)
    check_corruption()
    check_tracer()
    check_no_source()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-test checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
