"""Run a fixed list of tsflow commands and compare the files of two trees.

    python3 tools/artifacts.py run SRC OUT
    python3 tools/artifacts.py compare BASE HEAD

`run` imports tsflow from the source directory SRC (a tree's `src/`) and
runs every step of STEPS in the new directory OUT, with relative paths
only, so the config echo of every report names the same files whatever OUT
is. Each step's stdout is an artifact (`<step>.stdout`) beside the dumps,
reports and CSV files it writes; its stderr (`<step>.stderr`, which may name
source paths) and its exit status (`steps.txt`) are kept for the report but
not compared. A failing step is recorded and the run goes on.

`compare` prints "k of N artifacts byte-identical to base", N counting the
artifact names of either directory, then the names that differ or exist on
one side only, and the steps that exited nonzero on either side. It exits 0
whatever it finds.
"""

from __future__ import annotations

import filecmp
import os
import subprocess
import sys

# One tensor file per dimension: seeded anisotropic tensors (C_A = 2).
_TENSORS = (
    "from tsflow.harness import random_elliptic_tensor\n"
    "from tsflow.io import write_tensor\n"
    "write_tensor('A2.txt', random_elliptic_tensor(11, 2))\n"
    "write_tensor('A3.txt', random_elliptic_tensor(12, 3))\n"
)


def _cli(*args):
    return (sys.executable, "-m", "tsflow", *args)


def _out(prefix):
    return ("--out-u", f"{prefix}_u.spf", "--out-p", f"{prefix}_p.spf")


STEPS = (
    ("tensors", (sys.executable, "-c", _TENSORS)),
    ("manufacture-3d", _cli("manufacture", "--tensor", "A3.txt", "--n", "3", "--m", "6",
                            "--seed", "4", "--nonlinear", *_out("m3"),
                            "--out-f", "m3_f.spf", "--out-g", "m3_g.spf")),
    ("manufacture-2d", _cli("manufacture", "--tensor", "A2.txt", "--n", "2", "--m", "12",
                            "--seed", "3", *_out("m2"), "--out-f", "m2_f.spf",
                            "--out-g", "m2_g.spf")),
    ("stokes-solve-g", _cli("stokes-solve", "--tensor", "A2.txt", "--f", "m2_f.spf",
                            "--g", "m2_g.spf", "--out", "stokes_g.spf",
                            "--report", "stokes_g.txt")),
    ("stokes-solve", _cli("stokes-solve", "--tensor", "A2.txt", "--f", "m2_f.spf",
                          "--out", "stokes.spf", "--report", "stokes.txt")),
    ("ns-solve", _cli("ns-solve", "--tensor", "A3.txt", "--f", "m3_f.spf", *_out("ns"),
                      "--report", "ns.txt")),
    ("ns-solve-zero", _cli("ns-solve", "--tensor", "A3.txt", "--f", "m3_f.spf",
                           "--initial", "zero", "--omega", "0.7", *_out("ns_zero"),
                           "--report", "ns_zero.txt")),
    ("ns-solve-no-dealias", _cli("ns-solve", "--tensor", "A3.txt", "--f", "m3_f.spf",
                                 "--no-dealias", *_out("ns_no_dealias"),
                                 "--report", "ns_no_dealias.txt")),
    ("verify", _cli("verify", "--report", "verify.txt")),
    ("verify-3d", _cli("verify", "--n", "3", "--m", "4", "--draws", "5", "--seed", "9",
                       "--report", "verify_3d.txt")),
    ("export-grid", _cli("export-grid", "--in", "stokes_g.spf", "--N", "32",
                         "--out", "grid.csv")),
    ("residual-solution", _cli("residual", "--tensor", "A2.txt", "--f", "m2_f.spf",
                               "--g", "m2_g.spf", "--solution", "stokes_g.spf",
                               "--report", "residual_solution.txt")),
    ("residual-u-p", _cli("residual", "--tensor", "A3.txt", "--f", "m3_f.spf",
                          "--u", "ns_u.spf", "--p", "ns_p.spf", "--nonlinear",
                          "--report", "residual_u_p.txt")),
)

_STATUS = "steps.txt"


def run(src, out):
    os.makedirs(out)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    statuses = []
    for name, argv in STEPS:
        with open(os.path.join(out, f"{name}.stdout"), "wb") as so, \
                open(os.path.join(out, f"{name}.stderr"), "wb") as se:
            code = subprocess.call(argv, cwd=out, env=env, stdout=so, stderr=se)
        statuses.append(f"{name} {code}\n")
    with open(os.path.join(out, _STATUS), "w", encoding="utf-8") as fh:
        fh.writelines(statuses)


def _artifacts(d):
    return {f for f in os.listdir(d) if f != _STATUS and not f.endswith(".stderr")}


def _failed(d):
    with open(os.path.join(d, _STATUS), encoding="utf-8") as fh:
        return [step for step in map(str.split, fh) if step[1] != "0"]


def compare(base, head):
    in_base, in_head = _artifacts(base), _artifacts(head)
    names = sorted(in_base | in_head)
    differ = []
    for f in names:
        if f not in in_head:
            differ.append(("only in base", f))
        elif f not in in_base:
            differ.append(("only in head", f))
        elif not filecmp.cmp(os.path.join(base, f), os.path.join(head, f), shallow=False):
            differ.append(("differs", f))
    print(f"{len(names) - len(differ)} of {len(names)} artifacts byte-identical to base")
    for how, f in differ:
        print(f"- {how}: {f}")
    for side, d in (("base", base), ("head", head)):
        for name, code in _failed(d):
            print(f"- {side}: step {name} exited {code}")


def main(argv):
    if len(argv) != 3 or argv[0] not in ("run", "compare"):
        print(__doc__, file=sys.stderr)
        return 2
    (run if argv[0] == "run" else compare)(*argv[1:])
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
