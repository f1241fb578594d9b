"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute. Everything is seeded and sized for a desk machine.
"""

import os
import subprocess
import sys
import time

import numpy as np

import tsflow
from tsflow.harness import (
    advection_identity_defects,
    gradient_norm_bracket,
    korn_ratio,
    manufacture,
    random_elliptic_tensor,
)
from tsflow.navier_stokes import (
    advection,
    advection_bruteforce,
    picard_solve,
    regularity_slope,
)
from tsflow.spectral import (
    divergence,
    make_lattice,
    random_scalar_field,
    random_vector_field,
    sampling_transform,
    scalar_field,
    sobolev_norm,
    vector_field,
)
from tsflow.stokes import (
    assemble_symbol,
    global_estimate_slack,
    solve_isotropic_mode,
    solve_mode,
    solve_stokes,
)
from tsflow.viscosity import ellipticity_constant, make_isotropic

ISO2 = make_isotropic(0.0, 1.0, 2)


def report_line(number, name, ok, detail):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def manufactured_case(seed, n, m):
    lat = make_lattice(n, m)
    tensor = make_isotropic(0.0, 1.0, n) if seed % 2 == 0 else random_elliptic_tensor(seed, n)
    u_star = random_vector_field(seed, lat, decay=3.0)
    p_star = random_scalar_field(seed + 10_000, lat, decay=3.0)
    return tensor, u_star, p_star, manufacture(u_star, p_star, tensor)


def test_criterion_01_stokes_round_trip():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        tensor, u_star, p_star, prob = manufactured_case(seed, 2, 8)
        u, p, _ = solve_stokes(tensor, prob.f, prob.g)
        err = np.sqrt(
            sobolev_norm(u - u_star, 1.0) ** 2 + sobolev_norm(p - p_star, 0.0) ** 2
        ) / np.sqrt(sobolev_norm(u_star, 1.0) ** 2 + sobolev_norm(p_star, 0.0) ** 2)
        worst = max(worst, err)
    for seed in range(10):
        tensor, u_star, p_star, prob = manufactured_case(seed + 100, 3, 4)
        u, p, _ = solve_stokes(tensor, prob.f, prob.g)
        err = np.sqrt(
            sobolev_norm(u - u_star, 1.0) ** 2 + sobolev_norm(p - p_star, 0.0) ** 2
        ) / np.sqrt(sobolev_norm(u_star, 1.0) ** 2 + sobolev_norm(p_star, 0.0) ** 2)
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed <= 30.0
    report_line(1, "stokes-round-trip", ok, f"max rel err {worst:.2e}, {elapsed:.1f} s")


def test_criterion_02_isotropic_closed_form_agreement():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(1000):
        n = 2 if case % 3 else 3
        lam = float(rng.uniform(-10.0, 10.0))
        mu = float(rng.uniform(0.05, 10.0))
        xi = rng.integers(-32, 33, size=n)
        if np.all(xi == 0):
            xi[0] = 1
        fhat = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ghat = complex(rng.standard_normal(), rng.standard_normal())
        tensor = make_isotropic(lam, mu, n)
        u1, p1 = solve_mode(assemble_symbol(tensor, xi), fhat, ghat)
        u2, p2 = solve_isotropic_mode(lam, mu, xi, fhat, ghat)
        scale = max(float(np.max(np.abs(u2))), abs(p2), 1.0)
        worst = max(worst, float(np.max(np.abs(u1 - u2))) / scale, abs(p1 - p2) / scale)
    ok = worst <= 1e-12
    report_line(2, "isotropic-agreement", ok, f"1000 modes, max disagreement {worst:.2e}")


def _estimate_sweep_solves():
    solves = []
    for k in range(20):
        n = 3 if k % 3 == 0 else 2
        m = 3 if n == 3 else 6
        tensor = random_elliptic_tensor(3000 + k, n)
        lat = make_lattice(n, m)
        f = random_vector_field(400 + k, lat, decay=3.0)
        g = random_scalar_field(500 + k, lat, decay=3.0)
        solves.append((tensor, f, g) + solve_stokes(tensor, f, g))
    return solves


def test_criterion_03_per_mode_estimates():
    worst = np.inf
    for tensor, f, g, u, p, report in _estimate_sweep_solves():
        worst = min(worst, report.min_slack_u, report.min_slack_p)
    ok = worst >= -1e-12
    report_line(3, "per-mode-estimates", ok, f"20 tensors, min slack {worst:.2e}")


def test_criterion_04_global_bound():
    worst = np.inf
    for tensor, f, g, u, p, _ in _estimate_sweep_solves():
        for s in (0.0, 1.0, 2.0):
            gb = global_estimate_slack(tensor, u, p, f, g, s)
            worst = min(
                worst,
                gb["slack_u"] / max(gb["rhs_u"], 1e-300),
                gb["slack_p"] / max(gb["rhs_p"], 1e-300),
            )
    ok = worst >= -1e-12
    report_line(4, "global-bound", ok, f"s in {{0,1,2}}, min relative slack {worst:.2e}")


def test_criterion_05_relaxed_ellipticity():
    rng = np.random.default_rng(5)
    worst = 0.0
    for case in range(50):
        lam = float(rng.uniform(-10.0, 10.0))
        mu = float(rng.uniform(0.01, 10.0))
        n = 2 if case % 2 else 3
        c_a = ellipticity_constant(make_isotropic(lam, mu, n))
        worst = max(worst, abs(c_a - 1.0 / (2.0 * mu)) / (1.0 / (2.0 * mu)))
    ok = worst <= 1e-10
    report_line(5, "relaxed-ellipticity", ok, f"C_A vs 1/(2 mu), max rel dev {worst:.2e}")


def test_criterion_06_advection_oracle():
    worst = 0.0
    cases = [(2, 8, s) for s in range(12)] + [(3, 3, s) for s in range(8)]
    for n, m, seed in cases:
        w = random_vector_field(600 + seed, make_lattice(n, m), decay=3.0, divergence_free=True)
        fast = advection(w)
        slow = advection_bruteforce(w)
        scale = max(float(np.max(np.abs(slow.coeffs))), 1e-300)
        worst = max(worst, float(np.max(np.abs(fast.coeffs - slow.coeffs))) / scale)
    # cellular vortex: the convective term has the closed form
    # pi * (sin(4 pi x1), sin(4 pi x2))
    lat = make_lattice(2, 2)
    N = 2 * lat.m + 1
    x = np.arange(N) / N
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    w = sampling_transform(
        np.stack(
            [
                np.sin(2 * np.pi * x1) * np.cos(2 * np.pi * x2),
                -np.cos(2 * np.pi * x1) * np.sin(2 * np.pi * x2),
            ]
        ),
        lat,
        is_real=True,
        zero_mean=True,
    )
    w = vector_field(lat, w.coeffs, is_real=True, zero_mean=True, divergence_free=True)
    expected = sampling_transform(
        np.pi * np.stack([np.sin(4 * np.pi * x1), np.sin(4 * np.pi * x2)]), lat, is_real=True
    )
    tg_err = float(np.max(np.abs(advection(w).coeffs - expected.coeffs)))
    ok = worst <= 1e-11 and tg_err <= 1e-12
    report_line(
        6, "advection-oracle", ok, f"20 fields max dev {worst:.2e}, vortex dev {tg_err:.2e}"
    )


def test_criterion_07_identities():
    lat = make_lattice(2, 4)
    worst_energy = 0.0
    worst_general = 0.0
    for seed in range(100):
        v1 = random_vector_field(3 * seed, lat, decay=3.0, divergence_free=True)
        v2 = random_vector_field(3 * seed + 1, lat, decay=3.0)
        v3 = random_vector_field(3 * seed + 2, lat, decay=3.0)
        general, energy = advection_identity_defects(v1, v2, v3)
        scale3 = sobolev_norm(v1, 1.0) * sobolev_norm(v2, 1.0) * sobolev_norm(v3, 1.0)
        scale2 = sobolev_norm(v1, 1.0) * sobolev_norm(v2, 1.0) ** 2
        worst_general = max(worst_general, abs(general) / scale3)
        worst_energy = max(worst_energy, abs(energy) / scale2)
    worst_korn = 0.0
    for seed in range(100):
        v = random_vector_field(700 + seed, lat, decay=3.0)
        worst_korn = max(worst_korn, korn_ratio(v))
    N = 2 * lat.m + 1
    x = np.arange(N) / N
    _, x2 = np.meshgrid(x, x, indexing="ij")
    shear = sampling_transform(
        np.stack([np.sin(2 * np.pi * x2), np.zeros((N, N))]), lat, is_real=True, zero_mean=True
    )
    shear_ratio = korn_ratio(shear)
    bracket_ok = True
    for seed in range(100):
        g = random_scalar_field(800 + seed, lat, decay=3.0)
        ratio = gradient_norm_bracket(g)
        bracket_ok &= 2 * np.pi**2 - 1e-10 <= ratio <= 4 * np.pi**2 + 1e-10
    tight = np.zeros(lat.shape, np.complex128)
    tight[lat.m + 1, lat.m] = 1.0
    tight_ratio = gradient_norm_bracket(scalar_field(lat, tight))
    tight_vec = np.zeros((2,) + lat.shape, np.complex128)
    tight_vec[1][lat.m + 1, lat.m] = 1.0
    tight_vec_ratio = gradient_norm_bracket(vector_field(lat, tight_vec))
    ok = (
        worst_energy <= 1e-11
        and worst_general <= 1e-11
        and worst_korn <= 2.0 + 1e-12
        and abs(shear_ratio - 2.0) <= 1e-9
        and bracket_ok
        and abs(tight_ratio - 2 * np.pi**2) <= 1e-12 * 2 * np.pi**2
        and abs(tight_vec_ratio - 2 * np.pi**2) <= 1e-12 * 2 * np.pi**2
    )
    report_line(
        7,
        "identities",
        ok,
        f"energy {worst_energy:.1e}, antisym {worst_general:.1e}, "
        f"korn max {worst_korn:.12f}, shear {shear_ratio:.12f}, "
        f"tight bracket dev {abs(tight_ratio - 2 * np.pi**2):.1e}",
    )


def test_criterion_08_navier_stokes_recovery():
    tensors = [ISO2, random_elliptic_tensor(101, 2), random_elliptic_tensor(202, 2)]
    worst_err = 0.0
    worst_div = 0.0
    worst_bound = -np.inf
    max_iters = 0
    for k, tensor in enumerate(tensors):
        for amplitude in (0.05, 0.1):
            lat = make_lattice(2, 4)
            u_star = random_vector_field(900 + k, lat, decay=3.0, divergence_free=True)
            u_star = (amplitude / sobolev_norm(u_star, 1.0)) * u_star
            p_star = amplitude * random_scalar_field(950 + k, lat, decay=3.0)
            prob = manufacture(u_star, p_star, tensor, include_nonlinear=True)
            u, p, report = picard_solve(tensor, prob.f)
            assert report.converged and report.final_residual <= 1e-10
            max_iters = max(max_iters, report.iterations)
            worst_err = max(worst_err, sobolev_norm(u - prob.u_star, 1.0))
            worst_div = max(worst_div, sobolev_norm(divergence(u), 0.0))
            worst_bound = max(worst_bound, report.velocity_norm - report.m0)
    ok = (
        max_iters <= 100
        and worst_err <= 1e-8
        and worst_div <= 1e-12
        and worst_bound <= 1e-9
    )
    report_line(
        8,
        "navier-stokes-recovery",
        ok,
        f"max H1 err {worst_err:.2e}, max div {worst_div:.2e}, "
        f"bound excess {worst_bound:.2e}, iters <= {max_iters}",
    )


def test_criterion_09_regularity_surrogate():
    start = time.perf_counter()
    details = []
    ok = True
    for slope_f in (4.0, 6.0):
        lat = make_lattice(2, 32)
        f = random_vector_field(int(slope_f), lat, decay=slope_f, divergence_free=True)
        f = (1e-2 / sobolev_norm(f, -1.0)) * f
        u, _, report = picard_solve(ISO2, f)
        fitted_f = regularity_slope(f).slope
        fitted_u = regularity_slope(u).slope
        ok &= report.converged and fitted_u >= slope_f + 2.0 - 0.3
        details.append(f"a_f={slope_f:g}: fit_f {fitted_f:.2f}, fit_u {fitted_u:.2f}")
    elapsed = time.perf_counter() - start
    ok &= elapsed <= 120.0
    report_line(9, "regularity-surrogate", ok, "; ".join(details) + f", {elapsed:.1f} s")


def _run_cli(args, cwd):
    # The child runs in cwd, where a relative PYTHONPATH entry would not
    # resolve; put the root of the tsflow package imported here first so the
    # child runs the same code as this process.
    env = os.environ.copy()
    package_root = os.path.dirname(os.path.dirname(tsflow.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tsflow", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, (
        f"tsflow {args[0]} exited with {proc.returncode}:\n{proc.stderr}"
    )
    return proc


def _determinism_pipeline(workdir):
    os.makedirs(workdir, exist_ok=True)
    from tsflow.io import write_tensor

    write_tensor(os.path.join(workdir, "tensor.txt"), ISO2)
    _run_cli(
        [
            "manufacture", "--tensor", "tensor.txt", "--m", "4", "--seed", "11",
            "--nonlinear", "--out-u", "u_star.spf", "--out-p", "p_star.spf",
            "--out-f", "f.spf", "--out-g", "g.spf",
        ],
        workdir,
    )
    for extra, out in (([], "sol"), (["--g", "g.spf"], "sol_g")):
        _run_cli(
            [
                "stokes-solve", "--tensor", "tensor.txt", "--f", "f.spf", *extra,
                "--out", f"{out}.spf", "--report", f"{out}_report.txt",
            ],
            workdir,
        )
    _run_cli(
        [
            "ns-solve", "--tensor", "tensor.txt", "--f", "f.spf",
            "--out-u", "u.spf", "--out-p", "p.spf", "--report", "ns_report.txt",
        ],
        workdir,
    )
    _run_cli(
        [
            "verify", "--suite", "all", "--m", "4", "--draws", "10",
            "--report", "verify_report.txt",
        ],
        workdir,
    )
    names = ["u_star.spf", "p_star.spf", "f.spf", "g.spf", "sol.spf", "sol_report.txt",
             "sol_g.spf", "sol_g_report.txt", "u.spf", "p.spf", "ns_report.txt",
             "verify_report.txt"]
    out = {}
    for name in names:
        with open(os.path.join(workdir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_criterion_10_determinism(tmp_path):
    runs = [_determinism_pipeline(str(tmp_path / f"run{k}")) for k in range(4)]
    identical = all(run == runs[0] for run in runs)
    report_line(
        10,
        "determinism",
        identical,
        f"{len(runs[0])} artifacts byte-identical over {len(runs)} runs",
    )
