"""
The linear Stokes solve, mode by mode
=====================================

Manufactured-solution verification of the compressible Stokes solver, the
per-mode inequalities with their explicit constants, and the summed bound.
"""

import numpy as np

from tsflow import (
    make_lattice,
    make_isotropic,
    random_scalar_field,
    random_vector_field,
    sobolev_norm,
    solve_isotropic_mode,
    solve_mode,
    solve_stokes,
    assemble_symbol,
    global_estimate_slack,
)
from tsflow.harness import manufacture, random_elliptic_tensor

############################################################
# One mode first: the (n+1) x (n+1) symbol couples velocity and pressure.
# For isotropic tensors the solution has a closed form; the general
# (bordered closed-form) inverse of the symbol must reproduce it.

iso = make_isotropic(0.0, 1.0, 2)
sym = assemble_symbol(iso, (1, 0))
fhat = np.array([0.3 + 0.2j, -0.5j])
u1, p1 = solve_mode(sym, fhat, 0.25)
u2, p2 = solve_isotropic_mode(0.0, 1.0, (1, 0), fhat, 0.25)
print(f"general vs closed form at one mode: "
      f"du = {np.max(np.abs(u1 - u2)):.2e}, dp = {abs(p1 - p2):.2e}")

############################################################
# Whole-cube manufactured problem: choose (u*, p*), build the matching
# data, solve, and compare.

lattice = make_lattice(2, 8)
tensor = random_elliptic_tensor(seed=7, n=2)
u_star = random_vector_field(1, lattice, decay=3.0)
p_star = random_scalar_field(2, lattice, decay=3.0)
problem = manufacture(u_star, p_star, tensor)

u, p, report = solve_stokes(tensor, problem.f, problem.g)
print(f"recovery error: velocity {sobolev_norm(u - u_star, 1.0):.2e} (H^1), "
      f"pressure {sobolev_norm(p - p_star, 0.0):.2e} (H^0)")
print(f"per-mode solve residual: {report.residual:.2e}")

############################################################
# Every solve verifies the per-mode inequalities
#   |uhat| <= C_uf |fhat| / (2 pi |xi|)^2 + C_ug |ghat| / (2 pi |xi|)
#   |phat| <= C_pf |fhat| / (2 pi |xi|)   + C_pg |ghat|
# with C_uf = 2 C_A, C_ug = C_pf = 1 + 2 C_A ||A||, C_pg = ||A|| C_ug.

print(f"constants: {{{', '.join(f'{k}={v:.4f}' for k, v in report.constants.items())}}}")
print(f"min slack over all modes: velocity {report.min_slack_u:.3e}, "
      f"pressure {report.min_slack_p:.3e}")

############################################################
# The summed version holds at every smoothness index.

for s in (0.0, 1.0, 2.0):
    gb = global_estimate_slack(tensor, u, p, problem.f, problem.g, s)
    print(f"s={s:.0f}: |u|_s = {gb['lhs_u']:.4f} <= {gb['rhs_u']:.4f}, "
          f"|p|_(s-1) = {gb['lhs_p']:.4f} <= {gb['rhs_p']:.4f}")
