"""Stationary Navier-Stokes on the torus via damped fixed-point iteration.

The nonlinear term (w . grad) w is evaluated pseudospectrally in divergence
form, div(w (x) w) - (div w) w (Canuto, Hussaini, Quarteroni & Zang,
Spectral Methods, sec. 3.4; Zang 1991): the n velocity components go to the
grid by inverse real FFTs, and the n(n+1)/2 distinct products w_j w_k come
back by forward real FFTs, one at a time, to be differentiated mode by mode
(9 real transforms at n=3). Both directions are pruned: only the 1-D lines
that carry a cube mode are transformed (at n=3, m=16 that is 1,411 complex
lines of the 2,600 of a full half-spectrum transform), and the derivatives
are accumulated on the xi_n >= 0 half of the cube, the other half following
by conjugation; the result is the same bit for bit as full transforms and a
full-cube accumulation. The (div w) w correction is formed only for fields
not flagged divergence-free. The grid has the 5-smooth size
`dealias_grid(m)` >= 3m+1, so the retained modes agree exactly with the
lattice convolution (quadratic products of cube-truncated fields live on the
doubled cube; 3m+1 points leave the inner cube alias-free). A direct
convolution oracle is kept alongside.

The solver factors the Stokes symbols of the tensor once, on the Hermitian
half of the forcing's cube (`stokes._half_block`), as the solution
operator S, and iterates

    u_next = (1 - omega) * u + omega * S(f - (u . grad) u)

with adaptive halving of omega whenever the defect grows, and stops when the
defect of the momentum equation, measured in the H^{-1} norm, drops below the
requested tolerance. Each pass keeps the iterate on the Hermitian half of the
cube and joins one velocity component's cube at a time to sample it, as
`picard_solve` describes. Converged velocities are checked against the
a-priori bound M0 = C_A * |f|_{H^{-1}} / pi^2 that any true solution
satisfies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .spectral import (
    TWO_PI,
    LatticeSpec,
    SpectralScalarField,
    SpectralVectorField,
    _abs2_sum,
    _hermitian_from_upper,
    _irfftn_half,
    _join,
    _nonzero_mean,
    _rfftn_half,
    _split,
    _squares,
    _weighted_norms,
    _without_mean,
    dealias_grid,
    divergence,
    grid_transform,
    index_grids,
    inner,
    mode_abs2,
    restrict_field,
    rho2,
    seminorm,
    sobolev_norm,
)
from .stokes import (
    _apply_inverses,
    _check_solenoidal,
    _checked_constants,
    _divergence_moduli,
    _half_block,
)
from .viscosity import _apply_blocks, ellipticity_constant, stokes_operator

__all__ = [
    "Diverged",
    "MaxIterationsExceeded",
    "NSSolveOptions",
    "NSSolveReport",
    "advection",
    "advection_bruteforce",
    "advection_bound_ratio",
    "apriori_velocity_bound",
    "picard_solve",
    "residual",
    "regularity_slope",
    "RegularityFit",
]

OMEGA_FLOOR = 1.0 / 64.0


class IterationFailure(RuntimeError):
    """Fixed-point iteration ended without meeting the tolerance."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class Diverged(IterationFailure):
    pass


class MaxIterationsExceeded(IterationFailure):
    pass


@dataclass
class NSSolveOptions:
    relaxation: float = 1.0
    max_iterations: int = 100
    tol: float = 1e-10
    dealias: bool = True
    initial_guess: str = "stokes"  # "stokes" or "zero"

    def __post_init__(self):
        if not 0.0 < self.relaxation <= 1.0:
            raise ValueError(f"relaxation must be in (0, 1], got {self.relaxation}")
        if not (np.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tolerance must be positive and finite, got {self.tol}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.initial_guess not in ("stokes", "zero"):
            raise ValueError(f"unknown initial guess policy {self.initial_guess!r}")


@dataclass
class NSSolveReport:
    iterations: int = 0
    residual_history: list = field(default_factory=list)
    final_residual: float = np.inf
    converged: bool = False
    diverged: bool = False
    m0: float = np.inf
    velocity_norm: float = 0.0
    bound_satisfied: bool = True
    energy_check: float = 0.0
    omega_final: float = 1.0
    mean_removed_f: bool = False

    def flat_items(self):
        return [
            ("iterations", self.iterations),
            ("final_residual", self.final_residual),
            ("converged", int(self.converged)),
            ("diverged", int(self.diverged)),
            ("m0", self.m0),
            ("velocity_norm", self.velocity_norm),
            ("bound_satisfied", int(self.bound_satisfied)),
            ("energy_check", self.energy_check),
            ("omega_final", self.omega_final),
            ("mean_removed_f", int(self.mean_removed_f)),
        ]


def advection(w, dealias=True):
    """Convective term (w . grad) w, in divergence form on a product grid.

    Computes sum_j d_j(w_j w_k) - (div w) w_k: the n(n+1)/2 distinct
    products w_j w_k are formed on the grid and brought back by pruned real
    FFTs one at a time, as the xi_n >= 0 half of the cube only; the lines
    of the transforms that stay outside the cube are never computed.
    `_rfftn_half` returns each product's half with its xi_n = 0 plane
    already averaged with its mirror, and the derivatives are accumulated on
    that half with multipliers restricted to it (`_advection_upper`); the
    accumulated plane is then exactly Hermitian, and `_hermitian_from_upper`
    fills xi_n < 0.
    The result equals an accumulation over the whole cube bit for bit. The
    correction (div w) w is formed only when w is not flagged
    divergence-free, where it vanishes analytically, so the result is exact
    for every w. Requires a real field. With dealias the grid is the
    5-smooth `dealias_grid(m)` >= 3m+1 and the retained modes are exact;
    without it the grid has 2m+1 points and the products alias back into
    the cube. One field of `_advection`, the stacked form that the
    verification suites run on blocks of fields.
    """
    if not w.is_real:
        raise ValueError("advection of complex fields is not supported")
    lat = w.lattice
    N = dealias_grid(lat.m) if dealias else 2 * lat.m + 1
    w_grid = grid_transform(w, N)[None]  # (1, n, N, ..., N) real samples
    div_grid = None if w.divergence_free else grid_transform(divergence(w), N)[None]
    out = _advection(lat, w_grid, div_grid)[0]
    return SpectralVectorField(lat, out, True)


def _advection(lattice, w_grid, div_grid=None):
    """(w . grad) w from the (k, n, N^n) grid samples of k real fields w, as `advection` forms it.

    The (k, n, cube) stack of `_advection_upper`'s halves, filled by
    conjugation, so slice i is advection of field i bit for bit.
    """
    return _filled(lattice, _advection_upper(lattice, w_grid, div_grid))


def _advection_upper(lattice, w_grid, div_grid=None):
    """The xi_n >= 0 half of (w . grad) w for the (k, n, N^n) grid samples of k real fields w.

    div_grid holds the (k, N^n) samples of div w, or is None for fields
    flagged divergence-free. Each product pair takes one forward transform
    of all k grids, every slice on its own. The sums start from +0, so no
    entry of the (k, n) + (2m+1,)*(n-1) + (m+1,) result is -0. Requires
    N >= 2m+1.
    """
    n, m = lattice.n, lattice.m
    d = _upper_derivatives(lattice)
    upper = np.zeros(w_grid.shape[:2] + lattice.shape[:-1] + (m + 1,), np.complex128)
    grid = np.empty(w_grid.shape[:1] + w_grid.shape[2:])  # one product's samples at a time
    term = np.empty(upper.shape[:1] + upper.shape[2:], np.complex128)  # one multiplier product

    def product(a, b):
        return _rfftn_half(np.multiply(a, b, out=grid), lattice)

    for j in range(n):
        for k in range(j, n):
            prod = product(w_grid[:, j], w_grid[:, k])
            upper[:, k] += np.multiply(d[j], prod, out=term)
            if k != j:
                upper[:, j] += np.multiply(d[k], prod, out=term)
    if div_grid is not None:
        for k in range(n):
            upper[:, k] -= product(div_grid, w_grid[:, k])
    return upper


@functools.lru_cache(maxsize=128)
def _upper_derivatives(lattice):
    """The read-only multipliers 2*pi*i*xi_j on xi_n >= 0, one per j, built once per lattice.

    Multiplier j is 2*pi*i times the index axis j of `index_grids`, the
    last one cut to xi_n >= 0, so it broadcasts against the upper half and
    no cube of multipliers is stored.
    """
    *grids, last = index_grids(lattice)
    d = tuple(TWO_PI * 1j * g for g in (*grids, last[..., lattice.m :]))
    for a in d:
        a.setflags(write=False)
    return d


def _filled(lattice, upper):
    """The cube of an `_advection_upper` stack, its xi_n < 0 half filled by conjugation."""
    m = lattice.m
    out = np.empty(upper.shape[: upper.ndim - lattice.n] + lattice.shape, np.complex128)
    out[..., m:] = upper
    _hermitian_from_upper(out, lattice)
    # + 0.0 turns the conjugates' -0 imaginary parts into the +0 that a sum
    # over the full cube leaves there
    out[..., :m] += 0.0
    return out


def advection_bruteforce(w, out_m=None):
    """Direct lattice convolution of (w . grad) w; oracle for `advection`.

    Exact on the output cube up to 2m. By default the result is truncated to
    the input cube; pass out_m (<= 2m) to keep a larger band. Each of the n^2
    products what_j * (2*pi*i*eta_j*what_k) is one `np.convolve` of the two
    blocks placed at the corner of the doubled (4m+1)^n cube and flattened:
    index sums stay within 4m along every axis, so flat offsets add without
    carrying and the full convolution is the doubled cube in C order. For
    out_m <= m only its centred "same" part is computed: the flat span from
    the corner (m, ..., m) to the corner (3m, ..., 3m), at offset
    m * sum_k (4m+1)^k = (size - 1) / 4, which holds the output cube; its
    entries are the same dot products as in the full convolution.
    """
    if not w.is_real:
        raise ValueError("advection of complex fields is not supported")
    lat = w.lattice
    n, m = lat.n, lat.m
    out_m = lat.m if out_m is None else int(out_m)
    if out_m > 2 * m:
        raise ValueError(f"output band {out_m} exceeds the exact range 2m={2 * m}")
    big = LatticeSpec(n, 2 * m)
    corner = (slice(0, 2 * m + 1),) * n
    head = (big.size + 1) // 2  # flat end of the corner block

    def flat(block):
        out = np.zeros(big.shape, np.complex128)
        out[corner] = block
        return out.ravel()[:head]

    grids = index_grids(lat)
    what = [flat(c) for c in w.coeffs]
    mode, lo = ("same", (big.size - 1) // 4) if out_m <= m else ("full", 0)
    acc = np.zeros((n, big.size), np.complex128)
    for k in range(n):
        for j in range(n):
            conv = np.convolve(what[j], flat(2j * np.pi * grids[j] * w.coeffs[k]), mode)
            acc[k, lo : lo + conv.size] += conv
    result = SpectralVectorField(big, acc.reshape((n,) + big.shape), True)
    out = restrict_field(result, out_m)
    return _without_mean(out) if w.divergence_free else out


def advection_bound_ratio(w, s):
    """Empirical quadratic-bound ratio |Bw|_t / |w|_s^2.

    The target index t is 2s-1-n/2 below the critical index, s-1 above it,
    and s-3/2 at (or below) the boundary of those ranges. Returns (ratio,
    t), with ratio 0 for the zero field: one row of `_bound_ratios`.
    """
    ratios, t = _bound_ratios(w.lattice, w.coeffs[None], advection(w).coeffs[None], s)
    return ratios[0], t


def _bound_ratios(lattice, w, bw, s):
    """advection_bound_ratio of each field of a (k, n, cube) stack w, given their advections bw.

    Returns the k ratios as floats, 0.0 for a zero field, and the target
    index t. Both norms are taken on the whole stack, each slice summed on
    its own, and divided as floats, so ratio i has the bits of
    advection_bound_ratio of field i, whatever else the stack holds.
    """
    n = lattice.n
    if 0.0 < s < n / 2.0:
        t = 2.0 * s - 1.0 - n / 2.0
    elif s > n / 2.0:
        t = s - 1.0
    else:
        t = s - 1.5
    denoms = [a**2 for a in _weighted_norms(lattice, _squares(lattice, w), s).tolist()]
    norms = _weighted_norms(lattice, _squares(lattice, bw), t).tolist()
    return [0.0 if d == 0.0 else b / d for b, d in zip(norms, denoms)], t


def apriori_velocity_bound(tensor, f):
    """Bound M0 = C_A * |f|_{H^{-1}} / pi^2 on any solution velocity.

    The norm leaves out the zero mode: the bound is for zero-mean data, and
    the solvers drop the mean of f.
    """
    c_a = ellipticity_constant(tensor)
    return c_a * seminorm(f, -1.0) / np.pi**2


def residual(tensor, u, p, f):
    """H^{-1} norm of the momentum defect for the nonlinear system."""
    r = -1.0 * stokes_operator(tensor, u, p) + advection(u) - f
    return sobolev_norm(r, -1.0)


class _PicardHalf(NamedTuple):
    """What every Picard pass reads, on the H modes before xi = 0.

    From one `_half_block`: the modes xis, the (H, n, n) velocity blocks of
    the symbols (all that the defect reads of them) and the inverses.
    Beside them the H^{-1} weights, the split forcing f_h, the buffer x of
    D^-1 (f - (u . grad) u, 0) and the one sample buffer w_grid: a fresh
    grid each pass (3 MB at n=3, m=16) goes back to the system and is
    faulted in again, which tripled the page faults of an ns-solve.
    """

    lattice: LatticeSpec
    xis: np.ndarray
    blocks: np.ndarray
    inverses: np.ndarray
    weights: np.ndarray
    f_h: np.ndarray
    x: np.ndarray
    w_grid: np.ndarray


def _picard_half(tensor, f, N):
    """The _PicardHalf of a solve of f on an N-point product grid; f must be real."""
    lat = f.lattice
    xis, symbols, inverses = _half_block(tensor, lat, 0, lat.size // 2)
    if not f.is_real:
        raise ValueError("forcing must be a real field")
    n, H = lat.n, len(xis)
    blocks = np.ascontiguousarray(symbols[:, :n, :n])
    del symbols  # the whole (H, n+1, n+1) stack, before the buffers below
    x = np.zeros((H, n + 1), np.complex128)
    _split(lat, f.coeffs, x[None, :, :n])
    weights = rho2(lat).reshape(-1)[:H] ** -1.0
    w_grid = np.empty((1, n) + (N,) * n)
    return _PicardHalf(lat, xis, blocks, inverses, weights, x[:, :n].copy(), x, w_grid)


def _linear(half):
    """The half of S applied to half.x: velocity and pressure rows, checked solenoidal."""
    y = _apply_inverses(half.inverses, half.x)
    _check_solenoidal(*_divergence_moduli(half.xis, y, half.x))
    return y


def _joined(lattice, u_h, relaxed):
    """The (k..., cube) coefficients of the iterate from its (H, k...) flat half u_h.

    Conjugation leaves -0 imaginary parts at exact zeros of the mirror,
    where relaxing the whole field (or the zero field) gives +0; once the
    iterate is relaxed, + 0.0 keeps those bits. The Stokes guess is used as
    joined.
    """
    cube = _join(lattice, u_h, u_h)
    if relaxed:
        cube += 0.0
    return cube


def _picard_pass(half, u_h, relaxed):
    """One pass from the iterate's flat half u_h: (y, bu, defect).

    y is the half of S (f - (u . grad) u), bu the kernel's xi_n >= 0 half
    of (u . grad) u, and defect the H^{-1} norm of the momentum defect.
    Everything else the pass makes dies when it returns.
    """
    lat, n, m = half.lattice, half.lattice.n, half.lattice.m
    for j, out in enumerate(half.w_grid[0]):  # one component's cube at a time
        _irfftn_half(_joined(lat, u_h[:, j], relaxed)[..., m:], lat, out.shape[-1], out=out)
    bu = _advection_upper(lat, half.w_grid)
    # the kernel's upper half holds no -0, so the fill's + 0.0 reaches only
    # the conjugates; the cube dies once its half is split into x
    rhs = half.x[:, :n]
    _split(lat, _filled(lat, bu)[0], rhs[None])
    np.subtract(half.f_h, rhs, out=rhs)
    y = _linear(half)
    # the pressure gradient cancels in the defect, leaving the viscous
    # operator applied to the gap between u and the linear solution; the
    # mirrored half has the same squares and xi = 0 holds none
    defect2 = _abs2_sum(_apply_blocks(half.blocks, u_h - y[:, :n]).T)
    return y, bu, float(np.sqrt(2.0 * np.sum(half.weights * defect2)))


def picard_solve(tensor, f, opts=None):
    """Damped fixed-point solve of the incompressible nonlinear system.

    Every pass runs on the Hermitian half (`spectral._split`), the layout
    of one `stokes._half_block` call that factors the symbols of all H
    modes before xi = 0: (H, n) stacks, the other half following by
    conjugation, since every field here is real. The forcing is split once.
    A pass (`_picard_pass`) joins the iterate's half one component at a
    time (`_joined`, the `_join` of every solve) and samples the xi_n >= 0
    part of that one cube on the product grid, so only one component's
    cube is alive at once. It forms (u . grad) u there (`_advection_upper`),
    fills its cube (`_filled`) and splits it straight into the right-hand
    side, as the forcing was split. It then applies the inverses to
    D^-1 (f - (u . grad) u, 0), checks that the new velocity is solenoidal
    (the `_check_solenoidal` of `solve_stokes`), forms the momentum defect
    with the symbols' velocity blocks, measures it in H^{-1} with the
    weights of the half, and relaxes u toward the linear solution.

    Between passes the solve holds only what the next pass reads: the
    `_PicardHalf` (modes, velocity blocks, inverses, weights, split
    forcing, right-hand side and one sample buffer) and the iterate; a
    pass's temporaries, its linear solution and its advection die before
    the next pass samples. The step omega halves whenever the defect grows;
    Diverged is raised if it grows at the floor, MaxIterationsExceeded if
    the budget runs out. On success the `_PicardHalf` is dropped first, and
    the cubes of u, p and the advection field of `energy_check` are built
    only then: the returned velocity is divergence-free, the pressure is
    the one induced by the final velocity, and the report records whether
    the a-priori bound held. A nonzero mean of f is flagged once, with a
    NonzeroMeanWarning, recorded as mean_removed_f, and dropped: the split
    half holds no xi = 0, and M0 leaves the mean out.
    """
    opts = opts or NSSolveOptions()
    lat = f.lattice
    _checked_constants(tensor, lat)  # the checks of solve_stokes, n first
    N = dealias_grid(lat.m) if opts.dealias else 2 * lat.m + 1
    half = _picard_half(tensor, f, N)
    report = NSSolveReport(m0=apriori_velocity_bound(tensor, f))
    report.mean_removed_f = _nonzero_mean(lat, f.coeffs, "forcing")
    omega = opts.relaxation
    n = lat.n
    if opts.initial_guess == "stokes":
        u_h = _linear(half)[:, :n]
    else:
        u_h = np.zeros((len(half.xis), n), np.complex128)
    relaxed = opts.initial_guess == "zero"
    prev = np.inf
    for iteration in range(1, opts.max_iterations + 1):
        report.iterations = iteration
        y, bu, res = _picard_pass(half, u_h, relaxed)
        report.residual_history.append(res)
        report.final_residual = res
        report.omega_final = omega
        if not np.isfinite(res):
            report.diverged = True
            raise Diverged("iteration produced a non-finite defect", report)
        if res <= opts.tol:
            del half  # the setup goes before the cubes below are built
            u = SpectralVectorField(lat, _joined(lat, u_h, relaxed), True, divergence_free=True)
            report.converged = True
            report.velocity_norm = seminorm(u, 1.0)
            report.bound_satisfied = report.velocity_norm <= report.m0 + 1e-9
            report.energy_check = inner(SpectralVectorField(lat, _filled(lat, bu)[0]), u).real
            p_h = -1j * y[:, n]
            return u, SpectralScalarField(lat, _join(lat, p_h, p_h), True), report
        if res > prev:
            if omega <= OMEGA_FLOOR:
                report.diverged = True
                raise Diverged(
                    f"defect grew to {res:.3e} with omega at the floor {OMEGA_FLOOR}", report
                )
            omega = max(0.5 * omega, OMEGA_FLOOR)
        u_h = (1.0 - omega) * u_h + omega * y[:, :n]
        del y, bu  # the next pass reads neither
        relaxed = True
        prev = res
    raise MaxIterationsExceeded(
        f"no convergence within {opts.max_iterations} iterations "
        f"(last defect {report.final_residual:.3e})",
        report,
    )


class RegularityFit(NamedTuple):
    slope: float
    sobolev_index: float
    shells: int


def regularity_slope(u):
    """Fit the spectral decay exponent over dyadic mode shells.

    Shell j collects modes with 2^j <= |xi| < 2^(j+1); the fit regresses
    log(shell max |uhat|) on log rho at the maximizing mode. Returns the
    decay slope a, the surrogate Sobolev index a - n/2, and the shell
    count. A field whose outer shells are empty reports an infinite slope.
    """
    lat = u.lattice
    mags = np.abs(u.coeffs)
    if mags.ndim > lat.n:
        mags = np.max(mags, axis=0)
    if float(np.max(mags)) == 0.0:
        raise ValueError("cannot fit a decay slope to the zero field")
    abs_xi = np.sqrt(mode_abs2(lat))
    rho = np.sqrt(1.0 + abs_xi**2)
    xs, ys = [], []
    tail_empty = False
    j = 0
    while 2 ** (j + 1) <= lat.m + 1:
        shell = (abs_xi >= 2**j) & (abs_xi < 2 ** (j + 1))
        peak = float(np.max(mags[shell]))
        if peak <= 0.0:
            tail_empty = True
        elif tail_empty:
            raise ValueError("empty shell inside the occupied band; cannot fit a slope")
        else:
            flat = np.where(shell.ravel(), mags.ravel(), -1.0)
            at = int(np.argmax(flat))
            xs.append(np.log(rho.ravel()[at]))
            ys.append(np.log(peak))
        j += 1
    if tail_empty:
        return RegularityFit(np.inf, np.inf, len(xs))
    if len(xs) < 3:
        raise ValueError(f"need at least 3 occupied shells to fit, found {len(xs)}")
    slope = -np.polyfit(xs, ys, 1)[0]
    return RegularityFit(float(slope), float(slope - lat.n / 2.0), len(xs))
