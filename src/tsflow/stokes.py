"""The anisotropic Stokes solve, one block of Fourier modes at a time.

For every nonzero mode xi the velocity-pressure pair solves the complex
(n+1) x (n+1) system

    [ 4*pi^2 * xi_a * a[k,j,a,b] * xi_b    2*pi*i*xi_k ] [uhat]   [fhat]
    [ 2*pi*i*xi_j                          0           ] [phat] = [ghat]

whose matrix is D R D with D = diag(1, ..., 1, i) and R real symmetric
(velocity block 4*pi^2*xi.a.xi, coupling column 2*pi*xi, zero corner).
Since R(-xi) = S R(xi) S with S = diag(1, ..., 1, -1), only half the cube
is needed: the H = (size - 1) / 2 modes before xi = 0, whose negatives
are the rest. R = [[A, b], [b^T, 0]] is a bordered matrix, A = 4*pi^2
xi.a.xi and b = 2*pi*xi. Relaxed ellipticity makes A positive only on the
vectors orthogonal to xi, so A may be singular, but the inverse has a closed
form (n = 2, 3) that divides only by s = b.adj(A).b = -det R:

    R^-1 = [[X A X^T, adj(A) b], [(adj(A) b)^T, -det A]] / s,

with X v = b x v for n = 3, and X A X^T replaced by t t^T, t = (-b_2, b_1),
for n = 2. LAPACK (`np.linalg.inv`) is the oracle of the tests only. A zero
s or a conditioning check names the offending mode of a singular symbol.

The one Stokes solve is `solve_stokes(tensor, f, g=None, s=1.0)`. It
streams that half in blocks of _BLOCK modes, building each block's R and
inverse with `_half_block` and dropping them. With g=None the solve is the
incompressible one. `_solve_modes` solves stacked symbols at any modes, and
`solve_mode` is its one-row call. Iterations that apply R and its inverse
pass after pass (`navier_stokes.picard_solve`) build them once for all H
modes, as `_half_block` of the whole half. Lattices and tensors exist
only for n in `spectral.DIMENSIONS`, the keys of _BORDERED_PARTS. The
isotropic closed forms and the per-mode / summed a-priori bounds with constants

    C_uf = 2*C_A,  C_ug = C_pf = 1 + 2*C_A*||A||,  C_pg = ||A|| * (1 + 2*C_A*||A||)

are provided as cross-checks; every solve checks its own estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (
    TWO_PI,
    SpectralScalarField,
    SpectralVectorField,
    _half_modes,
    _join_rows,
    _nonzero_mean,
    _split,
    seminorm,
    zero_scalar_field,
)
from .viscosity import _check_lattice, ellipticity_constant, mode_blocks, tensor_norm

__all__ = [
    "ZeroMode",
    "SingularSymbol",
    "NonPositiveMu",
    "NotSolenoidal",
    "StokesSymbol",
    "StokesSolveReport",
    "assemble_symbol",
    "solve_mode",
    "solve_isotropic_mode",
    "solve_stokes",
    "mode_estimate_slack",
    "global_estimate_slack",
    "estimate_constants",
]

# Largest accepted Frobenius condition number ||R||_F * ||R^-1||_F of a real
# symbol, and the relative tolerances of the estimate and divergence checks.
COND_LIMIT = 1e13
ESTIMATE_RTOL = 1e-12
DIVERGENCE_RTOL = 1e-12


class ZeroMode(ValueError):
    """The symbol is only defined for nonzero modes."""


class NonPositiveMu(ValueError):
    """Isotropic closed forms require a positive shear viscosity."""


class SingularSymbol(ArithmeticError):
    def __init__(self, message, xi=None):
        super().__init__(message)
        self.xi = xi


class NotSolenoidal(ArithmeticError):
    """An incompressible solve returned a velocity with a divergence defect."""


@dataclass(frozen=True)
class StokesSymbol:
    xi: tuple
    real: np.ndarray  # float64 (n+1, n+1): the symbol is D R D, D = diag(1, ..., 1, i)

    @property
    def mat(self):
        """The complex symbol matrix D R D."""
        d = np.ones(self.real.shape[0], np.complex128)
        d[-1] = 1j
        return d[:, None] * self.real * d[None, :]


@dataclass
class StokesSolveReport:
    """Residuals, estimate margins, and constants for one linear solve."""

    s: float
    n_modes: int
    residual: float  # max per-mode defect relative to the data magnitude
    constants: dict
    slack_u: np.ndarray  # per nonzero mode, canonical order
    slack_p: np.ndarray
    min_slack_u: float
    min_slack_p: float
    estimates_ok: bool
    global_bound: dict
    mean_removed_f: bool
    mean_removed_g: bool

    def flat_items(self):
        """Scalar summary as (key, value) pairs for text reports."""
        items = [
            ("s", self.s),
            ("modes", self.n_modes),
            ("residual", self.residual),
            ("min_slack_u", self.min_slack_u),
            ("min_slack_p", self.min_slack_p),
            ("estimates_ok", int(self.estimates_ok)),
            ("mean_removed_f", int(self.mean_removed_f)),
            ("mean_removed_g", int(self.mean_removed_g)),
        ]
        items += [(f"constant_{k}", v) for k, v in self.constants.items()]
        items += [(f"global_{k}", v) for k, v in self.global_bound.items()]
        return items


def estimate_constants(tensor):
    """Estimate constants derived from C_A and the tensor norm."""
    c_a = ellipticity_constant(tensor)
    norm_a = tensor_norm(tensor)
    c_uf = 2.0 * c_a
    c_ug = 1.0 + 2.0 * c_a * norm_a
    return {
        "C_A": c_a,
        "norm_A": norm_a,
        "C_uf": c_uf,
        "C_ug": c_ug,
        "C_pf": c_ug,
        "C_pg": norm_a * c_ug,
    }


def assemble_symbol(tensor, xi):
    """Build the symbol at one nonzero mode: the B=1 case of `_mode_symbols`."""
    xi = np.asarray(xi, dtype=float)
    n = tensor.n
    if xi.shape != (n,):
        raise ValueError(f"mode must have {n} components, got {xi.shape}")
    if not xi.any():
        raise ZeroMode("the Stokes symbol is singular by construction at xi = 0")
    return StokesSymbol(tuple(int(x) for x in xi), _mode_symbols(tensor, xi[None])[0])


def _mode_symbols(tensor, xis):
    """Real symbols R of a tensor at a (B, n) stack of nonzero modes."""
    B, n = xis.shape
    R = np.zeros((B, n + 1, n + 1))
    R[:, :n, :n] = mode_blocks(tensor, xis)
    np.multiply(TWO_PI, xis, out=R[:, :n, n])
    R[:, n, :n] = R[:, :n, n]
    return R


# Modes per block of the closed-form inverse and of every solve: a block's
# arrays take a few MB at n = 3 whatever the cube.
_BLOCK = 4096


def _bordered_parts_2(r):
    """(t t^T entries, adj(A) b, det A, s) of a component-major (3, 3, B) block."""
    a00, a01, a11 = r[0, 0], r[0, 1], r[1, 1]
    b0, b1 = r[0, 2], r[1, 2]
    c = (a11 * b0 - a01 * b1, a00 * b1 - a01 * b0)
    m = {(0, 0): b1 * b1, (0, 1): -(b0 * b1), (1, 1): b0 * b0}
    return m, c, a00 * a11 - a01 * a01, b0 * c[0] + b1 * c[1]


def _bordered_parts_3(r):
    """(X A X^T entries, adj(A) b, det A, s) of a component-major (4, 4, B) block."""
    a00, a01, a02, a11, a12, a22 = r[0, 0], r[0, 1], r[0, 2], r[1, 1], r[1, 2], r[2, 2]
    b0, b1, b2 = r[0, 3], r[1, 3], r[2, 3]
    adj00 = a11 * a22 - a12 * a12
    adj01 = a02 * a12 - a01 * a22
    adj02 = a01 * a12 - a02 * a11
    adj11 = a00 * a22 - a02 * a02
    adj12 = a01 * a02 - a00 * a12
    adj22 = a00 * a11 - a01 * a01
    c = (
        adj00 * b0 + adj01 * b1 + adj02 * b2,
        adj01 * b0 + adj11 * b1 + adj12 * b2,
        adj02 * b0 + adj12 * b1 + adj22 * b2,
    )
    b00, b11, b22, b01, b02, b12 = b0 * b0, b1 * b1, b2 * b2, b0 * b1, b0 * b2, b1 * b2
    m = {  # row i of X is e_i x b
        (0, 0): a11 * b22 - 2.0 * a12 * b12 + a22 * b11,
        (1, 1): a00 * b22 - 2.0 * a02 * b02 + a22 * b00,
        (2, 2): a00 * b11 - 2.0 * a01 * b01 + a11 * b00,
        (0, 1): a12 * b02 + a02 * b12 - a01 * b22 - a22 * b01,
        (0, 2): a01 * b12 + a12 * b01 - a11 * b02 - a02 * b11,
        (1, 2): a01 * b02 + a02 * b01 - a00 * b12 - a12 * b00,
    }
    det = a00 * adj00 + a01 * adj01 + a02 * adj02
    return m, c, det, b0 * c[0] + b1 * c[1] + b2 * c[2]


_BORDERED_PARTS = {2: _bordered_parts_2, 3: _bordered_parts_3}


def _invert(R, xis):
    """Inverses of a stack of real symbols, in closed form.

    R = [[A, b], [b^T, 0]] with s = b.adj(A).b = -det R has the inverse
    [[M, adj(A) b], [(adj(A) b)^T, -det A]] / s, M = X A X^T (X v = b x v)
    for n = 3 and M = t t^T (t = (-b_2, b_1)) for n = 2, so no step divides
    by det A, which is zero where relaxed ellipticity leaves A singular.
    The stack is taken in blocks of _BLOCK modes, each transposed to
    component-major rows. Raises SingularSymbol naming the first mode whose
    s is zero, or whose Frobenius condition number is above COND_LIMIT.
    """
    H, d = R.shape[:2]
    parts = _BORDERED_PARTS[d - 1]
    inv = np.empty_like(R)
    # at extreme scales products overflow to inf or nan, which the
    # conditioning check rejects without a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, H, _BLOCK):
            r = np.ascontiguousarray(R[lo : lo + _BLOCK].transpose(1, 2, 0))
            m, c, det, s = parts(r)
            zero = s == 0
            if np.any(zero):
                xi = tuple(int(x) for x in xis[lo + int(np.argmax(zero))])
                raise SingularSymbol(f"singular symbol at mode {xi}", xi)
            rs = 1.0 / s
            out = np.empty_like(r)
            for (i, j), v in m.items():
                np.multiply(v, rs, out=out[i, j])
                out[j, i] = out[i, j]
            for i, v in enumerate(c):
                np.multiply(v, rs, out=out[i, -1])
                out[-1, i] = out[i, -1]
            np.multiply(det, -rs, out=out[-1, -1])
            inv[lo : lo + _BLOCK] = out.transpose(2, 0, 1)
        cond2 = np.einsum("bij,bij->b", R, R) * np.einsum("bij,bij->b", inv, inv)
    bad = ~(cond2 <= COND_LIMIT**2)  # also catches nan
    if np.any(bad):
        i = int(np.argmax(bad))
        xi = tuple(int(x) for x in xis[i])
        raise SingularSymbol(
            f"symbol condition number {np.sqrt(cond2[i]):.3e} above {COND_LIMIT:.0e} "
            f"at mode {xi}",
            xi,
        )
    return inv


def _apply_inverses(inv, x):
    """y = R^-1 x for a complex (B, d) stack x: one real product on its float view."""
    B, d = x.shape
    yv = np.matmul(inv, x.view(np.float64).reshape(B, d, 2))
    return yv.reshape(B, 2 * d).view(np.complex128)


def _solve_symbols(R, inv, x):
    """Solve R y = x for a complex (B, d) stack x, given the real inverses.

    Both products act on the float view of x, real and imaginary parts side
    by side. Returns y, the largest defect |R y - x| and max |x|, the two
    parts of the relative residual. x may also be a (2, B, d) pair of two
    copies of one right-hand side, as the half and mirror members of a real
    field are: y then solves the first, and the defect and max cover both.
    """
    B, d = x.shape[-2:]
    xv = x.view(np.float64).reshape(-1, B, d, 2)
    y = _apply_inverses(inv, x.reshape(-1, B, d)[0])
    Ry = np.matmul(R, y.view(np.float64).reshape(B, d, 2))
    defect = max(np.max(np.abs((Ry - m).reshape(B, 2 * d).view(np.complex128))) for m in xv)
    return y, float(defect), float(np.max(np.abs(x)))


def _divergence_moduli(xis, y, x):
    """(max |2*pi*i*xi.uhat|, max |fhat|) of (..., B, n+1) half-layout stacks.

    y and x are stacks (`spectral._split`) of solutions and data D^-1
    (fhat, ghat) at the (B, n) modes xis; `_check_solenoidal` compares the
    two maxima.
    """
    n = xis.shape[1]
    div = TWO_PI * 1j * sum(xis[:, j] * y[..., j] for j in range(n))
    return float(np.max(np.abs(div))), float(np.max(np.abs(x[..., :n])))


def _check_solenoidal(divergence, scale):
    """Raise NotSolenoidal when a velocity divergence exceeds DIVERGENCE_RTOL * max |fhat|.

    Both are maxima over the nonzero modes (`_divergence_moduli`), so the
    check is relative and blind to the mean.
    """
    limit = DIVERGENCE_RTOL * scale
    if not divergence <= limit:
        raise NotSolenoidal(f"velocity divergence {divergence:.3e} exceeds {limit:.3e}")


def _solve_modes(R, xis, f, g):
    """(uhat, phat, x, y) of (..., n+1, n+1) symbols R at modes xis for (..., n) f and (...) g.

    One pass: x = D^-1 (fhat, ghat), the closed-form `_invert` of every
    symbol (xis, broadcast against R's leading axes, name a singular one),
    one real product y = R^-1 x, and phat = -i y_n. x and y are what
    `_mode_slacks` reads; each row has the bits of its one-row `solve_mode`.
    """
    *lead, d, _ = R.shape
    x = np.empty((*lead, d), np.complex128)
    x[..., :-1], x[..., -1] = f, -1j * g
    modes = np.broadcast_to(xis, (*lead, d - 1)).reshape(-1, d - 1)
    y = _apply_inverses(_invert(R.reshape(-1, d, d), modes), x.reshape(-1, d)).reshape(x.shape)
    return y[..., :-1], -1j * y[..., -1], x, y


def solve_mode(symbol, fhat, ghat):
    """Invert one symbol for data (fhat, ghat); returns (uhat, phat). One row of `_solve_modes`."""
    uhat, phat, _, _ = _solve_modes(symbol.real[None], symbol.xi, fhat, ghat)
    return uhat[0], complex(phat[0])


def solve_isotropic_mode(lam, mu, xi, fhat, ghat):
    """Closed-form per-mode solution for the two-parameter isotropic tensor.

    phat = xi.fhat / (2*pi*i*|xi|^2) + (lam + 2*mu) * ghat
    uhat = [fhat - xi*(xi.fhat)/|xi|^2] / (4*pi^2*mu*|xi|^2)
           + xi * ghat / (2*pi*i*|xi|^2)
    """
    if mu <= 0:
        raise NonPositiveMu(f"shear viscosity must be positive, got mu={mu}")
    xi = np.asarray(xi, dtype=float)
    a2 = float(xi @ xi)
    if a2 == 0:
        raise ZeroMode("closed forms hold only away from xi = 0")
    fhat = np.asarray(fhat, dtype=np.complex128)
    xdotf = complex(xi @ fhat)
    phat = xdotf / (TWO_PI * 1j * a2) + (lam + 2.0 * mu) * ghat
    uhat = (fhat - xi * (xdotf / a2)) / (4.0 * np.pi**2 * mu * a2) + xi * (
        ghat / (TWO_PI * 1j * a2)
    )
    return uhat, phat


def _checked_constants(tensor, lattice):
    """The estimate constants of a Stokes solve, after the checks of its setup."""
    _check_lattice(tensor, lattice)
    return estimate_constants(tensor)  # validates ellipticity up front


def _half_block(tensor, lattice, lo, hi):
    """(xis, R, R^-1): the modes lo .. hi-1 of the Hermitian half, their symbols and inverses."""
    xis = _half_modes(lattice, lo, hi)
    R = _mode_symbols(tensor, xis)
    return xis, R, _invert(R, xis)


def solve_stokes(tensor, f, g=None, s=1.0):
    """Solve the Stokes system on the whole mode cube.

    Inputs are the forcing f (vector field) and divergence target g (scalar
    field, or None for zero). Nonzero means are flagged with a warning and
    never read. Returns (u, p, report); the zero mode of u and p is exactly
    zero. With g=None the solve is the incompressible one: u is flagged
    divergence_free, and `_check_solenoidal` raises NotSolenoidal if it is
    not. The checks come first, in the order of `picard_solve`'s.

    The solve streams the Hermitian half in blocks of _BLOCK modes, each
    built by `_half_block` and dropped, so it holds its inputs, its outputs
    and one block. A block takes its rows of f and g from the cubes
    (`spectral._split`). A real field's data is the same in both members of
    that layout, and so is its solution: one batched product on the half
    serves both, u(-xi) = conj u(xi). A complex (is_real=False) solve also
    solves the mirror member. Either way the residual covers every nonzero
    mode, so a real-flagged field that is Hermitian only to rounding shows
    its asymmetry there. The rows of u, p and the slacks land in canonical
    order (`spectral._join_rows`); the residual, the slack minima, the
    estimate verdict and the divergence check are exact maxima and minima
    over the blocks, so the blocking changes no bit.
    """
    lattice = f.lattice
    constants = _checked_constants(tensor, lattice)
    if g is not None and g.lattice != lattice:
        raise ValueError(f"divergence data lattice {g.lattice} does not match {lattice}")
    # a nonzero mean is only flagged: no step below reads xi = 0 (_split
    # stops before it, u and p are 0 there, the seminorms skip it)
    removed_f = _nonzero_mean(lattice, f.coeffs, "stokes forcing")
    removed_g = g is not None and _nonzero_mean(lattice, g.coeffs, "divergence data")
    is_real = f.is_real and (g is None or g.is_real)
    n, H = lattice.n, lattice.size // 2
    u = np.empty((n, 2 * H + 1), np.complex128)
    p = np.empty(2 * H + 1, np.complex128)
    u[:, H] = p[H] = 0.0
    slack_u, slack_p = np.empty(2 * H), np.empty(2 * H)
    fits, divergences, estimates_ok = [], [], True
    for lo in range(0, H, _BLOCK):
        hi = min(lo + _BLOCK, H)
        xis, R, inv = _half_block(tensor, lattice, lo, hi)
        x = np.empty((2, hi - lo, n + 1), np.complex128)  # D^-1 (fhat, ghat), split
        _split(lattice, f.coeffs, x[..., :n], lo)
        if g is None:
            x[..., n] = 0.0  # zero divergence data: nothing to split or rotate
        else:
            _split(lattice, g.coeffs, x[..., n], lo)
            x[..., n] *= -1j
        if is_real:
            # one solution serves both members, checked against both
            y, *fit = _solve_symbols(R, inv, x)
            y_mirror, z = y, y[None]
            fits.append([fit])
        else:
            y, *fit = _solve_symbols(R, inv, x[0])
            y_mirror, *fit_mirror = _solve_symbols(R, inv, x[1])
            z = np.stack((y, y_mirror))
            fits.append([fit, fit_mirror])
        # x and z carry the moduli of (fhat, ghat) and (uhat, phat); both
        # members go through one pass, a real solve's one solution once
        if g is None:
            divergences.append(_divergence_moduli(xis, z, x))
        _join_rows(u, y[:, :n], y_mirror[:, :n], lo)
        _join_rows(p, -1j * y[:, n], -1j * y_mirror[:, n], lo)
        su, sp, bound_u, bound_p = _mode_slacks(constants, xis, x, z)
        # each mode's slack is held to its own bound, so rescaling the data
        # cannot flip the verdict
        estimates_ok = estimates_ok and bool(
            np.all(su >= -ESTIMATE_RTOL * bound_u) and np.all(sp >= -ESTIMATE_RTOL * bound_p)
        )
        _join_rows(slack_u, su[0], su[1], lo)
        _join_rows(slack_p, sp[0], sp[1], lo)
    if g is None:
        _check_solenoidal(*np.max(divergences, axis=0))
    # per member, the largest defect over the largest |x| of the whole half
    defects, scales = np.max(fits, axis=0).T
    residual = max(float(d) / max(float(x_max), 1e-300) for d, x_max in zip(defects, scales))
    u = SpectralVectorField(lattice, u.reshape(f.coeffs.shape), is_real, divergence_free=g is None)
    p = SpectralScalarField(lattice, p.reshape(lattice.shape), is_real)
    g = zero_scalar_field(lattice) if g is None else g
    return u, p, StokesSolveReport(
        s=s,
        n_modes=lattice.size - 1,
        residual=residual,
        constants=constants,
        slack_u=slack_u,
        slack_p=slack_p,
        min_slack_u=float(np.min(slack_u)),
        min_slack_p=float(np.min(slack_p)),
        estimates_ok=estimates_ok,
        global_bound=global_estimate_slack(tensor, u, p, f, g, s),
        mean_removed_f=removed_f,
        mean_removed_g=removed_g,
    )


def _mode_slacks(constants, xis, rhs, z):
    """Slacks and bounds of the two per-mode estimates over a stack of modes.

    rhs and z are (..., B, n+1) stacks carrying the moduli of (fhat, ghat)
    and (uhat, phat) at the (..., B, n) modes xis. Their leading axes
    broadcast against each other: solve_stokes passes its (2, B) half and
    mirror data with a (1, B) solution when the two members share one. The
    constants are scalars or arrays broadcasting against the moduli, such as
    (k, 1) per-case values for k cases of B modes. Returns (slack_u, slack_p,
    bound_u, bound_p), each of the broadcast shape (..., B).
    """
    n = xis.shape[-1]
    abs_xi = _moduli(xis)
    abs_f = _moduli(rhs[..., :n])
    abs_g = _moduli(rhs[..., n:])
    bound_u = (
        constants["C_uf"] * abs_f / (TWO_PI * abs_xi) ** 2
        + constants["C_ug"] * abs_g / (TWO_PI * abs_xi)
    )
    bound_p = constants["C_pf"] * abs_f / (TWO_PI * abs_xi) + constants["C_pg"] * abs_g
    slack_u = bound_u - _moduli(z[..., :n])
    slack_p = bound_p - _moduli(z[..., n:])
    return slack_u, slack_p, bound_u, bound_p


def _moduli(z):
    """Euclidean norm of each row of a (..., B, k) stack, from its float view's squares.

    Leading (member) axes are kept: the result has shape (..., B).
    """
    v = z.view(np.float64)
    return np.sqrt(np.einsum("...i,...i->...", v, v))


def mode_estimate_slack(tensor, xi, fhat, ghat, uhat, phat):
    """Slack of the two per-mode bounds (nonnegative when they hold).

    Velocity: |uhat| <= C_uf*|fhat|/(2*pi*|xi|)^2 + C_ug*|ghat|/(2*pi*|xi|).
    Pressure: |phat| <= C_pf*|fhat|/(2*pi*|xi|) + C_pg*|ghat|.
    """
    xi = np.asarray(xi, dtype=float)
    if not np.any(xi):
        raise ZeroMode("estimates hold only away from xi = 0")
    rhs = np.append(fhat, ghat)[None]
    z = np.append(uhat, phat)[None]
    slack_u, slack_p, _, _ = _mode_slacks(estimate_constants(tensor), xi[None], rhs, z)
    return float(slack_u[0]), float(slack_p[0])


def global_estimate_slack(tensor, u, p, f, g, s):
    """Summed a-priori bounds at Sobolev index s.

    Velocity: |u|_s <= C_uf/(2*pi^2) * |f|_{s-2} + sqrt(2)*C_ug/(2*pi) * |g|_{s-1}.
    Pressure: |p|_{s-1} <= C_pf/(sqrt(2)*pi) * |f|_{s-2} + sqrt(2)*C_pg * |g|_{s-1}.

    The extra sqrt(2) factors absorb the mode-weight ratio rho^2/|xi|^2 <= 2.
    """
    norms = (seminorm(u, s), seminorm(p, s - 1.0), seminorm(f, s - 2.0), seminorm(g, s - 1.0))
    return _global_slack(estimate_constants(tensor), s, *norms)


def _global_slack(constants, s, norm_u, norm_p, norm_f, norm_g):
    """global_estimate_slack from the seminorms |u|_s, |p|_{s-1}, |f|_{s-2} and |g|_{s-1}."""
    rhs_u = constants["C_uf"] / (2.0 * np.pi**2) * norm_f + (
        np.sqrt(2.0) * constants["C_ug"] / TWO_PI
    ) * norm_g
    rhs_p = constants["C_pf"] / (np.sqrt(2.0) * np.pi) * norm_f + np.sqrt(2.0) * constants[
        "C_pg"
    ] * norm_g
    return {
        "s": s,
        "lhs_u": norm_u,
        "rhs_u": rhs_u,
        "slack_u": rhs_u - norm_u,
        "lhs_p": norm_p,
        "rhs_p": rhs_p,
        "slack_p": rhs_p - norm_p,
    }
