"""The anisotropic Stokes solution operator, factored once per mode cube.

For every nonzero mode xi the velocity-pressure pair solves the complex
(n+1) x (n+1) system

    [ 4*pi^2 * xi_a * a[k,j,a,b] * xi_b    2*pi*i*xi_k ] [uhat]   [fhat]
    [ 2*pi*i*xi_j                          0           ] [phat] = [ghat]

whose matrix is D R D with D = diag(1, ..., 1, i) and R real symmetric
(velocity block 4*pi^2*xi.a.xi, coupling column 2*pi*xi, zero corner).
`StokesOperator(tensor, lattice)` builds R for every nonzero mode once, with
its inverse from LAPACK (`np.linalg.inv`), both stored as real float64
stacks; a conditioning check names the offending mode of a singular symbol.
Each solve is then one batched real matrix product on the float view of the
complex data, followed by a residual check. `solve_stokes` is a one-shot
operator solve and `solve_mode` the single-mode case of the same code. The
isotropic closed forms and the per-mode / summed a-priori bounds with
constants

    C_uf = 2*C_A,  C_ug = C_pf = 1 + 2*C_A*||A||,  C_pg = ||A|| * (1 + 2*C_A*||A||)

are provided as cross-checks; every solve can verify its own estimates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    TWO_PI,
    NonzeroMeanWarning,
    SpectralScalarField,
    SpectralVectorField,
    divergence,
    index_grids,
    seminorm,
    zero_scalar_field,
)
from .viscosity import ellipticity_constant, mode_blocks, tensor_norm

__all__ = [
    "ZeroMode",
    "SingularSymbol",
    "NonPositiveMu",
    "NotSolenoidal",
    "StokesSymbol",
    "StokesOperator",
    "StokesSolveReport",
    "assemble_symbol",
    "solve_mode",
    "solve_isotropic_mode",
    "solve_stokes",
    "solve_stokes_incompressible",
    "mode_estimate_slack",
    "global_estimate_slack",
    "estimate_constants",
]

# Largest accepted Frobenius condition number ||R||_F * ||R^-1||_F of a real
# symbol, and the relative tolerances of the estimate, divergence and mean checks.
COND_LIMIT = 1e13
ESTIMATE_RTOL = 1e-12
DIVERGENCE_RTOL = 1e-12
MEAN_RTOL = 1e-14


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
    constants: dict = field(default_factory=dict)
    slack_u: np.ndarray | None = None  # per nonzero mode, canonical order
    slack_p: np.ndarray | None = None
    min_slack_u: float = np.inf
    min_slack_p: float = np.inf
    estimates_ok: bool = True
    global_bound: dict = field(default_factory=dict)
    mean_removed_f: bool = False
    mean_removed_g: bool = False

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
    """Build the symbol at one nonzero mode: the B=1 case of the operator's."""
    xi = np.asarray(xi, dtype=float)
    n = tensor.n
    if xi.shape != (n,):
        raise ValueError(f"mode must have {n} components, got {xi.shape}")
    if np.all(xi == 0):
        raise ZeroMode("the Stokes symbol is singular by construction at xi = 0")
    return StokesSymbol(tuple(int(x) for x in xi), _mode_symbols(tensor, xi[None])[0])


def _mode_symbols(tensor, xis):
    """Real symbols R of a tensor at a (B, n) stack of nonzero modes."""
    return _real_symbols(np.einsum("ba,kjac,bc->bkj", xis, tensor.entries, xis), xis)


def _real_symbols(blocks, xis):
    """Real symbols R from velocity blocks (B, n, n) and modes (B, n)."""
    B, n = xis.shape
    R = np.zeros((B, n + 1, n + 1))
    R[:, :n, :n] = 4.0 * np.pi**2 * blocks
    R[:, :n, n] = TWO_PI * xis
    R[:, n, :n] = TWO_PI * xis
    return R


def _invert(R, xis):
    """Inverses of a stack of real symbols, from LAPACK.

    Raises SingularSymbol naming the first mode whose symbol is exactly
    singular or has a Frobenius condition number above COND_LIMIT.
    """
    try:
        inv = np.linalg.inv(R)
    except np.linalg.LinAlgError:
        # a pivot was exactly zero; det factors each member the same way
        i = int(np.argmin(np.abs(np.linalg.det(R))))
        xi = tuple(int(x) for x in xis[i])
        raise SingularSymbol(f"singular symbol at mode {xi}", xi) from None
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


def _mirrored(stack):
    """Extend a stack over the modes before xi = 0 by the stack over their negatives.

    The negatives follow in reverse order, each member conjugated by
    S = diag(1, ..., 1, -1): the coupling row and column change sign.
    """
    out = np.concatenate([stack, stack[::-1]])
    tail = out[len(stack):]
    tail[:, -1, :-1] *= -1.0
    tail[:, :-1, -1] *= -1.0
    return out


def _solve_symbols(R, inv, x):
    """Solve R y = x for a complex (B, d) stack x, given the real inverses.

    Both products act on the float view of x, real and imaginary parts side
    by side. Returns y and the largest defect |R y - x| relative to max |x|.
    """
    B, d = x.shape
    xv = x.view(np.float64).reshape(B, d, 2)
    yv = np.matmul(inv, xv)
    defect = (np.matmul(R, yv) - xv).reshape(B, 2 * d).view(np.complex128)
    scale = max(float(np.max(np.abs(x))), 1e-300)
    return yv.reshape(B, 2 * d).view(np.complex128), float(np.max(np.abs(defect))) / scale


def solve_mode(symbol, fhat, ghat):
    """Invert one symbol for data (fhat, ghat); returns (uhat, phat)."""
    R = symbol.real[None]
    n = R.shape[1] - 1
    x = np.empty((1, n + 1), np.complex128)  # D^-1 (fhat, ghat)
    x[0, :n] = fhat
    x[0, n] = -1j * ghat
    y, _ = _solve_symbols(R, _invert(R, [symbol.xi]), x)
    return y[0, :n], complex(-1j * y[0, n])


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


def _project_mean(fld, what):
    zero = (slice(None),) * (fld.coeffs.ndim - fld.lattice.n) + fld.lattice.zero_index
    # judged against the field's own scale, so rescaling cannot flip the flag
    mean = np.max(np.abs(np.atleast_1d(fld.coeffs[zero])))
    removed = bool(mean > MEAN_RTOL * np.max(np.abs(fld.coeffs)))
    if removed:
        warnings.warn(
            f"{what} has a nonzero mean; projecting onto the zero-mean subspace",
            NonzeroMeanWarning,
            stacklevel=4,
        )
        c = fld.coeffs.copy()
        c[zero] = 0.0
        if isinstance(fld, SpectralVectorField):
            fld = SpectralVectorField(fld.lattice, c, fld.is_real, True, fld.divergence_free)
        else:
            fld = SpectralScalarField(fld.lattice, c, fld.is_real, True)
    return fld, removed


class StokesOperator:
    """Solution operator of the Stokes system for one tensor on one mode cube.

    Construction assembles the real symbol R of every nonzero mode and
    inverts the whole stack once (raising SingularSymbol, or NotElliptic for
    the tensor); both stacks are kept as float64, in canonical mode order
    with the zero mode left out. A solve is then two batched real matrix
    products (solution and residual) on the float view of the data, and
    `viscous` applies the velocity blocks of the same symbols.
    """

    def __init__(self, tensor, lattice):
        if tensor.n != lattice.n:
            raise ValueError(f"tensor dimension {tensor.n} does not match field n={lattice.n}")
        self.tensor = tensor
        self.lattice = lattice
        self.constants = estimate_constants(tensor)  # validates ellipticity up front
        self._zero = lattice.size // 2  # flat position of xi = 0 in canonical order
        self.xis = self._gather(np.stack(index_grids(lattice)).astype(float))  # (B, n)
        # canonical order lists -xi at the mirror position of xi, and
        # R(-xi) = S R(xi) S with S = diag(1, ..., 1, -1): factor one half
        half = self._zero
        blocks = self._gather(mode_blocks(tensor, lattice))[:half]
        symbols = _real_symbols(blocks, self.xis[:half])
        self.symbols = _mirrored(symbols)
        self.inverses = _mirrored(_invert(symbols, self.xis[:half]))

    def _gather(self, coeffs):
        """(k..., cube) coefficients as a (B, k...) stack over the nonzero modes."""
        lead = coeffs.shape[: coeffs.ndim - self.lattice.n]
        flat = np.delete(coeffs.reshape(lead + (-1,)), self._zero, axis=-1)
        return np.moveaxis(flat, -1, 0)

    def _scatter(self, stack):
        """Inverse of _gather; the zero mode comes back as an exact zero."""
        lead = stack.shape[1:]
        flat = np.insert(np.moveaxis(stack, 0, -1), self._zero, 0.0, axis=-1)
        return flat.reshape(lead + self.lattice.shape)

    def _check_lattice(self, fld, what):
        if fld.lattice != self.lattice:
            raise ValueError(f"{what} lattice {fld.lattice} does not match {self.lattice}")

    def solve(self, f, g=None, s=1.0, check_estimates=True):
        """Solve the compressible system; the contract of `solve_stokes`."""
        lat = self.lattice
        self._check_lattice(f, "forcing")
        if g is None:
            g = zero_scalar_field(lat)
        self._check_lattice(g, "divergence data")
        f, removed_f = _project_mean(f, "stokes forcing")
        g, removed_g = _project_mean(g, "divergence data")

        n = lat.n
        x = np.empty((len(self.xis), n + 1), np.complex128)  # D^-1 (fhat, ghat)
        x[:, :n] = self._gather(f.coeffs)
        x[:, n] = -1j * self._gather(g.coeffs)
        y, residual = _solve_symbols(self.symbols, self.inverses, x)

        is_real = f.is_real and g.is_real
        u = SpectralVectorField(lat, self._scatter(y[:, :n]), is_real, True, False)
        p = SpectralScalarField(lat, self._scatter(-1j * y[:, n]), is_real, True)
        report = StokesSolveReport(
            s=s,
            n_modes=len(self.xis),
            residual=residual,
            constants=self.constants,
            mean_removed_f=removed_f,
            mean_removed_g=removed_g,
        )
        if check_estimates:
            # x and y carry the moduli of (fhat, ghat) and (uhat, phat)
            _attach_estimates(report, self.constants, self.xis, x, y)
            report.global_bound = global_estimate_slack(self.tensor, u, p, f, g, s)
        return u, p, report

    def solve_incompressible(self, f, s=1.0, check_estimates=True):
        """Solve with zero divergence target; the velocity comes out solenoidal.

        The divergence is the continuity row of the system, so its defect is
        held to the scale of the data, like the residual; NotSolenoidal is
        raised above DIVERGENCE_RTOL times max |fhat|.
        """
        u, p, report = self.solve(f, None, s=s, check_estimates=check_estimates)
        defect = float(np.max(np.abs(divergence(u).coeffs)))
        limit = DIVERGENCE_RTOL * float(np.max(np.abs(f.coeffs)))
        if not defect <= limit:
            raise NotSolenoidal(f"velocity divergence {defect:.3e} exceeds {limit:.3e}")
        u = SpectralVectorField(u.lattice, u.coeffs, u.is_real, True, True)
        return u, p, report

    def viscous(self, u):
        """Viscous term of the momentum equation; the same as `apply_viscosity`."""
        self._check_lattice(u, "velocity")
        n = self.lattice.n
        uk = np.ascontiguousarray(self._gather(u.coeffs))  # (B, n) complex
        v = np.matmul(self.symbols[:, :n, :n], uk.view(np.float64).reshape(-1, n, 2))
        np.negative(v, out=v)
        out = self._scatter(v.reshape(-1, 2 * n).view(np.complex128))
        return SpectralVectorField(self.lattice, out, u.is_real, True, False)


def solve_stokes(tensor, f, g=None, s=1.0, check_estimates=True):
    """Solve the compressible Stokes system on the whole mode cube.

    Inputs are the forcing f (vector field) and divergence target g (scalar
    field, or None for zero). Nonzero means are projected away with a
    warning. Returns (u, p, report); u and p are zero-mean, and the zero
    mode of both is exactly zero. Builds a one-shot StokesOperator; callers
    that solve repeatedly with one tensor should keep the operator instead.
    """
    return StokesOperator(tensor, f.lattice).solve(f, g, s=s, check_estimates=check_estimates)


def _mode_slacks(constants, xis, rhs, z):
    """Slacks and bounds of the two per-mode estimates over a stack of modes.

    rhs and z are (B, n+1) stacks carrying the moduli of (fhat, ghat) and
    (uhat, phat). Returns (slack_u, slack_p, bound_u, bound_p), each (B,).
    """
    n = xis.shape[1]
    abs_xi = np.sqrt(np.sum(xis**2, axis=1))
    abs_f = np.sqrt(np.sum(np.abs(rhs[:, :n]) ** 2, axis=1))
    abs_g = np.abs(rhs[:, n])
    bound_u = (
        constants["C_uf"] * abs_f / (TWO_PI * abs_xi) ** 2
        + constants["C_ug"] * abs_g / (TWO_PI * abs_xi)
    )
    bound_p = constants["C_pf"] * abs_f / (TWO_PI * abs_xi) + constants["C_pg"] * abs_g
    slack_u = bound_u - np.sqrt(np.sum(np.abs(z[:, :n]) ** 2, axis=1))
    slack_p = bound_p - np.abs(z[:, n])
    return slack_u, slack_p, bound_u, bound_p


def _attach_estimates(report, constants, xis, rhs, z):
    report.slack_u, report.slack_p, bound_u, bound_p = _mode_slacks(constants, xis, rhs, z)
    report.min_slack_u = float(np.min(report.slack_u))
    report.min_slack_p = float(np.min(report.slack_p))
    # each mode's slack is held to its own bound, so rescaling the data
    # cannot flip the verdict
    report.estimates_ok = bool(
        np.all(report.slack_u >= -ESTIMATE_RTOL * bound_u)
        and np.all(report.slack_p >= -ESTIMATE_RTOL * bound_p)
    )


def solve_stokes_incompressible(tensor, f, s=1.0, check_estimates=True):
    """Solve with zero divergence target; the velocity comes out solenoidal."""
    return StokesOperator(tensor, f.lattice).solve_incompressible(
        f, s=s, check_estimates=check_estimates
    )


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
    constants = estimate_constants(tensor)
    norm_u = seminorm(u, s)
    norm_p = seminorm(p, s - 1.0)
    norm_f = seminorm(f, s - 2.0)
    norm_g = seminorm(g, s - 1.0)
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
