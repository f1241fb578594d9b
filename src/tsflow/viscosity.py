"""Constant fourth-order viscosity tensors and the viscous operator.

A tensor holds real entries a[k, j, alpha, beta] with the pair symmetries

    a[k, j, alpha, beta] == a[j, k, beta, alpha] == a[k, beta, alpha, j],

which make the divergence-form operator on velocities equal to its
symmetric-gradient form and make the per-mode velocity blocks symmetric.
Ellipticity is required only on symmetric trace-free matrices: the smallest
eigenvalue of the quadratic form restricted to that subspace must be positive,
and its reciprocal is the stored ellipticity constant.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    SpectralVectorField,
    _check_dimension,
    _cube_from_rows,
    _flat,
    _modes,
    _rows,
    gradient,
)

__all__ = [
    "NotElliptic",
    "ViscosityTensor",
    "make_isotropic",
    "make_tensor",
    "check_symmetry",
    "symmetrize",
    "tensor_norm",
    "ellipticity_constant",
    "trace_free_symmetric_basis",
    "restricted_form_matrix",
    "apply_viscosity",
    "stokes_operator",
]

# Index permutations generating the adopted symmetry group, as position maps
# on (k, j, alpha, beta).
_GENERATORS = ((1, 0, 3, 2), (0, 3, 2, 1))

# Relative tolerances of the symmetry and ellipticity verdicts, so rescaling
# a tensor cannot flip either.
SYMMETRY_RTOL = 1e-14
ELLIPTICITY_RTOL = 1e-12


class NotElliptic(ValueError):
    """The restricted quadratic form has a non-positive eigenvalue."""


@dataclass(eq=False)
class ViscosityTensor:
    n: int
    entries: np.ndarray  # float64, shape (n, n, n, n), indexed [k, j, alpha, beta]
    # set by ellipticity_constant once the tensor has passed its check
    ellipticity: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        _check_dimension(self.n)
        if self.entries.shape != (self.n,) * 4:
            raise ValueError(f"entries must have shape {(self.n,) * 4}, got {self.entries.shape}")
        self.entries.setflags(write=False)


def make_tensor(n, entries):
    return ViscosityTensor(n, np.array(entries, dtype=float))


def make_isotropic(lam, mu, n):
    """Two-parameter isotropic tensor.

    Entry (k, j, alpha, beta) is
    lam*d(k,alpha)*d(j,beta) + mu*(d(alpha,j)*d(beta,k) + d(alpha,beta)*d(k,j)).
    """
    eye = np.eye(n)
    e = (
        lam * np.einsum("ka,jb->kjab", eye, eye)
        + mu * np.einsum("aj,bk->kjab", eye, eye)
        + mu * np.einsum("ab,kj->kjab", eye, eye)
    )
    return ViscosityTensor(n, e)


def _symmetry_group():
    group = {(0, 1, 2, 3)}
    frontier = list(group)
    while frontier:
        p = frontier.pop()
        for g in _GENERATORS:
            q = tuple(p[i] for i in g)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return sorted(group)


_GROUP = _symmetry_group()


def check_symmetry(tensor):
    """Return the index quadruples violating either pair symmetry.

    Quadruples are 0-based (k, j, alpha, beta) positions; an empty list means
    the tensor satisfies both relations entrywise to within SYMMETRY_RTOL
    times its `tensor_norm`.
    """
    tol = SYMMETRY_RTOL * tensor_norm(tensor)
    bad = np.zeros((tensor.n,) * 4, dtype=bool)
    for g in _GENERATORS:
        bad |= np.abs(tensor.entries - np.transpose(tensor.entries, g)) > tol
    return [tuple(int(i) for i in q) for q in np.argwhere(bad)]


def symmetrize(n, entries):
    """Average raw entries over the symmetry group and wrap the result."""
    e = make_tensor(n, entries).entries
    out = np.zeros_like(e)
    for p in _GROUP:
        out += np.transpose(e, p)
    return ViscosityTensor(n, out / len(_GROUP))


def tensor_norm(tensor):
    """Largest entry magnitude."""
    return float(np.max(np.abs(tensor.entries)))


def trace_free_symmetric_basis(n):
    """Orthonormal basis of symmetric trace-free n x n matrices.

    Off-diagonal pairs (e_ka + e_ak)/sqrt(2) followed by Helmert-style
    diagonal differences; dimension n*(n+1)/2 - 1. n must be in DIMENSIONS.
    """
    _check_dimension(n)
    mats = []
    for k in range(n):
        for a in range(k + 1, n):
            b = np.zeros((n, n))
            b[k, a] = b[a, k] = 1.0 / np.sqrt(2.0)
            mats.append(b)
    for i in range(1, n):
        d = np.zeros(n)
        d[:i] = 1.0
        d[i] = -float(i)
        mats.append(np.diag(d / np.linalg.norm(d)))
    return np.stack(mats)


@functools.lru_cache(maxsize=None)
def _cached_basis(n):
    """trace_free_symmetric_basis(n), built once per n and read-only."""
    basis = trace_free_symmetric_basis(n)
    basis.setflags(write=False)
    return basis


def restricted_form_matrix(tensor):
    """Gram matrix of the viscosity form on the trace-free symmetric basis."""
    basis = _cached_basis(tensor.n)
    return np.einsum("kjab,pka,qjb->pq", tensor.entries, basis, basis)


def ellipticity_constant(tensor):
    """Reciprocal of the smallest restricted-form eigenvalue; cached.

    Raises NotElliptic when the form is not positive definite on symmetric
    trace-free matrices: its least eigenvalue is at most ELLIPTICITY_RTOL
    times its largest eigenvalue magnitude.
    """
    if tensor.ellipticity is not None:
        return tensor.ellipticity
    form = restricted_form_matrix(tensor)
    form = 0.5 * (form + form.T)
    eigs = np.linalg.eigvalsh(form)
    lam_min, scale = float(eigs[0]), float(np.max(np.abs(eigs)))
    if lam_min <= ELLIPTICITY_RTOL * scale:
        raise NotElliptic(
            f"least restricted form eigenvalue {lam_min:.3e} is not above "
            f"{ELLIPTICITY_RTOL:.0e} times the largest magnitude {scale:.3e}; "
            "the tensor is not elliptic on trace-free symmetric matrices"
        )
    tensor.ellipticity = 1.0 / lam_min
    return tensor.ellipticity


def mode_blocks(tensor, modes):
    """Velocity blocks 4*pi^2 * xi_a * a[k,j,a,c] * xi_c of a (B, n) stack of modes.

    The one contraction of modes with the tensor: the n^2 products xi_a *
    xi_c (exact for integer modes) against a[k, j, a, c] in (a c) x (k j)
    order, scaled in place. An einsum, not a matmul: a BLAS product this
    large runs on a second thread, whose buffers add about 1 MB to the peak
    resident set. einsum sums a one-mode stack in another order, so a lone
    mode is contracted as the first row of two, with the bits it has in any
    longer stack. Returns a (B, n, n) stack of symmetric real blocks.
    """
    B, n = modes.shape
    if B == 1:
        return mode_blocks(tensor, np.concatenate((modes, modes)))[:1]
    x = np.ascontiguousarray(modes.T, dtype=float)
    pairs = (x[:, None] * x[None]).reshape(n * n, B)
    ac_kj = tensor.entries.transpose(2, 3, 0, 1).reshape(n * n, n * n)
    blocks = np.einsum("pb,pq->bq", pairs, ac_kj)
    blocks *= 4.0 * np.pi**2
    return blocks.reshape(B, n, n)


def _apply_blocks(blocks, z):
    """-blocks @ z for a complex (..., B, n) stack z, one real product on its float view."""
    n = z.shape[-1]
    v = np.matmul(blocks, z.view(np.float64).reshape(z.shape[:-1] + (n, 2)))
    np.negative(v, out=v)
    return v.reshape(z.shape[:-1] + (2 * n,)).view(np.complex128)


def _check_lattice(tensor, lattice):
    """Raise the one error for a tensor whose n is not the lattice's."""
    if tensor.n != lattice.n:
        raise ValueError(f"tensor dimension {tensor.n} does not match field n={lattice.n}")


def apply_viscosity(tensor, u):
    """Viscous term of the momentum equation, mode by mode.

    Component k picks up -4*pi^2 * xi_alpha * a[k,j,alpha,beta] * xi_beta * uhat_j:
    the `mode_blocks` of the nonzero modes applied to u's coefficients
    there, with an exact zero at xi = 0. A real field takes the modes of
    its upper half xi_n >= 0 and the conjugates of their results at
    xi_n < 0; a complex field takes every mode of the cube.
    """
    lat = u.lattice
    _check_lattice(tensor, lat)
    at = _rows(lat, 0, 2 * lat.m + 1, whole=not u.is_real)
    keep, xis = _modes(lat, at)
    uk = np.ascontiguousarray(_flat(u.coeffs[at], lat)[..., keep].T)
    v = _apply_blocks(mode_blocks(tensor, xis), uk)
    return SpectralVectorField(lat, _cube_from_rows(v, keep, lat, not u.is_real), u.is_real)


def stokes_operator(tensor, u, p):
    """Momentum operator: viscous term minus the pressure gradient."""
    if u.lattice != p.lattice:
        raise ValueError("velocity and pressure must share a lattice")
    return apply_viscosity(tensor, u) - gradient(p)
