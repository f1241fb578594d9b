"""Truncated Fourier representation of periodic fields on the unit torus.

Fields live on the torus [0,1)^n, n in DIMENSIONS, and are stored as dense
complex coefficient arrays over the cube of integer modes {xi : |xi_j| <= m}.
This module provides the weighted-l2 Sobolev norms, spectral calculus
(gradient, divergence, symmetric gradient), the divergence-free projection,
uniform-grid transforms, and seeded random field generators used by the
solvers and the verification suites.

Conventions:
    - weight rho(xi) = (1 + |xi|^2)^(1/2), |xi| the Euclidean norm,
    - a field is "real" when ghat(-xi) = conj(ghat(xi)) on the whole cube,
    - a field is "zero-mean" when ghat(0) = 0; `zero_mean` is read off the
      coefficients, never stored,
    - all reductions run in canonical C order over the coefficient cube, so
      results are reproducible bit for bit.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

TWO_PI = 2.0 * np.pi
# The dimensions n that lattices and tensors take: the Stokes inverse has a
# closed form only there (stokes._BORDERED_PARTS).
DIMENSIONS = (2, 3)
# A mean is nonzero when max |c(0)| exceeds MEAN_RTOL * max |c| over the cube:
# judged against the field's own scale, so rescaling cannot flip the verdict.
MEAN_RTOL = 1e-14

__all__ = [
    "DIMENSIONS",
    "AliasingWarning",
    "NonzeroMeanWarning",
    "LatticeSpec",
    "SpectralScalarField",
    "SpectralVectorField",
    "make_lattice",
    "scalar_field",
    "vector_field",
    "zero_scalar_field",
    "zero_vector_field",
    "sobolev_norm",
    "seminorm",
    "inner",
    "gradient",
    "divergence",
    "leray_project",
    "symmetric_gradient",
    "dealias_grid",
    "grid_transform",
    "sampling_transform",
    "random_scalar_field",
    "random_vector_field",
    "embed_field",
    "restrict_field",
    "ball_mask",
    "ball_filter",
]


class AliasingWarning(UserWarning):
    """Grid too coarse for the stored band limit; samples are aliased."""


class NonzeroMeanWarning(UserWarning):
    """A zero-mean field was constructed from data with a nonzero mean."""


def _check_dimension(n, prefix="", error=ValueError):
    """Raise the one error, its message after prefix, for an n outside DIMENSIONS."""
    if n not in DIMENSIONS:
        raise error(f"{prefix}dimension n={n} is not in DIMENSIONS = {DIMENSIONS}")


@dataclass(frozen=True)
class LatticeSpec:
    """Mode cube {xi in Z^n : |xi_j| <= m}, enumerated in C order."""

    n: int
    m: int

    def __post_init__(self):
        _check_dimension(self.n)
        if self.m < 1:
            raise ValueError(f"truncation bound must be >= 1, got m={self.m}")

    @property
    def shape(self):
        return (2 * self.m + 1,) * self.n

    @property
    def size(self):
        return (2 * self.m + 1) ** self.n

    @property
    def zero_index(self):
        return (self.m,) * self.n

    def indices(self):
        """All active modes as an (size, n) int array in canonical order."""
        return np.stack(index_grids(self), axis=-1).reshape(-1, self.n)


def make_lattice(n, m):
    return LatticeSpec(int(n), int(m))


@functools.lru_cache(maxsize=128)
def index_grids(lattice):
    """Tuple of n int arrays; entry j holds xi_j at each cube position."""
    ax = np.arange(-lattice.m, lattice.m + 1)
    grids = np.meshgrid(*([ax] * lattice.n), indexing="ij")
    for g in grids:
        g.setflags(write=False)
    return tuple(grids)


@functools.lru_cache(maxsize=128)
def mode_abs2(lattice):
    """|xi|^2 over the cube."""
    out = np.zeros(lattice.shape)
    for g in index_grids(lattice):
        out += g.astype(float) ** 2
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=128)
def rho2(lattice):
    """(1 + |xi|^2) over the cube."""
    out = 1.0 + mode_abs2(lattice)
    out.setflags(write=False)
    return out


def _flip(coeffs, lattice):
    # Index negation xi -> -xi reverses the lattice axes: the trailing n of any stack.
    return np.flip(coeffs, axis=tuple(range(-lattice.n, 0)))


class _FieldArithmetic:
    """Arithmetic of the field types, each naming its flags in _FLAGS.

    _FLAGS are the constructor's flag arguments, by name. A sum keeps a flag
    only when both terms carry it, and takes two fields of one type on one
    lattice; a scalar product keeps them all, except is_real under a factor
    with a nonzero imaginary part.
    """

    _FLAGS = ()

    def __post_init__(self):
        self.coeffs.setflags(write=False)

    @property
    def zero_mean(self):
        """Whether every xi = 0 coefficient is exactly zero."""
        return not np.any(self.coeffs[(...,) + self.lattice.zero_index])

    def __add__(self, other):
        _check_same_kind(self, other)
        flags = {f: getattr(self, f) and getattr(other, f) for f in self._FLAGS}
        return type(self)(self.lattice, self.coeffs + other.coeffs, **flags)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, c):
        flags = {f: getattr(self, f) for f in self._FLAGS}
        flags["is_real"] = self.is_real and (not isinstance(c, complex) or c.imag == 0.0)
        return type(self)(self.lattice, c * self.coeffs, **flags)

    __mul__ = __rmul__

    def __neg__(self):
        return (-1.0) * self


@dataclass(frozen=True, eq=False)
class SpectralScalarField(_FieldArithmetic):
    lattice: LatticeSpec
    coeffs: np.ndarray  # complex128, shape lattice.shape
    is_real: bool = False

    _FLAGS = ("is_real",)

    @property
    def mean(self):
        return self.coeffs[self.lattice.zero_index]


@dataclass(frozen=True, eq=False)
class SpectralVectorField(_FieldArithmetic):
    lattice: LatticeSpec
    coeffs: np.ndarray  # complex128, shape (n,) + lattice.shape
    is_real: bool = False
    # by keyword only: no positional argument can set it by mistake
    divergence_free: bool = field(default=False, kw_only=True)

    _FLAGS = ("is_real", "divergence_free")

    @property
    def components(self):
        return tuple(self[j] for j in range(self.lattice.n))

    def __getitem__(self, j):
        return SpectralScalarField(self.lattice, self.coeffs[j], self.is_real)


def _check_same_kind(a, b):
    if type(a) is not type(b):
        raise TypeError(f"cannot combine a {type(a).__name__} with a {type(b).__name__}")
    if a.lattice != b.lattice:
        raise ValueError(f"lattice mismatch: {a.lattice} vs {b.lattice}")


def _nonzero_mean(lattice, coeffs, what):
    """Whether the xi = 0 entries of (k..., cube) coeffs exceed MEAN_RTOL * max |coeffs|.

    A nonzero mean also raises a NonzeroMeanWarning naming `what`, placed
    at the caller of the function that asks.
    """
    mean = np.max(np.abs(coeffs[(...,) + lattice.zero_index]))
    nonzero = bool(mean > MEAN_RTOL * np.max(np.abs(coeffs)))
    if nonzero:
        warnings.warn(
            f"{what} has a nonzero mean; projecting onto the zero-mean subspace",
            NonzeroMeanWarning,
            stacklevel=3,
        )
    return nonzero


def _without_mean(fld):
    """A copy of fld whose xi = 0 coefficients are exactly zero."""
    c = fld.coeffs.copy()
    c[(...,) + fld.lattice.zero_index] = 0.0
    return replace(fld, coeffs=c)


def _check_hermitian(coeffs, lattice):
    # one component at a time, for the maxima over the whole stack: the
    # temporaries stay one cube whatever the number of components
    parts = coeffs.reshape((-1,) + lattice.shape)
    defect = np.max([np.max(np.abs(c - np.conj(_flip(c, lattice)))) for c in parts])
    scale = max(np.max([np.max(np.abs(c)) for c in parts]), 1e-300)
    if defect > 1e-12 * scale:
        raise ValueError(f"coefficients are not Hermitian-symmetric (defect {defect:.3e})")


def scalar_field(lattice, coeffs, is_real=False, zero_mean=False):
    """Validating constructor; copies the coefficient array."""
    c = np.array(coeffs, dtype=np.complex128)
    if c.shape != lattice.shape:
        raise ValueError(f"coefficient shape {c.shape} does not match lattice {lattice.shape}")
    if is_real:
        _check_hermitian(c, lattice)
    if zero_mean:
        _nonzero_mean(lattice, c, "scalar field")
        c[(...,) + lattice.zero_index] = 0.0
    return SpectralScalarField(lattice, c, is_real)


def vector_field(lattice, coeffs, is_real=False, zero_mean=False, divergence_free=False):
    """Validating constructor for an n-component field on one lattice."""
    c = np.array(coeffs, dtype=np.complex128)
    if c.shape != (lattice.n,) + lattice.shape:
        raise ValueError(f"coefficient shape {c.shape} does not match lattice {lattice.shape}")
    if is_real:
        _check_hermitian(c, lattice)
    if zero_mean:
        _nonzero_mean(lattice, c, "vector field")
        c[(...,) + lattice.zero_index] = 0.0
    if divergence_free:
        div = _divergence(lattice, c)
        scale = TWO_PI * lattice.m * max(float(np.max(np.abs(c))), 1e-300)
        if np.max(np.abs(div)) > 1e-13 * scale:
            raise ValueError("divergence_free flag requires solenoidal coefficients; project first")
    return SpectralVectorField(lattice, c, is_real, divergence_free=divergence_free)


def zero_scalar_field(lattice):
    return SpectralScalarField(lattice, np.zeros(lattice.shape, np.complex128), True)


def zero_vector_field(lattice):
    return SpectralVectorField(
        lattice, np.zeros((lattice.n,) + lattice.shape, np.complex128), True, divergence_free=True
    )


# ---------------------------------------------------------------------------
# norms and inner products


def _squares(lattice, stack):
    """re^2 + im^2 per mode of each field of a (k, n, cube) or (k, cube) stack, summed over n."""
    vector = stack.ndim > lattice.n + 1
    return _abs2_sum(_components(lattice, stack) if vector else (stack,))


def _abs2_sum(components):
    """re^2 + im^2 of a sequence of equal-shape complex arrays, summed over it in order."""
    a = np.zeros(components[0].shape)
    for c in components:
        a += c.real * c.real
        a += c.imag * c.imag
    return a


def _weighted_norms(lattice, squares, s, mean=True):
    """(sum over modes of rho^(2s) * squares)^(1/2) of each (k..., cube) stack of squares.

    The zero mode is left out when mean is False. Each slice is summed on
    its own, in the order of a single cube, so a stack's norms equal those of
    its slices bit for bit.
    """
    a = rho2(lattice) ** s * squares
    if not mean:
        a[(...,) + lattice.zero_index] = 0.0
    return np.sqrt(np.sum(a, axis=tuple(range(-lattice.n, 0))))


def sobolev_norm(field, s):
    """Weighted-l2 norm (sum over modes of rho^(2s) |ghat|^2)^(1/2)."""
    # one cube, not a stack of one: rho^(2s) * squares then reuses the
    # temporary rho^(2s) for its product, which a (1, cube) stack would not
    squares = _squares(field.lattice, field.coeffs[None])[0]
    return float(_weighted_norms(field.lattice, squares, s))


def seminorm(field, s):
    """Same sum as sobolev_norm but excluding the zero mode.

    The zero mode is left out, not subtracted, so a field's mean never enters.
    """
    squares = _squares(field.lattice, field.coeffs[None])[0]
    return float(_weighted_norms(field.lattice, squares, s, mean=False))


def inner(a, b):
    """l2 pairing sum over modes (and components) of ahat * conj(bhat)."""
    _check_same_kind(a, b)
    return complex(np.sum(a.coeffs * np.conj(b.coeffs)))


# ---------------------------------------------------------------------------
# spectral calculus


def _components(lattice, coeffs):
    """The n components of a (k..., n, cube) stack, as a view with the component axis first."""
    lead = coeffs.ndim - lattice.n - 1
    return coeffs.transpose((lead, *range(lead), *range(lead + 1, coeffs.ndim)))


def _gradient(lattice, coeffs):
    """2*pi*i*xi_j * c for each j: a (k..., n, cube) stack from a (k..., cube) stack c."""
    lead = coeffs.shape[: coeffs.ndim - lattice.n]
    out = np.empty(lead + (lattice.n,) + lattice.shape, np.complex128)
    comps = _components(lattice, out)
    for j, xi_j in enumerate(index_grids(lattice)):
        comps[j] = TWO_PI * 1j * xi_j * coeffs
    return out


def gradient(g):
    """Componentwise 2*pi*i*xi_j*ghat; the zero mode maps to zero."""
    return SpectralVectorField(g.lattice, _gradient(g.lattice, g.coeffs), g.is_real)


def _xi_dot(lattice, coeffs):
    """xi . c at every mode of the cube, for a (k..., n, cube) stack c: a (k..., cube) stack."""
    comps = _components(lattice, coeffs)
    out = np.zeros(comps.shape[1:], np.complex128)
    for j, xi_j in enumerate(index_grids(lattice)):
        out += xi_j * comps[j]
    return out


def _divergence(lattice, coeffs):
    """2*pi*i*xi . c: a (k..., cube) stack from a (k..., n, cube) stack c."""
    return TWO_PI * 1j * _xi_dot(lattice, coeffs)


def divergence(u):
    return SpectralScalarField(u.lattice, _divergence(u.lattice, u.coeffs), u.is_real)


def leray_project(u):
    """Remove the along-xi part of every coefficient; zero mode set to 0.

    The result is divergence-free and zero-mean, and the projection never
    increases any Sobolev norm.
    """
    lat = u.lattice
    out = _project_transverse(lat, u.coeffs)
    out[(slice(None),) + lat.zero_index] = 0.0
    return SpectralVectorField(lat, out, u.is_real, divergence_free=True)


def symmetric_gradient(u):
    """Coefficients of the symmetric part of the velocity gradient.

    Returns an array of shape (n, n) + lattice.shape whose (j, b) entry at
    mode xi is pi*i*(xi_j*uhat_b + xi_b*uhat_j).
    """
    return _symmetric_gradient(u.lattice, u.coeffs)


def _symmetric_gradient(lattice, coeffs):
    """symmetric_gradient of each field of a (k..., n, cube) stack: a (k..., n, n, cube) stack."""
    n = lattice.n
    grids = index_grids(lattice)
    comps = _components(lattice, coeffs)
    out = np.empty(comps.shape[1 : comps.ndim - n] + (n, n) + lattice.shape, np.complex128)
    cube = (slice(None),) * n
    for j in range(n):
        for b in range(n):
            out[(..., j, b) + cube] = np.pi * 1j * (grids[j] * comps[b] + grids[b] * comps[j])
    return out


# ---------------------------------------------------------------------------
# grid transforms
#
# A real-flagged field is transformed with numpy's real FFTs, which keep only
# the half spectrum xi_n >= 0 of the last axis; the other half is its
# Hermitian mirror. On grids with N >= 2m+1 points that half is transformed
# one axis at a time, each axis zero-padded to N (or cropped back to the
# cube) only when its turn comes, so the 1-D lines that are all zero padding
# are never transformed (a pruned FFT; Frigo & Johnson, Proc. IEEE 93, 2005).
# The axis order is that of numpy 2.x's irfftn / rfftn, so every line that is
# transformed is one they transform, and the results are theirs bit for bit.


def dealias_grid(m):
    """Smallest 5-smooth N >= 3m+1.

    Products of two fields banded to m have band 2m; on N >= 3m+1 points
    their aliases all land outside the cube, so the retained modes are exact.
    Rounding up to a 5-smooth size keeps the FFTs fast.
    """
    N = 3 * m + 1
    while True:
        k = N
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return N
        N += 1


def _embed_index(lattice, N, lead):
    """np.ix_ index of the cube's modes, xi_j at slot xi_j mod N, in a (lead..., N^n) stack.

    The leading axes are indexed by arrays too, so an indexed stack is C-contiguous.
    """
    offsets = np.arange(-lattice.m, lattice.m + 1) % N
    return np.ix_(*map(np.arange, lead), *([offsets] * lattice.n))


def _irfftn_half(half, lattice, N, out=None):
    """Real samples on N^n points from the xi_n >= 0 half of a cube.

    half has shape (k...,) + (2m+1,)*(n-1) + (m+1,), in cube order, with any
    number of leading axes k..., each slice of which is sampled on its own.
    Cube axes 0 .. n-2 are zero-padded to N one at a time (frequencies 0..m
    to slots 0..m, -m..-1 to slots N-m..N-1) and inverse-transformed in
    place; the last goes through irfft(n=N), which zero-pads it to N//2+1
    itself (no padded copy is allocated). The samples of each slice equal numpy 2.x's
    irfftn of its fully padded half spectrum bit for bit, so a stack of
    fields costs one call per axis. The samples go to out when it is given.
    Requires N >= 2m+1.
    """
    m = lattice.m
    a = half
    for axis in range(half.ndim - lattice.n, half.ndim - 1):
        lead = (slice(None),) * axis
        spec = np.zeros(a.shape[:axis] + (N,) + a.shape[axis + 1 :], np.complex128)
        spec[lead + (slice(0, m + 1),)] = a[lead + (slice(m, None),)]
        spec[lead + (slice(N - m, N),)] = a[lead + (slice(0, m),)]
        a = np.fft.ifft(spec, axis=axis, norm="forward", out=spec)
    return np.fft.irfft(a, n=N, axis=-1, norm="forward", out=out)


def _rfftn_half(samples, lattice):
    """The xi_n >= 0 half of the cube from real samples on N^n points.

    samples has shape (k...,) + (N,)*n, with any number of leading axes
    k..., each slice of which is transformed on its own. The mirror of
    _irfftn_half: rfft the last axis and keep frequencies 0..m, then, for
    the other lattice axes from last to first (numpy 2.x rfftn order), fft
    each one in place and keep slots N-m..N-1 followed by 0..m, which is
    cube order. Up to that point the result equals the cube's part of numpy 2.x's rfftn
    bit for bit. Last, the xi_n = 0 plane is averaged with its conjugate
    mirror, so the plane of the returned half is exactly Hermitian.
    Requires N >= 2m+1.
    """
    m = lattice.m
    N = samples.shape[-1]
    a = np.fft.rfft(samples, axis=-1, norm="forward")[..., : m + 1]
    for axis in range(samples.ndim - 2, samples.ndim - lattice.n - 1, -1):
        spec = np.fft.fft(a, axis=axis, norm="forward", out=a)
        lead = (slice(None),) * axis
        a = np.concatenate(
            (spec[lead + (slice(N - m, N),)], spec[lead + (slice(0, m + 1),)]), axis=axis
        )
    plane = a[..., :1]  # flipping its length-1 last axis changes nothing
    a[..., :1] = 0.5 * (plane + np.conj(_flip(plane, lattice)))
    return a


def _aliases(lattice, N):
    """Whether a grid of N points per axis aliases the band m of lattice (N < 2m+1).

    If it does, an AliasingWarning is raised, placed at the caller of the
    function that asks.
    """
    aliased = N < 2 * lattice.m + 1
    if aliased:
        warnings.warn(
            f"grid of {N} points per axis aliases a band limit of m={lattice.m}",
            AliasingWarning,
            stacklevel=3,
        )
    return aliased


def grid_transform(field, N):
    """Evaluate the truncated series on the uniform grid x = k/N.

    Exact sampling of the stored trigonometric polynomial for any N >= 2;
    when N < 2m+1 distinct modes collapse onto shared grid frequencies and
    an AliasingWarning is issued. Real-flagged fields return real samples:
    with N >= 2m+1 their xi_n >= 0 half goes through the pruned inverse real
    FFT (`_irfftn_half`), which skips every line that is all zero padding
    and follows numpy 2.x's irfftn axis order, so the samples are irfftn's
    bit for bit. The whole coefficient stack is transformed in one call,
    a vector field into one (n, N, ..., N) array.
    """
    lat = field.lattice
    m = lat.m
    aliased = _aliases(lat, N)
    if field.is_real and not aliased:
        return _irfftn_half(field.coeffs[..., m:], lat, N)
    lead = field.coeffs.shape[: -lat.n]
    ix = _embed_index(lat, N, lead)
    spec = np.zeros(lead + (N,) * lat.n, np.complex128)
    if aliased:  # modes that share a grid frequency add up
        np.add.at(spec, ix, field.coeffs)
    else:
        spec[ix] = field.coeffs
    samples = np.fft.ifftn(spec, axes=tuple(range(-lat.n, 0)), norm="forward")
    return samples.real if field.is_real else samples


def _hermitian_from_upper(c, lattice):
    """Fill xi_n < 0 of a (k..., cube) stack in place, by conjugation.

    Each xi_n < 0 entry takes the conjugate of its mirror in xi_n > 0; the
    xi_n >= 0 half is read, never written.
    """
    m = lattice.m
    np.conjugate(_flip(c[..., m + 1 :], lattice), out=c[..., :m])


def sampling_transform(samples, lattice, is_real=None, zero_mean=False):
    """Recover cube coefficients from uniform grid samples.

    The inverse of grid_transform: exact whenever the grid has N >= 2m+1
    points per axis and the sampled function is band-limited to the cube.
    Real samples on such a grid go through the pruned forward real FFT
    (`_rfftn_half`, only the lines that reach the cube), which follows
    numpy 2.x's rfftn axis order and matches it bit for bit; the half of
    the cube that it omits is filled by Hermitian symmetry. The whole
    sample stack is transformed in one call.
    """
    samples = np.asarray(samples)
    vector = samples.ndim == lattice.n + 1
    if vector and samples.shape[0] != lattice.n:
        raise ValueError(f"expected {lattice.n} components, got {samples.shape[0]}")
    if not vector and samples.ndim != lattice.n:
        raise ValueError(f"sample array rank {samples.ndim} does not fit lattice n={lattice.n}")
    N = samples.shape[-1]
    if any(sz != N for sz in samples.shape[-lattice.n:]):
        raise ValueError("grid must have the same number of points on every axis")
    if is_real is None:
        is_real = not np.iscomplexobj(samples)
    aliased = _aliases(lattice, N)
    if is_real and not aliased and not np.iscomplexobj(samples):
        coeffs = np.empty(samples.shape[: -lattice.n] + lattice.shape, np.complex128)
        coeffs[..., lattice.m :] = _rfftn_half(samples, lattice)
        _hermitian_from_upper(coeffs, lattice)
    else:
        ix = _embed_index(lattice, N, samples.shape[: -lattice.n])
        coeffs = np.fft.fftn(samples, axes=tuple(range(-lattice.n, 0)), norm="forward")[ix]
        if is_real:
            coeffs = 0.5 * (coeffs + np.conj(_flip(coeffs, lattice)))
    if zero_mean:
        _nonzero_mean(lattice, coeffs, "sampled field")
        coeffs[(...,) + lattice.zero_index] = 0.0
    cls = SpectralVectorField if vector else SpectralScalarField
    return cls(lattice, coeffs, is_real)


# ---------------------------------------------------------------------------
# the Hermitian half: flat index k of a cube holds the negative of the mode
# at size-1-k, so the H = (size - 1) / 2 modes before xi = 0 fix a real field.
# The Stokes stacks hold this flat half, the real FFTs the upper half
# xi_n >= 0; `_upper_from_half` and `_half_from_upper` map a real field
# between the two row by row along xi_n, through no cube.


def _split(lattice, coeffs, out, lo=0):
    """Write (k..., cube) coefficients into out, a (2, B, k...) or (1, B, k...) pair of stacks.

    out[0] takes the modes lo .. lo+B-1 of the H before xi = 0 (all of
    them when B = H) and out[1] the conjugates of their negatives, in the
    same order; the two are equal for a real field. A one-member out takes
    the half only. The mode axis moves to the front, ahead of any leading
    (case, component) axes.
    """
    last = lattice.size - 1  # flat index of the negative of mode 0
    hi = lo + out.shape[1]
    flat = coeffs.reshape(coeffs.shape[: coeffs.ndim - lattice.n] + (-1,))
    front = (flat.ndim - 1, *range(flat.ndim - 1))
    out[0] = flat[..., lo:hi].transpose(front)
    if len(out) > 1:
        np.conjugate(flat[..., last - lo : last - hi : -1].transpose(front), out=out[1])
    return out


def _half_modes(lattice, lo, hi):
    """Modes lo .. hi-1 of the Hermitian half (canonical order) as a (hi - lo, n) float stack."""
    index = np.unravel_index(np.arange(lo, hi), lattice.shape)
    return (np.stack(index, axis=-1) - lattice.m).astype(float)


def _join(lattice, half, mirror):
    """Inverse of _split: two (H, k...) stacks back to canonical order.

    Returns (k..., cube) coefficients whose zero mode is exactly zero.
    """
    H = lattice.size // 2
    flat = np.empty(half.shape[1:] + (2 * H + 1,), half.dtype)
    flat[..., H] = 0.0
    _join_rows(flat, half, mirror)
    return flat.reshape(half.shape[1:] + lattice.shape)


def _join_rows(flat, half, mirror, lo=0):
    """Write (B, k...) half and mirror stacks of modes lo .. lo+B-1 into flat.

    flat is a (k..., 2H + 1) canonical cube, or the (k..., 2H) values at its
    nonzero modes in the same order; the rows land where `_join` puts them,
    so writing consecutive blocks joins a whole half.
    """
    last = flat.shape[-1] - 1
    hi = lo + len(half)
    back = (*range(1, half.ndim), 0)
    flat[..., lo:hi] = half.transpose(back)
    np.conjugate(mirror.transpose(back), out=flat[..., last - lo : last - hi : -1])


def _upper_from_half(lattice, half):
    """The xi_n >= 0 half of a real field's cube from its (H, k...) flat half.

    Returns a (k...,) + (2m+1,)*(n-1) + (m+1,) stack equal to
    `_join(lattice, half, half)[..., m:]` bit for bit: the entries before
    xi = 0 are copied, the others are the conjugates of their negatives and
    xi = 0 is an exact zero.
    """
    m, w = lattice.m, 2 * lattice.m + 1
    rows = lattice.size // w
    flat = np.moveaxis(half, 0, -1)  # (k..., H): each row along xi_n is a slice
    r0, lead = rows // 2, flat.shape[:-1]
    upper = np.empty(lead + (rows, m + 1), np.complex128)
    before = flat[..., : r0 * w].reshape(lead + (r0, w))
    upper[..., :r0, :] = before[..., m:]
    upper[..., r0, 0] = 0.0
    np.conjugate(flat[..., r0 * w :][..., ::-1], out=upper[..., r0, 1:])
    np.conjugate(before[..., ::-1, m::-1], out=upper[..., r0 + 1 :, :])
    return upper.reshape(lead + lattice.shape[:-1] + (m + 1,))


def _half_from_upper(lattice, upper):
    """The (H, k...) flat half of a real field from the xi_n >= 0 half of its cube.

    The inverse of `_upper_from_half`, equal bit for bit to `_split` of the
    cube that `_hermitian_from_upper` fills from upper: the entries with
    xi_n < 0 are the conjugates of their negatives, read from upper. The
    result is a view of a (k..., H) array.
    """
    m, w = lattice.m, 2 * lattice.m + 1
    rows = lattice.size // w
    r0, lead = rows // 2, upper.shape[: upper.ndim - lattice.n]
    up = upper.reshape(lead + (rows, m + 1))
    flat = np.empty(lead + (lattice.size // 2,), np.complex128)
    before = flat[..., : r0 * w].reshape(lead + (r0, w))
    before[..., m:] = up[..., :r0, :]
    np.conjugate(up[..., :r0:-1, m:0:-1], out=before[..., :m])
    np.conjugate(up[..., r0, m:0:-1], out=flat[..., r0 * w :])
    return np.moveaxis(flat, -1, 0)


def _hermitianize_half(lattice, coeffs):
    """Keep the draws after xi = 0 in C order, define the rest by conjugation.

    The modes before xi = 0 take the conjugates of the reversed modes after
    it (the reversal of `_split` and `_join`, in one copy); xi = 0 keeps its
    real part. coeffs may carry leading axes (k...,) + cube; each slice is
    treated on its own.
    """
    H = lattice.size // 2
    flat = coeffs.reshape(coeffs.shape[: coeffs.ndim - lattice.n] + (-1,))
    out = np.empty_like(flat)
    out[..., H:] = flat[..., H:]
    np.conjugate(flat[..., :H:-1], out=out[..., :H])
    out[..., H] = flat[..., H].real
    return out.reshape(coeffs.shape)


# ---------------------------------------------------------------------------
# random fields and resizing


def random_scalar_field(seed, lattice, decay=3.0, zero_mean=True):
    """Seeded random real field with |ghat(xi)| = rho(xi)^(-decay).

    One seed of `_random_scalars`, the stacked draw of the verification suites.
    """
    c = _random_scalars([seed], lattice, decay, zero_mean)[0]
    return SpectralScalarField(lattice, c, True)


def _random_scalars(seeds, lattice, decay=3.0, zero_mean=True):
    """(k, cube) coefficients of random_scalar_field for each of k seeds.

    Each seed's generator draws its phases on its own; the magnitudes,
    exponentials and Hermitian fill then run on the whole stack, so slice i
    is random_scalar_field(seeds[i], ...) bit for bit.
    """
    if decay < 0:
        raise ValueError(f"decay exponent must be >= 0, got {decay}")
    phases = np.empty((len(seeds),) + lattice.shape)
    for i, seed in enumerate(seeds):
        phases[i] = np.random.default_rng(seed).uniform(0.0, 1.0, lattice.shape)
    c = rho2(lattice) ** (-decay / 2.0) * np.exp(TWO_PI * 1j * phases)
    c = _hermitianize_half(lattice, c)
    if zero_mean:
        c[(...,) + lattice.zero_index] = 0.0
    return c


def random_vector_field(seed, lattice, decay=3.0, zero_mean=True, divergence_free=False):
    """Seeded random real vector field with per-mode magnitude rho^(-decay).

    With divergence_free the per-mode direction is drawn transverse to xi and
    renormalized, so the magnitude law survives the solenoidal constraint.
    One seed of `_random_vectors`, the stacked draw of the verification suites.
    """
    c = _random_vectors([seed], lattice, decay, zero_mean, divergence_free)[0]
    return SpectralVectorField(lattice, c, True, divergence_free=divergence_free)


def _random_vectors(seeds, lattice, decay=3.0, zero_mean=True, divergence_free=False):
    """(k, n, cube) coefficients of random_vector_field for each of k seeds.

    Each seed's generator draws its complex normals on its own; the
    projection, normalisation and Hermitian fill then run on the whole
    stack, entry by entry, so slice i is random_vector_field(seeds[i], ...)
    bit for bit.
    """
    if decay < 0:
        raise ValueError(f"decay exponent must be >= 0, got {decay}")
    n = lattice.n
    shape = (n,) + lattice.shape
    z = np.empty((len(seeds),) + shape, np.complex128)
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        z.real[i] = rng.standard_normal(shape)
        z.imag[i] = rng.standard_normal(shape)
    if divergence_free:
        z = _project_transverse(lattice, z)
    norm = np.sqrt(np.sum(np.abs(z) ** 2, axis=1))
    amp = rho2(lattice) ** (-decay / 2.0)
    coeffs = _hermitianize_half(lattice, amp * z / norm[:, None])
    if zero_mean or divergence_free:
        coeffs[(...,) + lattice.zero_index] = 0.0
    return coeffs


def _project_transverse(lattice, coeffs):
    """A (k..., n, cube) stack minus its along-xi part at every mode; xi = 0 is left as is."""
    xdotc = _xi_dot(lattice, coeffs)
    a2 = mode_abs2(lattice).copy()
    a2[lattice.zero_index] = 1.0  # keep the division defined at xi = 0
    out = np.empty_like(coeffs)
    comps, out_comps = _components(lattice, coeffs), _components(lattice, out)
    for j, xi_j in enumerate(index_grids(lattice)):
        out_comps[j] = comps[j] - xi_j * xdotc / a2
    return out


def ball_mask(lattice, radius):
    """Boolean cube marking the modes with |xi| <= radius."""
    return mode_abs2(lattice) <= float(radius) ** 2


def ball_filter(field, radius):
    """Zero every coefficient outside the closed mode ball |xi| <= radius.

    The cube storage is unchanged; this is the ball-truncation view of a
    cube-truncated field. All flags survive (the mask is symmetric under
    index negation and always keeps the zero mode).
    """
    return replace(field, coeffs=field.coeffs * ball_mask(field.lattice, radius))


def _center_slices(big, small):
    lo = big.m - small.m
    hi = lo + 2 * small.m + 1
    return (slice(lo, hi),) * big.n


def embed_field(field, m):
    """Zero-pad a field onto the larger cube with truncation bound m."""
    lat = field.lattice
    if m < lat.m:
        raise ValueError(f"embed target m={m} is smaller than source m={lat.m}")
    big = LatticeSpec(lat.n, m)
    out = np.zeros(field.coeffs.shape[: -lat.n] + big.shape, np.complex128)
    out[(...,) + _center_slices(big, lat)] = field.coeffs
    return replace(field, lattice=big, coeffs=out)


def restrict_field(field, m):
    """Crop a field to the smaller cube with truncation bound m."""
    lat = field.lattice
    if m > lat.m:
        raise ValueError(f"restrict target m={m} exceeds source m={lat.m}")
    small = LatticeSpec(lat.n, m)
    coeffs = field.coeffs[(...,) + _center_slices(lat, small)].copy()
    return replace(field, lattice=small, coeffs=coeffs)
