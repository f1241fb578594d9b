"""Manufactured problems and property-check suites.

Everything here turns an analytic identity or inequality into a
machine-checkable statement on band-limited fields: trilinear forms are
evaluated by alias-free quadrature, manufactured forcings are computed by
applying the forward operators to a chosen solution, and each named suite
sweeps a seeded ensemble and reports margins.

Every sampled suite runs one stacked pass per block of cases (`_blocked`):
a block's fields or modes are drawn as one stack (`spectral._random_vectors`,
`_draw_modes`), and its ratios (`_gradient_norm_brackets`, `_korn_ratios`,
`navier_stokes._bound_ratios`), advections, trilinear samples or per-mode
Stokes solves (`stokes._solve_modes`) each run as one call on the stack.
Every case's margin equals bit for bit the one its own calls would give:
the one-field ratios and `solve_mode` are one-row calls of the same
kernels, and the per-case arithmetic runs on floats. A block holds at most
_BLOCK_BYTES of stacked arrays, so no suite's working set grows with draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .navier_stokes import _advection, _bound_ratios, advection, advection_bruteforce, picard_solve
from .spectral import (
    SpectralVectorField,
    _divergence,
    _gradient,
    _half_modes,
    _irfftn_half,
    _join,
    _random_scalars,
    _random_vectors,
    _split,
    _squares,
    _symmetric_gradient,
    _weighted_norms,
    dealias_grid,
    divergence,
    embed_field,
    make_lattice,
    mode_abs2,
    random_scalar_field,
    random_vector_field,
    rho2,
    scalar_field,
    sobolev_norm,
    vector_field,
)
from .stokes import (
    _global_slack,
    _mode_slacks,
    _mode_symbols,
    _solve_modes,
    estimate_constants,
    solve_isotropic_mode,
)
from .viscosity import (
    _apply_blocks,
    make_isotropic,
    make_tensor,
    restricted_form_matrix,
    stokes_operator,
    symmetrize,
)

__all__ = [
    "ManufacturedProblem",
    "manufacture",
    "advection_identity_defects",
    "korn_ratio",
    "gradient_norm_bracket",
    "random_elliptic_tensor",
    "SuiteResult",
    "HarnessReport",
    "run_suite",
    "suite_names",
]


@dataclass(frozen=True)
class ManufacturedProblem:
    """A solution pair with the forcing that reproduces it exactly."""

    u_star: object
    p_star: object
    tensor: object
    f: object
    g: object
    nonlinear: bool


def manufacture(u_star, p_star, tensor, include_nonlinear=False):
    """Derive forcing and divergence data from a chosen solution pair.

    Linear problems keep the input lattice. Nonlinear problems require a
    solenoidal velocity and move everything to the doubled cube so the
    quadratic term is represented without truncation.
    """
    if not (u_star.is_real and p_star.is_real):
        raise ValueError("manufactured solutions must be real fields")
    if u_star.lattice != p_star.lattice:
        raise ValueError("velocity and pressure must share a lattice")
    if include_nonlinear:
        if not u_star.divergence_free:
            raise ValueError("nonlinear manufacture requires a divergence-free velocity")
        u_star = embed_field(u_star, 2 * u_star.lattice.m)
        p_star = embed_field(p_star, 2 * p_star.lattice.m)
    g = divergence(u_star)
    f = -1.0 * stokes_operator(tensor, u_star, p_star)
    if include_nonlinear:
        f = f + advection(u_star)
    return ManufacturedProblem(u_star, p_star, tensor, f, g, include_nonlinear)


def _real_samples(lattice, N, *stacks):
    """Grid samples of real fields' (k..., cube) coefficient stacks, in one transform.

    The stacks are flattened to rows and their xi_n >= 0 halves go through
    one `_irfftn_half` call; row i of the (K, N...) result equals
    grid_transform's samples of row i bit for bit (N >= 2m+1).
    """
    m = lattice.m
    half = np.concatenate([c.reshape((-1,) + lattice.shape)[..., m:] for c in stacks])
    return _irfftn_half(half, lattice, N)


def _trilinear_samples(s1, grad2, s3):
    """((v1 . grad) v2, v3) from the grid samples of v1, grad v2 and v3.

    s1[j], s3[b] and grad2[b][j] sample the components v1_j, v3_b and
    d_j v2_b, each with any leading case axes ahead of its n grid axes; the
    result has those case axes. Each case's grid is summed on its own, in
    the order of a single grid.
    """
    n = len(s1)
    total = 0.0
    for b in range(n):
        directional = np.zeros_like(s1[0])
        for j in range(n):
            directional += s1[j] * grad2[b][j]
        total = total + np.sum(directional * s3[b], axis=tuple(range(-n, 0)))
    return total / float(s1.shape[-1] ** n)


def advection_identity_defects(v1, v2, v3):
    """Defects of the integration-by-parts identities for the advection form.

    T(v1,v2,v3) = ((v1 . grad) v2, v3) is the advection pairing, taken by
    quadrature on the 5-smooth `dealias_grid(m)` >= 3m+1, which integrates
    triple products of cube-limited fields exactly. Returns (general_defect,
    energy_value): the first is T(v1,v2,v3) + T(v1,v3,v2) + ((div v1) v3,
    v2) and vanishes for any real fields; the second is T(v1,v2,v2), which
    vanishes when v1 is solenoidal. The three fields must be real and share
    a lattice. The 3n field components, the 2n^2 components of grad v2 and
    grad v3 and div v1 are stacked and sampled by one transform, whose rows
    the three forms share. One triple of `_identity_defects`, the stacked
    kernel of the trilinear suite.
    """
    if not (v1.is_real and v2.is_real and v3.is_real):
        raise ValueError("trilinear forms are taken over real fields")
    lat = v1.lattice
    if v2.lattice != lat or v3.lattice != lat:
        raise ValueError("all three fields must share a lattice")
    stacks = (v.coeffs[None] for v in (v1, v2, v3))
    defects = _identity_defects(lat, dealias_grid(lat.m), *stacks)
    general, energy = (float(d[0]) for d in defects)
    return general, energy


def _identity_defects(lattice, N, c1, c2, c3):
    """advection_identity_defects of each triple of three (k, n, cube) stacks of real fields.

    The rows of all k triples go through one `_real_samples` transform, each
    row on its own, and the forms are formed on the whole stack, each
    triple's grid summed on its own, so triple i gives
    advection_identity_defects' pair bit for bit. Returns the (k,) arrays of
    general defects and energy values.
    """
    n, k = lattice.n, len(c1)
    stacks = (c1, c2, c3, _gradient(lattice, c2), _gradient(lattice, c3), _divergence(lattice, c1))
    samples = _real_samples(lattice, N, *stacks)
    grid = samples.shape[1:]
    # component axes first, the case axis after them
    s1, s2, s3 = samples[: 3 * k * n].reshape((3, k, n) + grid).swapaxes(1, 2)
    grad2, grad3 = np.moveaxis(samples[3 * k * n : -k].reshape((2, k, n, n) + grid), 1, 3)
    div1 = samples[-k:]
    correction = np.sum(div1 * np.sum(s2 * s3, axis=0), axis=tuple(range(-n, 0))) / float(N**n)
    general = _trilinear_samples(s1, grad2, s3) + _trilinear_samples(s1, grad3, s2) + correction
    return general, _trilinear_samples(s1, grad2, s2)


def korn_ratio(v):
    """|grad v|^2 / |E(v)|^2 in the mean-square norm; at most 2.

    Shear flows attain the bound, potential flows sit at 1. Returns nan for
    the zero field. One row of `_korn_ratios`.
    """
    return _korn_ratios(v.lattice, v.coeffs[None])[0]


def _korn_ratios(lattice, stack):
    """korn_ratio of each field of a (k, n, cube) stack, as k floats.

    |E|^2 of a field is summed over its (n, n, cube) symmetric gradient as
    one contiguous row, and the gradient norms of its n components are
    weighted sums of the (k, n, n, cube) gradient stack, each slice summed
    on its own; the ratios are then formed on floats, so ratio i has the
    bits of korn_ratio of field i, whatever else the stack holds.
    """
    k = len(stack)
    squares = np.abs(_symmetric_gradient(lattice, stack)) ** 2
    denoms = np.sum(squares.reshape(k, -1), axis=1).tolist()
    del squares  # a block holds one (k, n, n, cube) stack at a time
    grads = _weighted_norms(lattice, _squares(lattice, _gradient(lattice, stack)), 0.0).tolist()
    return [
        float("nan") if denom == 0.0 else sum(a**2 for a in row) / denom
        for row, denom in zip(grads, denoms)
    ]


def gradient_norm_bracket(fld):
    """Ratio |grad .|^2 / |.|_{H^1}^2 for a zero-mean field.

    Lands in [2*pi^2, 4*pi^2]; |xi| = 1 modes attain the lower end, the
    upper end is approached as the spectrum concentrates at large |xi|.
    Returns nan for the zero field. One row of `_gradient_norm_brackets`.
    """
    return _gradient_norm_brackets(fld.lattice, fld.coeffs[None])[0]


def _gradient_norm_brackets(lattice, stack):
    """gradient_norm_bracket of each field of a (k, cube) or (k, n, cube) stack, as k floats.

    Both seminorms are weighted sums on the whole stack and on its gradient
    stack, each slice summed on its own, and the ratios are formed on
    floats, so ratio i has the bits of gradient_norm_bracket of field i,
    whatever else the stack holds.
    """
    k = len(stack)
    h1 = [a**2 for a in _weighted_norms(lattice, _squares(lattice, stack), 1.0, False).tolist()]
    grads = _weighted_norms(lattice, _squares(lattice, _gradient(lattice, stack)), 0.0, False)
    return [
        float("nan") if h == 0.0 else sum(a**2 for a in row) / h
        for row, h in zip(grads.reshape(k, -1).tolist(), h1)
    ]


def random_elliptic_tensor(seed, n):
    """Seeded anisotropic tensor whose smallest restricted eigenvalue is 0.5.

    Symmetrizes a random perturbation of entry scale 0.3 and shifts it with
    the trace-free identity part of an isotropic tensor until the smallest
    restricted eigenvalue is 0.5, so C_A = 2.
    """
    rng = np.random.default_rng(seed)
    raw = symmetrize(n, 0.3 * rng.standard_normal((n,) * 4))
    lam_min = float(np.linalg.eigvalsh(restricted_form_matrix(raw))[0])
    # the mu-part contributes 2*mu to every restricted eigenvalue
    mu_shift = (0.5 - lam_min) / 2.0
    iso = make_isotropic(0.0, mu_shift, n)
    return make_tensor(n, raw.entries + iso.entries)


# ---------------------------------------------------------------------------
# suites


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: int
    worst_margin: float
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return self.failures == 0


@dataclass
class HarnessReport:
    results: list

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def flat_items(self):
        items = []
        for r in self.results:
            items.append((f"{r.name}.cases", r.cases))
            items.append((f"{r.name}.failures", r.failures))
            items.append((f"{r.name}.worst_margin", r.worst_margin))
        items.append(("passed", int(self.passed)))
        return items


def _map_cases(fn, args_list):
    """Run independent cases, or blocks of cases, in order, in the calling thread.

    A module-level function because tsbench/tracer.py wraps it by name: its
    span is one suite's case loop, over blocks of cases in the stacked suites
    (see `_blocked`) and over single cases in navier-stokes.
    """
    return [fn(a) for a in args_list]


# Bytes of the main stacked arrays of one block of cases, as each suite
# counts them per case: the draw, the grid samples, or the symbols and data
# of every mode. A step's temporaries take a few times as much, so at n=2,
# m=8 a block's working set stays near 1 MB whatever the number of draws
# (as stokes._BLOCK bounds the inverse).
_BLOCK_BYTES = 1 << 18


def _block_size(case_bytes):
    """Cases per block for cases whose stacked arrays take case_bytes each."""
    return max(1, _BLOCK_BYTES // case_bytes)


def _blocked(fn, cases, case_bytes):
    """Per-case results of cases 0 .. cases-1, fn taking a range of them at a time."""
    size = _block_size(case_bytes)
    blocks = [range(lo, min(lo + size, cases)) for lo in range(0, cases, size)]
    return [r for block in _map_cases(fn, blocks) for r in block]


def _tally(name, margins):
    """A suite's result from its per-case margins; a case fails below 0 or at nan."""
    failures = int(np.sum(~(np.array(margins) >= 0)))
    return SuiteResult(name, len(margins), failures, float(np.min(margins)))


def _suite_rho_bound(seed, m, n, draws):
    lat = make_lattice(n, m)
    a2 = mode_abs2(lat)
    r2 = rho2(lat)
    nz = a2 > 0
    lower = float(np.min(a2[nz] - 0.5 * r2[nz]))
    upper = float(np.min(r2[nz] - a2[nz]))
    margin = min(lower, upper)
    return SuiteResult("rho-bound", int(np.sum(nz)), int(margin < 0), margin)


def _suite_norm_equivalence(seed, m, n, draws):
    lat = make_lattice(n, m)

    def block(cases):
        stack = _random_vectors([seed + i for i in cases], lat, decay=3.0)
        ratios = _gradient_norm_brackets(lat, stack)
        return [min(ratio - 2 * np.pi**2, 4 * np.pi**2 - ratio) for ratio in ratios]

    # the (k, n, n, cube) gradient stack is the largest
    margins = _blocked(block, draws, 16 * n * n * lat.size)
    # unit-mode tightness
    tight = np.zeros(lat.shape, np.complex128)
    tight[tuple(np.array(lat.zero_index) + np.eye(n, dtype=int)[0])] = 1.0
    ratio = gradient_norm_bracket(scalar_field(lat, tight))
    margins.append(1e-12 - abs(ratio - 2 * np.pi**2))
    return _tally("norm-equivalence", margins)


def _suite_korn(seed, m, n, draws):
    lat = make_lattice(n, m)

    def block(cases):
        stack = _random_vectors([seed + i for i in cases], lat, decay=3.0)
        return [2.0 + 1e-12 - ratio for ratio in _korn_ratios(lat, stack)]

    # the (k, n, n, cube) symmetric gradient and gradient stacks are the largest
    margins = _blocked(block, draws, 16 * n * n * lat.size)
    # shear attains the bound
    shear = np.zeros((n,) + lat.shape, np.complex128)
    pos = list(lat.zero_index)
    pos[1] += 1
    shear[tuple([0] + pos)] = 0.5 / 1j
    pos[1] -= 2
    shear[tuple([0] + pos)] = -0.5 / 1j
    ratio = korn_ratio(vector_field(lat, shear, is_real=True))
    margins.append(1e-9 - abs(ratio - 2.0))
    return _tally("korn", margins)


def _suite_trilinear(seed, m, n, draws):
    lat = make_lattice(n, m)
    N = dealias_grid(m)

    def block(cases):
        v1 = _random_vectors([seed + 3 * i for i in cases], lat, decay=3.0, divergence_free=True)
        v2 = _random_vectors([seed + 3 * i + 1 for i in cases], lat, decay=3.0)
        v3 = _random_vectors([seed + 3 * i + 2 for i in cases], lat, decay=3.0)
        h1 = [_weighted_norms(lat, _squares(lat, v), 1.0).tolist() for v in (v1, v2, v3)]
        defects = [d.tolist() for d in _identity_defects(lat, N, v1, v2, v3)]
        return [
            1e-11 - max(abs(general), abs(energy)) / (a * b * (c + 1.0))
            for general, energy, a, b, c in zip(*defects, *h1)
        ]

    # the samples of 3n fields, 2n^2 gradients and one divergence per case
    margins = _blocked(block, draws, 8 * (3 * n + 2 * n * n + 1) * N**n)
    return _tally("trilinear", margins)


def _draw_modes(rng, k, m, n):
    """(xis, fhat, ghat) of k modes in [-m, m]^n: per mode n scalar integers, then 2n+2 normals.

    The normals are Re fhat, Im fhat, Re ghat, Im ghat; a zero mode moves to xi_1 = 1.
    """
    xis = np.empty((k, n))
    z = np.empty((k, 2 * n + 2))
    for b in range(k):
        for j in range(n):
            xis[b, j] = rng.integers(-m, m + 1)
        z[b] = rng.standard_normal(2 * n + 2)
    xis[~xis.any(axis=1), 0] = 1
    return xis, z[:, :n] + 1j * z[:, n : 2 * n], z[:, 2 * n] + 1j * z[:, 2 * n + 1]


def _suite_mode_estimates(seed, m, n, draws):
    # one case per tensor, 50 random modes each, drawn in case order from
    # the suite's one stream; a block's cases solve and check in one pass
    rng = np.random.default_rng(seed)
    modes = 50

    def block(cases):
        k = len(cases)
        drawn = _draw_modes(rng, k * modes, m, n)
        xis, f, g = (a.reshape((k, modes) + a.shape[1:]) for a in drawn)
        tensors = [random_elliptic_tensor(seed + 1000 + i, n) for i in cases]
        R = np.stack([_mode_symbols(t, xi) for t, xi in zip(tensors, xis)])
        _, _, x, y = _solve_modes(R, xis, f, g)
        constants = [estimate_constants(t) for t in tensors]
        per_case = {key: np.array([[c[key]] for c in constants]) for key in constants[0]}
        slack_u, slack_p, _, _ = _mode_slacks(per_case, xis, x, y)
        return (np.minimum(slack_u.min(axis=1), slack_p.min(axis=1)) + 1e-12).tolist()

    # the symbols, their inverses and the data of every mode of a case
    margins = _blocked(block, draws, 16 * (n + 1) ** 2 * modes)
    return _tally("mode-estimates", margins)


def _suite_isotropic(seed, m, n, draws):
    rng = np.random.default_rng(seed)

    def block(cases):
        # the block's draws come from the suite's one stream, in case order;
        # then one solve of all their symbols against the closed form
        params, modes = [], []
        for _ in cases:
            params.append((float(rng.uniform(-5.0, 5.0)), float(rng.uniform(0.1, 5.0))))
            modes.append(_draw_modes(rng, 1, m, n))
        xis, f, g = (np.concatenate(a) for a in zip(*modes))
        tensors = [make_isotropic(lam, mu, n) for lam, mu in params]
        R = np.concatenate([_mode_symbols(t, xi[None]) for t, xi in zip(tensors, xis)])
        uhat, phat, _, _ = _solve_modes(R, xis, f, g)
        margins = []
        for (lam, mu), xi, fhat, ghat, u, p in zip(params, xis, f, g.tolist(), uhat, phat.tolist()):
            uref, pref = solve_isotropic_mode(lam, mu, xi, fhat, ghat)
            scale = max(np.max(np.abs(uref)), abs(pref), 1.0)
            err = max(float(np.max(np.abs(u - uref))), abs(p - pref)) / scale
            margins.append(1e-12 - err)
        return margins

    # a case's symbol, inverse and data take a few hundred bytes, not much
    # more than the margin every case keeps; blocks of 16 cases solve as fast
    # as larger ones (the draws and the closed forms dominate) and stay small
    # beside the run's fixed working set, so it does not grow with draws
    margins = _blocked(block, draws, _BLOCK_BYTES // 16)
    return _tally("isotropic", margins)


def _suite_stokes_roundtrip(seed, m, n, draws):
    lat = make_lattice(n, m)
    iso = make_isotropic(0.0, 1.0, n)  # one object: its ellipticity constant is cached
    H = lat.size // 2
    xis = _half_modes(lat, 0, H)

    def block(cases):
        # manufacture and solve every case of the block at once, on the
        # Hermitian half with the mode axis first (row (h, c) is mode h of
        # case c); the data is exactly Hermitian, so the half has every modulus
        k = len(cases)
        tensors = [iso if i % 2 == 0 else random_elliptic_tensor(seed + 500 + i, n) for i in cases]
        u_star = _random_vectors([seed + 2 * i for i in cases], lat, decay=3.0)
        p_star = _random_scalars([seed + 2 * i + 1 for i in cases], lat, decay=3.0)
        R = np.stack([_mode_symbols(t, xis) for t in tensors], axis=1)
        # f = -(viscous term of u* - grad p*) and g = div u*, as `manufacture`
        # forms them; the velocity blocks are made contiguous, the layout in
        # which `apply_viscosity` multiplies them
        uk = _split(lat, u_star, np.empty((1, H, k, n), np.complex128))
        viscous = _apply_blocks(np.ascontiguousarray(R[..., :n, :n]), uk)[0]
        f = -1.0 * (_join(lat, viscous, viscous) + -1.0 * _gradient(lat, p_star))
        g = _divergence(lat, u_star)
        fk = _split(lat, f, np.empty((1, H, k, n), np.complex128))[0]
        gk = _split(lat, g, np.empty((1, H, k), np.complex128))[0]
        uhat, phat, x, y = _solve_modes(R, xis[:, None], fk, gk)
        constants = [estimate_constants(t) for t in tensors]
        per_case = {key: np.array([c[key] for c in constants]) for key in constants[0]}
        slacks = _mode_slacks(per_case, xis[:, None], x, y)[:2]
        min_u, min_p = (a.min(axis=0).tolist() for a in slacks)
        u = _join(lat, uhat, uhat)
        p = _join(lat, phat, phat)

        def norms(stack, s):
            return _weighted_norms(lat, _squares(lat, stack), s).tolist()

        err_u, err_p = norms(u + -1.0 * u_star, 1.0), norms(p + -1.0 * p_star, 0.0)
        ref_u, ref_p = norms(u_star, 1.0), norms(p_star, 0.0)
        # |u|_s, |p|_{s-1}, |f|_{s-2} and |g|_{s-1}, as global_estimate_slack takes them
        squares = [(_squares(lat, a), shift) for a, shift in ((u, 0), (p, 1), (f, 2), (g, 1))]
        bounds = {
            s: [_weighted_norms(lat, a, s - shift, False).tolist() for a, shift in squares]
            for s in (0.0, 1.0, 2.0)
        }
        margins = []
        for c in range(k):
            err = np.sqrt(err_u[c] ** 2 + err_p[c] ** 2)
            rel = err / np.sqrt(ref_u[c] ** 2 + ref_p[c] ** 2)
            margin = min(1e-10 - rel, min_u[c] + 1e-12, min_p[c] + 1e-12)
            for s, seminorms in bounds.items():
                gb = _global_slack(constants[c], s, *(a[c] for a in seminorms))
                margin = min(margin, gb["slack_u"], gb["slack_p"])
            margins.append(margin)
        return margins

    # the symbols, their inverses and the split data of every mode of a case
    margins = _blocked(block, draws, 16 * (n + 1) ** 2 * lat.size)
    return _tally("stokes-roundtrip", margins)


def _suite_advection_oracle(seed, m, n, draws):
    # the direct convolution is quadratic in the mode count; keep it desk-sized
    lat = make_lattice(n, min(m, 8 if n == 2 else 4))
    N = dealias_grid(lat.m)

    def block(cases):
        stack = _random_vectors([seed + i for i in cases], lat, decay=3.0, divergence_free=True)
        margins = []
        fast_side = _advection(lat, _irfftn_half(stack[..., lat.m :], lat, N))
        for c, fast in zip(stack, fast_side):
            # flagged as random_vector_field flags its fields
            slow = advection_bruteforce(SpectralVectorField(lat, c, True, divergence_free=True))
            scale = max(float(np.max(np.abs(slow.coeffs))), 1e-300)
            margins.append(1e-11 - float(np.max(np.abs(fast - slow.coeffs))) / scale)
        return margins

    # the samples of n components and one product per case
    margins = _blocked(block, draws, 8 * (n + 1) * N**n)
    return _tally("advection-oracle", margins)


def _suite_navier_stokes(seed, m, n, draws):
    lat = make_lattice(n, m)
    cases = min(draws, 3)

    def case(i):
        tensor = (
            make_isotropic(0.0, 1.0, n) if i == 0 else random_elliptic_tensor(seed + 900 + i, n)
        )
        u_star = random_vector_field(seed + 7 * i, lat, decay=3.0, divergence_free=True)
        u_star = (0.05 / max(sobolev_norm(u_star, 1.0), 1e-300)) * u_star
        p_star = 0.05 * random_scalar_field(seed + 7 * i + 1, lat, decay=3.0)
        prob = manufacture(u_star, p_star, tensor, include_nonlinear=True)
        u, p, report = picard_solve(tensor, prob.f)
        rel = sobolev_norm(u - prob.u_star, 1.0) / sobolev_norm(prob.u_star, 1.0)
        div_norm = sobolev_norm(divergence(u), 0.0)
        margin = min(1e-8 - rel, 1e-12 - div_norm)
        if not report.bound_satisfied:
            margin = min(margin, -1.0)
        return margin

    margins = _map_cases(case, list(range(cases)))
    return _tally("navier-stokes", margins)


def _suite_quadratic_ratio(seed, m, n, draws):
    # reported, not asserted: the product-estimate constant is not explicit
    lat = make_lattice(n, m)
    N = dealias_grid(m)

    def block(cases):
        stack = _random_vectors([seed + i for i in cases], lat, decay=3.0, divergence_free=True)
        bw = _advection(lat, _irfftn_half(stack[..., m:], lat, N))
        return _bound_ratios(lat, stack, bw, 1.0)[0]

    ratios = _blocked(block, draws, 8 * (n + 1) * N**n)
    worst = float(np.max(ratios))
    result = SuiteResult("quadratic-ratio", len(ratios), 0, worst)
    result.notes.append(f"max empirical ratio {worst:.6g} (informational)")
    return result


_SUITES = {
    "rho-bound": _suite_rho_bound,
    "norm-equivalence": _suite_norm_equivalence,
    "korn": _suite_korn,
    "trilinear": _suite_trilinear,
    "mode-estimates": _suite_mode_estimates,
    "isotropic": _suite_isotropic,
    "stokes-roundtrip": _suite_stokes_roundtrip,
    "advection-oracle": _suite_advection_oracle,
    "navier-stokes": _suite_navier_stokes,
    "quadratic-ratio": _suite_quadratic_ratio,
}


def suite_names():
    return list(_SUITES)


def run_suite(names="all", seed=0, m=8, n=2, draws=50):
    """Execute named property suites over seeded ensembles.

    names is "all", one suite name, or a list of names. Unknown names raise
    ValueError listing the valid suites, as do an empty selection and
    draws < 1, since no suite may pass with zero cases, and an (n, m) that
    `make_lattice` rejects; all of them before any suite starts.
    """
    if names == "all":
        selected = list(_SUITES)
    elif isinstance(names, str):
        selected = [names]
    else:
        selected = list(names)
    if not selected:
        raise ValueError("no suite selected: a run needs at least one suite")
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}: a suite cannot pass with no cases")
    for name in selected:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}; valid suites: {', '.join(_SUITES)}")
    make_lattice(n, m)
    results = [_SUITES[name](seed, m, n, draws) for name in selected]
    return HarnessReport(results)
