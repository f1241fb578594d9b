"""Manufactured problems and property-check suites.

Everything here turns an analytic identity or inequality into a
machine-checkable statement on band-limited fields: trilinear forms are
evaluated by alias-free quadrature, manufactured forcings are computed by
applying the forward operators to a chosen solution, and each named suite
sweeps a seeded ensemble and reports margins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .navier_stokes import advection, advection_bound_ratio, advection_bruteforce, picard_solve
from .spectral import (
    TWO_PI,
    _irfftn_half,
    dealias_grid,
    divergence,
    embed_field,
    gradient,
    index_grids,
    make_lattice,
    mode_abs2,
    random_scalar_field,
    random_vector_field,
    rho2,
    scalar_field,
    seminorm,
    sobolev_norm,
    symmetric_gradient,
    vector_field,
)
from .stokes import (
    _invert,
    _mode_slacks,
    _mode_symbols,
    _solve_symbols,
    assemble_symbol,
    estimate_constants,
    global_estimate_slack,
    solve_isotropic_mode,
    solve_mode,
    solve_stokes,
)
from .viscosity import (
    make_isotropic,
    make_tensor,
    restricted_form_matrix,
    stokes_operator,
    symmetrize,
)

__all__ = [
    "ManufacturedProblem",
    "manufacture",
    "trilinear_form",
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


def _trilinear_grid(v1, v2, v3):
    """The quadrature grid of the trilinear form, after checking its fields."""
    if not (v1.is_real and v2.is_real and v3.is_real):
        raise ValueError("trilinear forms are taken over real fields")
    lat = v1.lattice
    if v2.lattice != lat or v3.lattice != lat:
        raise ValueError("all three fields must share a lattice")
    return dealias_grid(lat.m)


def _gradient_coeffs(v):
    """(n, n, cube) coefficients of grad v: entry [b, j] is 2*pi*i*xi_j * v_b.

    The multipliers are `gradient`'s own, applied in its order, so the
    coefficients are its bit for bit.
    """
    mult = np.stack([TWO_PI * 1j * xi_j for xi_j in index_grids(v.lattice)])
    return mult * v.coeffs[:, None]


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
    """((v1 . grad) v2, v3) from the grid samples of v1, grad v2 and v3."""
    total = 0.0
    for b in range(len(s1)):
        directional = np.zeros_like(s1[0])
        for j in range(len(s1)):
            directional += s1[j] * grad2[b][j]
        total += float(np.sum(directional * s3[b]))
    return total / float(s1[0].size)


def trilinear_form(v1, v2, v3):
    """Quadrature of the advection pairing ((v1 . grad) v2, v3).

    Uses the 5-smooth `dealias_grid(m)` >= 3m+1, which integrates triple
    products of cube-limited fields exactly.
    """
    N = _trilinear_grid(v1, v2, v3)
    n = v1.lattice.n
    samples = _real_samples(v1.lattice, N, v1.coeffs, v3.coeffs, _gradient_coeffs(v2))
    grad2 = samples[2 * n :].reshape((n, n) + samples.shape[1:])
    return _trilinear_samples(samples[:n], grad2, samples[n : 2 * n])


def advection_identity_defects(v1, v2, v3):
    """Defects of the integration-by-parts identities for the advection form.

    Returns (general_defect, energy_value): the first is
    T(v1,v2,v3) + T(v1,v3,v2) + ((div v1) v3, v2) and vanishes for any real
    fields; the second is T(v1,v2,v2), which vanishes when v1 is solenoidal.
    The 3n field components, the 2n^2 components of grad v2 and grad v3 and
    div v1 are stacked and sampled by one transform, whose rows the three
    forms share.
    """
    N = _trilinear_grid(v1, v2, v3)
    n = v1.lattice.n
    stacks = (v1.coeffs, v2.coeffs, v3.coeffs, _gradient_coeffs(v2), _gradient_coeffs(v3))
    samples = _real_samples(v1.lattice, N, *stacks, divergence(v1).coeffs)
    s1, s2, s3 = samples[:n], samples[n : 2 * n], samples[2 * n : 3 * n]
    grad2, grad3 = samples[3 * n : -1].reshape((2, n, n) + samples.shape[1:])
    div1 = samples[-1]
    correction = float(np.sum(div1 * np.sum(s2 * s3, axis=0))) / float(div1.size)
    general = _trilinear_samples(s1, grad2, s3) + _trilinear_samples(s1, grad3, s2) + correction
    return general, _trilinear_samples(s1, grad2, s2)


def korn_ratio(v):
    """|grad v|^2 / |E(v)|^2 in the mean-square norm; at most 2.

    Shear flows attain the bound, potential flows sit at 1. Returns nan for
    the zero field.
    """
    E = symmetric_gradient(v)
    denom = float(np.sum(np.abs(E) ** 2))
    if denom == 0.0:
        return float("nan")
    grad2 = 0.0
    for comp in v.components:
        grad2 += sobolev_norm(gradient(comp), 0.0) ** 2
    return grad2 / denom


def gradient_norm_bracket(fld):
    """Ratio |grad .|^2 / |.|_{H^1}^2 for a zero-mean field.

    Lands in [2*pi^2, 4*pi^2]; |xi| = 1 modes attain the lower end, the
    upper end is approached as the spectrum concentrates at large |xi|.
    Returns nan for the zero field.
    """
    h1 = seminorm(fld, 1.0) ** 2
    if h1 == 0.0:
        return float("nan")
    comps = fld.components if hasattr(fld, "components") else (fld,)
    grad2 = 0.0
    for comp in comps:
        grad2 += seminorm(gradient(comp), 0.0) ** 2
    return grad2 / h1


def random_elliptic_tensor(seed, n, scale=0.3, target=0.5):
    """Seeded anisotropic tensor with a prescribed restricted eigenvalue.

    Symmetrizes a random perturbation and shifts it with the trace-free
    identity part of an isotropic tensor until the smallest restricted
    eigenvalue equals target.
    """
    rng = np.random.default_rng(seed)
    raw = symmetrize(n, scale * rng.standard_normal((n,) * 4))
    lam_min = float(np.linalg.eigvalsh(restricted_form_matrix(raw))[0])
    # the mu-part contributes 2*mu to every restricted eigenvalue
    mu_shift = (target - lam_min) / 2.0
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
    """Run independent cases in order, in the calling thread.

    A module-level function because tsbench/tracer.py wraps it by name.
    """
    return [fn(a) for a in args_list]


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

    def case(i):
        fld = random_vector_field(seed + i, lat, decay=3.0)
        ratio = gradient_norm_bracket(fld)
        return min(ratio - 2 * np.pi**2, 4 * np.pi**2 - ratio)

    margins = _map_cases(case, list(range(draws)))
    # unit-mode tightness
    tight = np.zeros(lat.shape, np.complex128)
    tight[tuple(np.array(lat.zero_index) + np.eye(n, dtype=int)[0])] = 1.0
    ratio = gradient_norm_bracket(scalar_field(lat, tight))
    margins.append(1e-12 - abs(ratio - 2 * np.pi**2))
    return _tally("norm-equivalence", margins)


def _suite_korn(seed, m, n, draws):
    lat = make_lattice(n, m)

    def case(i):
        v = random_vector_field(seed + i, lat, decay=3.0)
        return 2.0 + 1e-12 - korn_ratio(v)

    margins = _map_cases(case, list(range(draws)))
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

    def case(i):
        v1 = random_vector_field(seed + 3 * i, lat, decay=3.0, divergence_free=True)
        v2 = random_vector_field(seed + 3 * i + 1, lat, decay=3.0)
        v3 = random_vector_field(seed + 3 * i + 2, lat, decay=3.0)
        scale = (
            sobolev_norm(v1, 1.0) * sobolev_norm(v2, 1.0) * (sobolev_norm(v3, 1.0) + 1.0)
        )
        general, energy = advection_identity_defects(v1, v2, v3)
        return 1e-11 - max(abs(general), abs(energy)) / scale

    margins = _map_cases(case, list(range(draws)))
    return _tally("trilinear", margins)


def _suite_mode_estimates(seed, m, n, draws):
    # one case per tensor, 50 random modes each; the modes of all cases are
    # drawn in order from one stream, then solved and checked in one pass
    rng = np.random.default_rng(seed)
    modes = 50
    B = draws * modes
    xis = np.empty((B, n))
    z = np.empty((B, 2 * n + 2))  # Re fhat, Im fhat, Re ghat, Im ghat
    for b in range(B):
        for j in range(n):
            xis[b, j] = rng.integers(-m, m + 1)
        z[b] = rng.standard_normal(2 * n + 2)
    xis[~xis.any(axis=1), 0] = 1
    x = np.empty((B, n + 1), np.complex128)  # D^-1 (fhat, ghat)
    x[:, :n] = z[:, :n] + 1j * z[:, n : 2 * n]
    x[:, n] = -1j * (z[:, 2 * n] + 1j * z[:, 2 * n + 1])
    tensors = [random_elliptic_tensor(seed + 1000 + i, n) for i in range(draws)]
    R = np.concatenate(
        [_mode_symbols(t, xis[i * modes : (i + 1) * modes]) for i, t in enumerate(tensors)]
    )
    y, _ = _solve_symbols(R, _invert(R, xis), x)
    constants = [estimate_constants(t) for t in tensors]
    per_mode = {k: np.repeat([c[k] for c in constants], modes) for k in constants[0]}
    slack_u, slack_p, _, _ = _mode_slacks(per_mode, xis, x, y)
    worst = np.minimum(*(a.reshape(draws, modes).min(axis=1) for a in (slack_u, slack_p)))
    return _tally("mode-estimates", list(worst + 1e-12))


def _suite_isotropic(seed, m, n, draws):
    rng = np.random.default_rng(seed)
    margins = []
    for _ in range(draws):
        lam = float(rng.uniform(-5.0, 5.0))
        mu = float(rng.uniform(0.1, 5.0))
        xi = rng.integers(-m, m + 1, size=n)
        if not xi.any():
            xi[0] = 1
        fhat = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ghat = complex(rng.standard_normal() + 1j * rng.standard_normal())
        tensor = make_isotropic(lam, mu, n)
        uhat, phat = solve_mode(assemble_symbol(tensor, xi), fhat, ghat)
        uref, pref = solve_isotropic_mode(lam, mu, xi, fhat, ghat)
        scale = max(np.max(np.abs(uref)), abs(pref), 1.0)
        err = max(float(np.max(np.abs(uhat - uref))), abs(phat - pref)) / scale
        margins.append(1e-12 - err)
    return _tally("isotropic", margins)


def _suite_stokes_roundtrip(seed, m, n, draws):
    lat = make_lattice(n, m)
    iso = make_isotropic(0.0, 1.0, n)  # one object: its ellipticity constant is cached

    def case(i):
        tensor = iso if i % 2 == 0 else random_elliptic_tensor(seed + 500 + i, n)
        u_star = random_vector_field(seed + 2 * i, lat, decay=3.0)
        p_star = random_scalar_field(seed + 2 * i + 1, lat, decay=3.0)
        prob = manufacture(u_star, p_star, tensor)
        u, p, report = solve_stokes(tensor, prob.f, prob.g)
        err = np.sqrt(
            sobolev_norm(u - u_star, 1.0) ** 2 + sobolev_norm(p - p_star, 0.0) ** 2
        )
        rel = err / np.sqrt(sobolev_norm(u_star, 1.0) ** 2 + sobolev_norm(p_star, 0.0) ** 2)
        margin = min(1e-10 - rel, report.min_slack_u + 1e-12, report.min_slack_p + 1e-12)
        for s in (0.0, 1.0, 2.0):
            # the solve checked its own bound at s = 1
            if s == report.s:
                gb = report.global_bound
            else:
                gb = global_estimate_slack(tensor, u, p, prob.f, prob.g, s)
            margin = min(margin, gb["slack_u"], gb["slack_p"])
        return margin

    margins = _map_cases(case, list(range(draws)))
    return _tally("stokes-roundtrip", margins)


def _suite_advection_oracle(seed, m, n, draws):
    # the direct convolution is quadratic in the mode count; keep it desk-sized
    lat = make_lattice(n, min(m, 8 if n == 2 else 4))

    def case(i):
        w = random_vector_field(seed + i, lat, decay=3.0, divergence_free=True)
        fast = advection(w)
        slow = advection_bruteforce(w)
        scale = max(float(np.max(np.abs(slow.coeffs))), 1e-300)
        return 1e-11 - float(np.max(np.abs(fast.coeffs - slow.coeffs))) / scale

    margins = _map_cases(case, list(range(draws)))
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

    def case(i):
        w = random_vector_field(seed + i, lat, decay=3.0, divergence_free=True)
        ratio, _ = advection_bound_ratio(w, 1.0)
        return ratio

    ratios = _map_cases(case, list(range(draws)))
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
    draws < 1, since no suite may pass with zero cases.
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
    results = [_SUITES[name](seed, m, n, draws) for name in selected]
    return HarnessReport(results)
