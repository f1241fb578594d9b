"""Manufactured problems, analytic identities, and the property suites."""

import warnings

import numpy as np
import pytest

from tsflow.harness import (
    advection_identity_defects,
    gradient_norm_bracket,
    korn_ratio,
    manufacture,
    random_elliptic_tensor,
    run_suite,
    suite_names,
)
from tsflow.spectral import (
    dealias_grid,
    grid_transform,
    gradient,
    index_grids,
    make_lattice,
    random_scalar_field,
    random_vector_field,
    sampling_transform,
    scalar_field,
    seminorm,
    sobolev_norm,
    vector_field,
)
from tsflow.stokes import solve_stokes
from tsflow.viscosity import check_symmetry, ellipticity_constant, make_isotropic

ISO = make_isotropic(0.0, 1.0, 2)


def reference_trilinear(v1, v2, v3):
    """((v1 . grad) v2, v3) by quadrature on the dealias grid, from grid_transform samples.

    The grid has N >= 3m+1 points per axis, so the mean of the sampled
    triple product is the exact integral.
    """
    lat = v1.lattice
    N = dealias_grid(lat.m)
    s1, s3 = grid_transform(v1, N), grid_transform(v3, N)
    total = 0.0
    for b, comp in enumerate(v2.components):
        grad_b = grid_transform(gradient(comp), N)  # grad_b[j] samples d_j v2_b
        directional = np.zeros_like(s1[0])
        for j in range(lat.n):
            directional += s1[j] * grad_b[j]
        total = total + np.sum(directional * s3[b])
    return float(total / float(N**lat.n))


def grid_points(N):
    x = np.arange(N) / N
    return np.meshgrid(x, x, indexing="ij")


def taylor_green(m=2):
    lat = make_lattice(2, m)
    N = 2 * m + 1
    x1, x2 = grid_points(N)
    samples = np.stack(
        [
            np.sin(2 * np.pi * x1) * np.cos(2 * np.pi * x2),
            -np.cos(2 * np.pi * x1) * np.sin(2 * np.pi * x2),
        ]
    )
    fld = sampling_transform(samples, lat, is_real=True, zero_mean=True)
    return vector_field(lat, fld.coeffs, is_real=True, zero_mean=True, divergence_free=True)


class TestManufacture:
    def test_pressure_only_problem(self):
        lat = make_lattice(2, 3)
        p_star = random_scalar_field(1, lat, decay=3.0)
        u_star = vector_field(lat, np.zeros((2,) + lat.shape), is_real=True)
        prob = manufacture(u_star, p_star, ISO)
        np.testing.assert_allclose(prob.f.coeffs, gradient(p_star).coeffs, atol=1e-15)
        assert sobolev_norm(prob.g, 0.0) == 0.0

    def test_taylor_green_linear_forcing(self):
        # every mode of the vortex has |xi|^2 = 2, so the forcing is 8 pi^2 u
        w = taylor_green()
        zero_p = scalar_field(w.lattice, np.zeros(w.lattice.shape), is_real=True)
        prob = manufacture(w, zero_p, ISO)
        np.testing.assert_allclose(prob.f.coeffs, 8 * np.pi**2 * w.coeffs, atol=1e-12)
        assert sobolev_norm(prob.g, 0.0) <= 1e-14

    def test_taylor_green_nonlinear_forcing(self):
        w = taylor_green()
        zero_p = scalar_field(w.lattice, np.zeros(w.lattice.shape), is_real=True)
        lin = manufacture(w, zero_p, ISO)
        non = manufacture(w, zero_p, ISO, include_nonlinear=True)
        big = non.f.lattice
        assert big.m == 2 * w.lattice.m
        N = 2 * big.m + 1
        x1, x2 = grid_points(N)
        extra = np.pi * np.stack([np.sin(4 * np.pi * x1), np.sin(4 * np.pi * x2)])
        expected = sampling_transform(extra, big, is_real=True)
        from tsflow.spectral import embed_field

        gap = non.f.coeffs - embed_field(lin.f, big.m).coeffs
        np.testing.assert_allclose(gap, expected.coeffs, atol=1e-12)

    def test_linear_round_trip_is_identity(self):
        lat = make_lattice(2, 5)
        A = random_elliptic_tensor(4, 2)
        u_star = random_vector_field(2, lat, decay=3.0)
        p_star = random_scalar_field(3, lat, decay=3.0)
        prob = manufacture(u_star, p_star, A)
        u, p, _ = solve_stokes(A, prob.f, prob.g)
        assert sobolev_norm(u - u_star, 1.0) <= 1e-11 * sobolev_norm(u_star, 1.0)
        assert sobolev_norm(p - p_star, 0.0) <= 1e-11 * sobolev_norm(p_star, 0.0)

    def test_nonlinear_requires_solenoidal_velocity(self):
        lat = make_lattice(2, 3)
        u_star = random_vector_field(5, lat, decay=3.0)  # not projected
        p_star = random_scalar_field(6, lat, decay=3.0)
        with pytest.raises(ValueError):
            manufacture(u_star, p_star, ISO, include_nonlinear=True)

    def test_rejects_complex_inputs(self):
        lat = make_lattice(2, 2)
        c = np.zeros((2,) + lat.shape, np.complex128)
        c[0][lat.m + 1, lat.m] = 1.0
        u_star = vector_field(lat, c)
        p_star = scalar_field(lat, np.zeros(lat.shape), is_real=True)
        with pytest.raises(ValueError):
            manufacture(u_star, p_star, ISO)


class TestTrilinearIdentities:
    def test_antisymmetry_identity_random_triples(self):
        lat = make_lattice(2, 4)
        for seed in range(5):
            v1 = random_vector_field(3 * seed, lat, decay=3.0)
            v2 = random_vector_field(3 * seed + 1, lat, decay=3.0)
            v3 = random_vector_field(3 * seed + 2, lat, decay=3.0)
            general, _ = advection_identity_defects(v1, v2, v3)
            scale = sobolev_norm(v1, 1.0) * sobolev_norm(v2, 1.0) * sobolev_norm(v3, 1.0)
            assert abs(general) <= 1e-11 * scale

    def test_energy_vanishes_for_solenoidal_transport(self):
        lat = make_lattice(2, 4)
        for seed in range(5):
            v1 = random_vector_field(seed, lat, decay=3.0, divergence_free=True)
            v2 = random_vector_field(seed + 100, lat, decay=3.0)
            _, energy = advection_identity_defects(v1, v2, v2)
            assert abs(energy) <= 1e-11 * sobolev_norm(v1, 1.0) * sobolev_norm(v2, 1.0) ** 2

    def test_skew_symmetry_for_solenoidal_transport(self):
        lat = make_lattice(2, 4)
        v1 = random_vector_field(7, lat, decay=3.0, divergence_free=True)
        v2 = random_vector_field(8, lat, decay=3.0)
        v3 = random_vector_field(9, lat, decay=3.0)
        lhs = reference_trilinear(v1, v2, v3)
        rhs = -reference_trilinear(v1, v3, v2)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)
        # the general defect is that sum plus ((div v1) v3, v2), which is 0 here
        general, _ = advection_identity_defects(v1, v2, v3)
        assert general == pytest.approx(lhs - rhs, rel=1e-11, abs=1e-13)

    def test_zero_transport_field(self):
        lat = make_lattice(2, 3)
        zero = vector_field(lat, np.zeros((2,) + lat.shape), is_real=True)
        v2 = random_vector_field(10, lat, decay=3.0)
        general, energy = advection_identity_defects(zero, v2, v2)
        assert general == 0.0 and energy == 0.0

    def test_quadrature_matches_spectral_pairing(self):
        # oracle: evaluate the same pairing through coefficient arrays
        from tsflow.navier_stokes import advection_bruteforce
        from tsflow.spectral import embed_field, inner

        lat = make_lattice(2, 4)
        w = random_vector_field(11, lat, decay=3.0, divergence_free=True)
        v = random_vector_field(12, lat, decay=3.0, divergence_free=True)
        quad = reference_trilinear(w, w, v)
        spectral = inner(advection_bruteforce(w, out_m=2 * lat.m), embed_field(v, 2 * lat.m)).real
        assert quad == pytest.approx(spectral, rel=1e-12, abs=1e-14)


    @pytest.mark.parametrize("n, m", [(2, 4), (3, 2)])
    def test_shared_samples_match_three_forms(self, n, m, monkeypatch):
        # oracle: the identities composed from three reference_trilinear
        # quadratures and grid transforms; sampling every field, gradient
        # and the divergence in one stacked transform must give the same bits
        import tsflow.harness as harness_mod
        from tsflow.spectral import _irfftn_half, divergence

        lat = make_lattice(n, m)
        v1, v2, v3 = (random_vector_field(20 + k, lat, decay=2.0) for k in range(3))
        N = dealias_grid(m)
        s2, s3 = grid_transform(v2, N), grid_transform(v3, N)
        div1 = grid_transform(divergence(v1), N)
        correction = float(np.sum(div1 * np.sum(s2 * s3, axis=0))) / float(N) ** n
        general = reference_trilinear(v1, v2, v3) + reference_trilinear(v1, v3, v2) + correction
        energy = reference_trilinear(v1, v2, v2)

        calls = []

        def counted(half, lattice, N):
            calls.append(half.shape[0])
            return _irfftn_half(half, lattice, N)

        monkeypatch.setattr(harness_mod, "_irfftn_half", counted)
        assert advection_identity_defects(v1, v2, v3) == (general, energy)
        assert calls == [3 * n + 2 * n * n + 1]

    def test_rejects_complex_or_mixed_fields(self):
        lat = make_lattice(2, 3)
        v = random_vector_field(30, lat, decay=2.0)
        w = vector_field(lat, 1j * v.coeffs)
        with pytest.raises(ValueError, match="real"):
            advection_identity_defects(v, w, v)
        with pytest.raises(ValueError, match="lattice"):
            advection_identity_defects(v, v, random_vector_field(31, make_lattice(2, 4)))


class TestKorn:
    def test_shear_attains_two(self):
        lat = make_lattice(2, 2)
        N = 2 * lat.m + 1
        _, x2 = grid_points(N)
        samples = np.stack([np.sin(2 * np.pi * x2), np.zeros_like(x2)])
        v = sampling_transform(samples, lat, is_real=True, zero_mean=True)
        assert korn_ratio(v) == pytest.approx(2.0, abs=1e-12)

    def test_potential_flow_sits_at_one(self):
        lat = make_lattice(2, 4)
        v = gradient(random_scalar_field(13, lat, decay=3.0))
        assert korn_ratio(v) == pytest.approx(1.0, rel=1e-12)

    def test_bounded_by_two_on_random_fields(self):
        for seed in range(20):
            v = random_vector_field(seed, make_lattice(2, 5), decay=3.0)
            assert korn_ratio(v) <= 2.0 + 1e-12

    def test_zero_field_sentinel(self):
        lat = make_lattice(2, 2)
        v = vector_field(lat, np.zeros((2,) + lat.shape), is_real=True)
        assert np.isnan(korn_ratio(v))


class TestGradientNormBracket:
    def test_unit_mode_hits_lower_bound(self):
        lat = make_lattice(2, 2)
        c = np.zeros(lat.shape, np.complex128)
        c[lat.m + 1, lat.m] = 1.0
        ratio = gradient_norm_bracket(scalar_field(lat, c))
        assert ratio == pytest.approx(2 * np.pi**2, rel=1e-14)

    def test_high_mode_approaches_upper_bound(self):
        lat = make_lattice(2, 32)
        c = np.zeros(lat.shape, np.complex128)
        c[lat.m + 32, lat.m] = 1.0
        ratio = gradient_norm_bracket(scalar_field(lat, c))
        assert ratio == pytest.approx(4 * np.pi**2 * 1024 / 1025, rel=1e-13)

    def test_random_fields_stay_inside(self):
        for seed in range(20):
            g = random_scalar_field(seed, make_lattice(2, 6), decay=2.0)
            ratio = gradient_norm_bracket(g)
            assert 2 * np.pi**2 - 1e-10 <= ratio <= 4 * np.pi**2 + 1e-10

    def test_vector_bracket(self):
        v = random_vector_field(3, make_lattice(3, 3), decay=2.0)
        ratio = gradient_norm_bracket(v)
        assert 2 * np.pi**2 - 1e-10 <= ratio <= 4 * np.pi**2 + 1e-10


# Reference code: the three ratios as one field's own calls formed them,
# before they became rows of the stacked kernels.


def _own_korn_ratio(v):
    lat = v.lattice
    grids = index_grids(lat)
    E = np.empty((lat.n, lat.n) + lat.shape, np.complex128)
    for j in range(lat.n):
        for b in range(lat.n):
            E[j, b] = np.pi * 1j * (grids[j] * v.coeffs[b] + grids[b] * v.coeffs[j])
    denom = float(np.sum(np.abs(E) ** 2))
    if denom == 0.0:
        return float("nan")
    grad2 = 0.0
    for comp in v.components:
        grad2 += sobolev_norm(gradient(comp), 0.0) ** 2
    return grad2 / denom


def _own_gradient_norm_bracket(fld):
    h1 = seminorm(fld, 1.0) ** 2
    if h1 == 0.0:
        return float("nan")
    comps = fld.components if hasattr(fld, "components") else (fld,)
    grad2 = 0.0
    for comp in comps:
        grad2 += seminorm(gradient(comp), 0.0) ** 2
    return grad2 / h1


def _own_bound_ratio(w, bw, s, t):
    denom = sobolev_norm(w, s) ** 2
    return 0.0 if denom == 0.0 else sobolev_norm(bw, t) / denom


def _kernel_fields(n, m, scalar=False):
    """Three seeded real fields and the zero field, and their (4, ...) coefficient stack."""
    lat = make_lattice(n, m)
    make = random_scalar_field if scalar else random_vector_field
    fields = [make(40 + i, lat, decay=2.0) for i in range(3)]
    zero = np.zeros(fields[0].coeffs.shape, np.complex128)
    fields.append((scalar_field if scalar else vector_field)(lat, zero, is_real=True))
    return lat, fields, np.stack([f.coeffs for f in fields])


def _bits(values):
    return np.array(values, dtype=float).tobytes()


class TestStackedKernels:
    """Row i of each stacked ratio kernel is the ratio of field i, bit for bit."""

    @pytest.fixture(autouse=True)
    def _runtime_warnings_are_errors(self):
        # the zero field's sentinel comes without a division warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            yield

    @pytest.mark.parametrize("n, m", [(2, 8), (3, 4)])
    def test_korn_ratios(self, n, m):
        from tsflow.harness import _korn_ratios

        lat, fields, stack = _kernel_fields(n, m)
        ratios = _korn_ratios(lat, stack)
        assert _bits(ratios) == _bits([_own_korn_ratio(v) for v in fields])
        assert _bits(ratios) == _bits([korn_ratio(v) for v in fields])
        assert np.isnan(ratios[-1]) and all(1.0 <= r <= 2.0 for r in ratios[:-1])

    @pytest.mark.parametrize("n, m", [(2, 8), (3, 4)])
    @pytest.mark.parametrize("scalar", [False, True])
    def test_gradient_norm_brackets(self, n, m, scalar):
        from tsflow.harness import _gradient_norm_brackets

        lat, fields, stack = _kernel_fields(n, m, scalar)
        ratios = _gradient_norm_brackets(lat, stack)
        assert _bits(ratios) == _bits([_own_gradient_norm_bracket(f) for f in fields])
        assert _bits(ratios) == _bits([gradient_norm_bracket(f) for f in fields])
        assert np.isnan(ratios[-1])
        assert all(2 * np.pi**2 - 1e-10 <= r <= 4 * np.pi**2 + 1e-10 for r in ratios[:-1])

    @pytest.mark.parametrize("n, m", [(2, 8), (3, 4)])
    @pytest.mark.parametrize("s", [0.6, 1.0, 2.5])
    def test_bound_ratios(self, n, m, s):
        from tsflow.navier_stokes import _bound_ratios, advection, advection_bound_ratio

        lat, fields, stack = _kernel_fields(n, m)
        advections = [advection(w) for w in fields]
        ratios, t = _bound_ratios(lat, stack, np.stack([b.coeffs for b in advections]), s)
        assert t == advection_bound_ratio(fields[0], s)[1]
        expected = [_own_bound_ratio(w, b, s, t) for w, b in zip(fields, advections)]
        assert _bits(ratios) == _bits(expected)
        assert _bits(ratios) == _bits([advection_bound_ratio(w, s)[0] for w in fields])
        assert ratios[-1] == 0.0 and all(r > 0.0 for r in ratios[:-1])


class TestRandomEllipticTensor:
    def test_symmetric_and_elliptic(self):
        for seed in range(10):
            for n in (2, 3):
                A = random_elliptic_tensor(seed, n)
                assert check_symmetry(A) == []
                assert ellipticity_constant(A) == pytest.approx(2.0, rel=1e-10)

    def test_genuinely_anisotropic(self):
        A = random_elliptic_tensor(0, 2)
        iso = make_isotropic(0.0, 0.25, 2)
        assert np.max(np.abs(A.entries - iso.entries)) > 1e-3


def _mode_slacks_in_numpy(tensor, xi, fhat, ghat, uhat, phat):
    """The slacks of the two per-mode estimates at one mode, written out in numpy."""
    from tsflow.stokes import estimate_constants

    c = estimate_constants(tensor)
    k = 2.0 * np.pi * np.linalg.norm(xi)
    abs_f, abs_g = np.linalg.norm(fhat), abs(ghat)
    slack_u = c["C_uf"] * abs_f / k**2 + c["C_ug"] * abs_g / k - np.linalg.norm(uhat)
    return slack_u, c["C_pf"] * abs_f / k + c["C_pg"] * abs_g - abs(phat)


def _modewise_estimate_margin(seed, m, n, draws):
    """Worst mode-estimates margin from one assemble/solve/slack call per mode."""
    from tsflow.stokes import assemble_symbol, solve_mode

    rng = np.random.default_rng(seed)
    worst = np.inf
    for i in range(draws):
        tensor = random_elliptic_tensor(seed + 1000 + i, n)
        for _ in range(50):
            xi = rng.integers(-m, m + 1, size=n)
            if np.all(xi == 0):
                xi[0] = 1
            fhat = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            ghat = complex(rng.standard_normal() + 1j * rng.standard_normal())
            uhat, phat = solve_mode(assemble_symbol(tensor, xi), fhat, ghat)
            worst = min(worst, *_mode_slacks_in_numpy(tensor, xi, fhat, ghat, uhat, phat))
    return worst + 1e-12


def _reference_mode_estimate_margins(seed, m, n, draws):
    """Every mode-estimates margin from one solve per tensor, with its own draws.

    Each mode takes integers(size=n) and four separate normal draws, the
    stream the blocked suite must reproduce.
    """
    from tsflow.stokes import _invert, _mode_slacks, _mode_symbols, _solve_symbols
    from tsflow.stokes import estimate_constants

    rng = np.random.default_rng(seed)
    margins = []
    for i in range(draws):
        tensor = random_elliptic_tensor(seed + 1000 + i, n)
        xis = np.empty((50, n))
        x = np.empty((50, n + 1), np.complex128)
        for b in range(50):
            xi = rng.integers(-m, m + 1, size=n)
            if not xi.any():
                xi[0] = 1
            xis[b] = xi
            x[b, :n] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x[b, n] = -1j * complex(rng.standard_normal() + 1j * rng.standard_normal())
        R = _mode_symbols(tensor, xis)
        y = _solve_symbols(R, _invert(R, xis), x)[0]
        slack_u, slack_p, _, _ = _mode_slacks(estimate_constants(tensor), xis, x, y)
        margins.append(min(np.min(slack_u), np.min(slack_p)) + 1e-12)
    return margins


def _recorded_margins(monkeypatch, *args):
    """The per-case margins that one run_suite call hands to _tally.

    quadratic-ratio tallies none: for it, the per-case ratios of its blocks.
    """
    import tsflow.harness as harness_mod

    seen, blocked = [], []
    tally, run_blocks = harness_mod._tally, harness_mod._blocked

    def recording(name, margins):
        seen.append(list(margins))
        return tally(name, margins)

    def recording_blocks(*blocks_args):
        out = run_blocks(*blocks_args)
        blocked.append(out)
        return out

    monkeypatch.setattr(harness_mod, "_tally", recording)
    monkeypatch.setattr(harness_mod, "_blocked", recording_blocks)
    run_suite(*args)
    (margins,) = seen or blocked
    return margins


def _cases_per_block(monkeypatch, name, n, m):
    """How many cases one block of suite `name` holds on the (n, m) lattice."""
    import tsflow.harness as harness_mod

    sizes = []
    block_size = harness_mod._block_size

    def recording(case_bytes):
        sizes.append(block_size(case_bytes))
        return sizes[-1]

    with monkeypatch.context() as patch:
        patch.setattr(harness_mod, "_block_size", recording)
        run_suite(name, 0, m, n, 1)
    (size,) = sizes
    return size


# Reference code: the sampled suites one case at a time, through the public
# one-field calls, as they ran before their cases were stacked in blocks.


def _reference_norm_equivalence(seed, m, n, draws):
    lat = make_lattice(n, m)
    margins = []
    for i in range(draws):
        ratio = gradient_norm_bracket(random_vector_field(seed + i, lat, decay=3.0))
        margins.append(min(ratio - 2 * np.pi**2, 4 * np.pi**2 - ratio))
    tight = np.zeros(lat.shape, np.complex128)
    tight[tuple(np.array(lat.zero_index) + np.eye(n, dtype=int)[0])] = 1.0
    ratio = gradient_norm_bracket(scalar_field(lat, tight))
    return margins + [1e-12 - abs(ratio - 2 * np.pi**2)]


def _reference_korn(seed, m, n, draws):
    lat = make_lattice(n, m)
    margins = [
        2.0 + 1e-12 - korn_ratio(random_vector_field(seed + i, lat, decay=3.0))
        for i in range(draws)
    ]
    shear = np.zeros((n,) + lat.shape, np.complex128)
    pos = list(lat.zero_index)
    pos[1] += 1
    shear[tuple([0] + pos)] = 0.5 / 1j
    pos[1] -= 2
    shear[tuple([0] + pos)] = -0.5 / 1j
    ratio = korn_ratio(vector_field(lat, shear, is_real=True))
    return margins + [1e-9 - abs(ratio - 2.0)]


def _reference_trilinear(seed, m, n, draws):
    lat = make_lattice(n, m)
    margins = []
    for i in range(draws):
        v1 = random_vector_field(seed + 3 * i, lat, decay=3.0, divergence_free=True)
        v2 = random_vector_field(seed + 3 * i + 1, lat, decay=3.0)
        v3 = random_vector_field(seed + 3 * i + 2, lat, decay=3.0)
        scale = sobolev_norm(v1, 1.0) * sobolev_norm(v2, 1.0) * (sobolev_norm(v3, 1.0) + 1.0)
        general, energy = advection_identity_defects(v1, v2, v3)
        margins.append(1e-11 - max(abs(general), abs(energy)) / scale)
    return margins


def _reference_stokes_roundtrip(seed, m, n, draws):
    from tsflow.stokes import global_estimate_slack

    lat = make_lattice(n, m)
    iso = make_isotropic(0.0, 1.0, n)
    margins = []
    for i in range(draws):
        tensor = iso if i % 2 == 0 else random_elliptic_tensor(seed + 500 + i, n)
        u_star = random_vector_field(seed + 2 * i, lat, decay=3.0)
        p_star = random_scalar_field(seed + 2 * i + 1, lat, decay=3.0)
        prob = manufacture(u_star, p_star, tensor)
        u, p, report = solve_stokes(tensor, prob.f, prob.g)
        err = np.sqrt(sobolev_norm(u - u_star, 1.0) ** 2 + sobolev_norm(p - p_star, 0.0) ** 2)
        rel = err / np.sqrt(sobolev_norm(u_star, 1.0) ** 2 + sobolev_norm(p_star, 0.0) ** 2)
        margin = min(1e-10 - rel, report.min_slack_u + 1e-12, report.min_slack_p + 1e-12)
        for s in (0.0, 1.0, 2.0):
            gb = global_estimate_slack(tensor, u, p, prob.f, prob.g, s)
            margin = min(margin, gb["slack_u"], gb["slack_p"])
        margins.append(margin)
    return margins


def _reference_advection_oracle(seed, m, n, draws):
    from tsflow.navier_stokes import advection, advection_bruteforce

    lat = make_lattice(n, min(m, 8 if n == 2 else 4))
    margins = []
    for i in range(draws):
        w = random_vector_field(seed + i, lat, decay=3.0, divergence_free=True)
        fast, slow = advection(w), advection_bruteforce(w)
        scale = max(float(np.max(np.abs(slow.coeffs))), 1e-300)
        margins.append(1e-11 - float(np.max(np.abs(fast.coeffs - slow.coeffs))) / scale)
    return margins


def _reference_quadratic_ratio(seed, m, n, draws):
    from tsflow.navier_stokes import advection_bound_ratio

    lat = make_lattice(n, m)
    fields = (random_vector_field(seed + i, lat, 3.0, divergence_free=True) for i in range(draws))
    return [advection_bound_ratio(w, 1.0)[0] for w in fields]


def _reference_isotropic(seed, m, n, draws):
    from tsflow.stokes import assemble_symbol, solve_isotropic_mode, solve_mode

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
        uhat, phat = solve_mode(assemble_symbol(make_isotropic(lam, mu, n), xi), fhat, ghat)
        uref, pref = solve_isotropic_mode(lam, mu, xi, fhat, ghat)
        scale = max(np.max(np.abs(uref)), abs(pref), 1.0)
        err = max(float(np.max(np.abs(uhat - uref))), abs(phat - pref)) / scale
        margins.append(1e-12 - err)
    return margins


REFERENCE_SUITES = {
    "norm-equivalence": _reference_norm_equivalence,
    "korn": _reference_korn,
    "mode-estimates": _reference_mode_estimate_margins,
    "isotropic": _reference_isotropic,
    "trilinear": _reference_trilinear,
    "stokes-roundtrip": _reference_stokes_roundtrip,
    "advection-oracle": _reference_advection_oracle,
    "quadratic-ratio": _reference_quadratic_ratio,
}


def _traced_peak(*args):
    """tracemalloc's peak over one run_suite call, after a warm-up run."""
    import tracemalloc

    run_suite(*args)
    tracemalloc.start()
    try:
        run_suite(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedSuites:
    """The sampled suites run their cases in blocks; margins and working set."""

    @pytest.mark.parametrize(
        "seed, n, m, draws", [(0, 2, 8, 50), (7, 3, 4, 5), (3, 2, 1, 1), (5, 2, 4, None)]
    )
    @pytest.mark.parametrize("name", list(REFERENCE_SUITES))
    def test_margins_match_one_case_at_a_time(self, name, seed, n, m, draws, monkeypatch):
        # draws=None: one full block and one more case
        if draws is None:
            draws = _cases_per_block(monkeypatch, name, n, m) + 1
        margins = _recorded_margins(monkeypatch, name, seed, m, n, draws)
        expected = REFERENCE_SUITES[name](seed, m, n, draws)
        assert np.array(margins).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("name", list(REFERENCE_SUITES))
    def test_working_set_does_not_grow_with_draws(self, name, monkeypatch):
        B = _cases_per_block(monkeypatch, name, 2, 8)
        one_block = _traced_peak(name, 0, 8, 2, B)
        assert _traced_peak(name, 0, 8, 2, 4 * B) <= 1.1 * one_block

    def test_blocks_stay_below_the_mode_estimates_pass(self):
        # every sampled suite, mode-estimates included, holds one block of
        # at most _BLOCK_BYTES of stacked arrays at a time; a mode-estimates
        # block (symbols, inverses, data and slacks of all its modes) has the
        # largest working set, and no other suite may raise the peak of a
        # default run more than 0.3 MB above it
        assert _traced_peak("all") <= _traced_peak("mode-estimates") + 0.3e6

    def test_each_run_costs_the_same(self, monkeypatch):
        # nothing is cached across run_suite calls: a second run makes the
        # same kernel calls as the first
        import tsflow.harness as harness_mod

        calls = []

        def counted(name):
            original = getattr(harness_mod, name)

            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return call

        for name in ("_random_vectors", "_advection", "_solve_modes", "_irfftn_half"):
            monkeypatch.setattr(harness_mod, name, counted(name))
        counts = []
        for _ in range(2):
            calls.clear()
            run_suite("all", seed=1, m=4, n=2, draws=10)
            counts.append(list(calls))
        assert counts[0] == counts[1] and counts[0]


class TestSuites:
    @pytest.mark.parametrize("seed, n, m", [(0, 2, 8), (7, 2, 1), (0, 3, 4), (7, 3, 1)])
    def test_one_pass_mode_estimates_match_per_tensor_draws(self, seed, n, m, monkeypatch):
        # m = 1 draws xi = 0 often, which the pass must move to xi_1 = 1
        # as the per-mode loop did
        margins = _recorded_margins(monkeypatch, "mode-estimates", seed, m, n, 6)
        assert margins == _reference_mode_estimate_margins(seed, m, n, 6)

    @pytest.mark.parametrize("seed, n", [(0, 2), (5, 3)])
    def test_batched_mode_estimates_match_modewise_loop(self, seed, n):
        result = run_suite("mode-estimates", seed=seed, m=8, n=n, draws=6).results[0]
        expected = _modewise_estimate_margin(seed, 8, n, 6)
        assert result.cases == 6
        assert abs(result.worst_margin - expected) <= 1e-15 * abs(expected)

    def test_norm_equivalence_fails_below_zero(self, monkeypatch):
        # its margins already carry their slack, so like every other suite it
        # counts a failure at any margin below 0; the stacked kernel serves
        # the sampled blocks and, as one row, the unit-mode case
        import tsflow.harness as harness_mod

        monkeypatch.setattr(
            harness_mod,
            "_gradient_norm_brackets",
            lambda lattice, stack: [2 * np.pi**2 - 5e-13] * len(stack),
        )
        result = run_suite("norm-equivalence", seed=1, m=3, n=2, draws=4).results[0]
        assert result.cases == 5 and result.failures == 4
        assert result.worst_margin == pytest.approx(-5e-13, rel=1e-2)

    def test_nan_margin_counts_as_failure(self, monkeypatch):
        # korn_ratio is nan for a zero field; a nan margin must not pass, in
        # the sampled blocks or in the shear case (one row of the same kernel)
        import tsflow.harness as harness_mod

        monkeypatch.setattr(
            harness_mod, "_korn_ratios", lambda lattice, stack: [float("nan")] * len(stack)
        )
        report = run_suite("korn", seed=1, m=3, n=2, draws=4)
        result = report.results[0]
        assert result.cases == 5 and result.failures == 5
        assert np.isnan(result.worst_margin) and not report.passed

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="no suite selected"):
            run_suite([])

    @pytest.mark.parametrize("draws", [0, -3])
    def test_draws_below_one_rejected(self, draws):
        with pytest.raises(ValueError, match="draws must be >= 1"):
            run_suite("mode-estimates", draws=draws)

    def test_all_suites_pass_at_desk_scale(self):
        report = run_suite("all", seed=0, m=4, n=2, draws=8)
        assert report.passed
        names = [r.name for r in report.results]
        assert names == suite_names()

    def test_all_suites_at_default_scale_within_a_minute(self):
        import time

        start = time.perf_counter()
        report = run_suite("all", seed=0, m=8, n=2, draws=50)
        elapsed = time.perf_counter() - start
        assert report.passed
        for result in report.results:
            assert result.cases > 0 and result.failures == 0, result.name
        assert elapsed < 60.0

    def test_single_suite_selection(self):
        report = run_suite("korn", seed=1, m=4, n=2, draws=5)
        assert [r.name for r in report.results] == ["korn"]
        assert report.passed

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("made-up-suite")

    def test_repeated_suites_give_identical_results(self):
        first = run_suite(["korn", "trilinear"], seed=2, m=4, n=2, draws=6)
        second = run_suite(["korn", "trilinear"], seed=2, m=4, n=2, draws=6)
        for a, b in zip(first.results, second.results):
            assert a.worst_margin == b.worst_margin
            assert a.cases == b.cases

    def test_three_dimensional_suites(self):
        report = run_suite(["norm-equivalence", "advection-oracle"], seed=3, m=2, n=3, draws=3)
        assert report.passed
