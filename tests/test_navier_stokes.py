"""Nonlinear term, fixed-point solver, a-priori bound, decay diagnostic."""

import itertools
import warnings

import numpy as np
import pytest

from tsflow.harness import manufacture, random_elliptic_tensor
from tsflow.navier_stokes import (
    OMEGA_FLOOR,
    _advection,
    _advection_upper,
    Diverged,
    MaxIterationsExceeded,
    NSSolveOptions,
    NSSolveReport,
    advection,
    advection_bound_ratio,
    advection_bruteforce,
    apriori_velocity_bound,
    picard_solve,
    regularity_slope,
    residual,
)
from tsflow.spectral import (
    TWO_PI,
    NonzeroMeanWarning,
    _divergence,
    _hermitianize_half,
    _irfftn_half,
    _nonzero_mean,
    _without_mean,
    dealias_grid,
    divergence,
    index_grids,
    inner,
    make_lattice,
    random_scalar_field,
    random_vector_field,
    sampling_transform,
    seminorm,
    sobolev_norm,
    vector_field,
)
from tsflow.stokes import NotSolenoidal, solve_stokes
from tsflow.viscosity import apply_viscosity, make_isotropic

ISO = make_isotropic(0.0, 1.0, 2)
ISO3 = make_isotropic(0.0, 1.0, 3)


def grid_points(N):
    x = np.arange(N) / N
    return np.meshgrid(x, x, indexing="ij")


def taylor_green(m=2):
    """Classic cellular vortex; band limit 1, divergence-free."""
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


class TestAdvection:
    def test_shear_flow_annihilates_itself(self):
        lat = make_lattice(2, 2)
        N = 2 * lat.m + 1
        x1, x2 = grid_points(N)
        samples = np.stack([np.sin(2 * np.pi * x2), np.zeros_like(x2)])
        w = sampling_transform(samples, lat, is_real=True, zero_mean=True)
        w = vector_field(lat, w.coeffs, is_real=True, zero_mean=True, divergence_free=True)
        out = advection(w)
        assert np.max(np.abs(out.coeffs)) <= 1e-14

    def test_taylor_green_closed_form(self):
        w = taylor_green(m=2)
        out = advection(w)
        lat = w.lattice
        N = 2 * lat.m + 1
        x1, x2 = grid_points(N)
        expected_samples = np.pi * np.stack(
            [np.sin(4 * np.pi * x1), np.sin(4 * np.pi * x2)]
        )
        expected = sampling_transform(expected_samples, lat, is_real=True)
        assert np.max(np.abs(out.coeffs - expected.coeffs)) <= 1e-12

    def test_energy_orthogonality(self):
        for seed in range(5):
            w = random_vector_field(seed, make_lattice(2, 6), decay=3.0, divergence_free=True)
            value = inner(advection(w), w).real
            assert abs(value) <= 1e-11 * sobolev_norm(w, 1.0) ** 2

    def test_zero_mean_for_solenoidal_input(self):
        w = random_vector_field(3, make_lattice(2, 5), decay=3.0, divergence_free=True)
        out = advection(w)
        lat = w.lattice
        assert np.all(out.coeffs[(slice(None),) + lat.zero_index] == 0)

    def test_quadratic_homogeneity(self):
        w = random_vector_field(4, make_lattice(2, 4), decay=3.0, divergence_free=True)
        a1 = advection(w)
        a4 = advection(2.0 * w)
        np.testing.assert_allclose(a4.coeffs, 4.0 * a1.coeffs, rtol=0, atol=1e-12)

    def test_rejects_complex_fields(self):
        lat = make_lattice(2, 2)
        c = np.zeros((2,) + lat.shape, np.complex128)
        c[0][lat.m + 1, lat.m] = 1.0
        with pytest.raises(ValueError):
            advection(vector_field(lat, c))

    def test_small_grid_is_exact_within_the_two_thirds_band(self):
        # a field banded to m/2 produces no aliasing even on the 2m+1 grid,
        # so the dealias flag must not change the answer there
        from tsflow.spectral import embed_field

        w_small = random_vector_field(40, make_lattice(2, 3), decay=3.0, divergence_free=True)
        w = embed_field(w_small, 6)
        plain = advection(w, dealias=False)
        fine = advection(w, dealias=True)
        np.testing.assert_allclose(plain.coeffs, fine.coeffs, atol=1e-13)

    def test_small_grid_aliases_at_full_band(self):
        w = random_vector_field(41, make_lattice(2, 6), decay=3.0, divergence_free=True)
        plain = advection(w, dealias=False)
        fine = advection(w, dealias=True)
        assert np.max(np.abs(plain.coeffs - fine.coeffs)) > 1e-8


def _pair_sum(w, out_m):
    """(w . grad) w on the cube of bound out_m as the literal sum over pairs.

    Sums what_j(zeta) * 2*pi*i*eta_j * what_k(eta) over eta + zeta = xi in
    plain Python over mode tuples, with no array arithmetic.
    """
    lat = w.lattice
    n = lat.n
    coeffs = w.coeffs.reshape(n, -1).T.tolist()
    what = {tuple(xi): c for xi, c in zip(lat.indices().tolist(), coeffs)}
    out = np.zeros((n,) + (2 * out_m + 1,) * n, np.complex128)
    for eta, w_eta in what.items():
        for zeta, w_zeta in what.items():
            xi = tuple(a + b for a, b in zip(eta, zeta))
            if max(abs(x) for x in xi) > out_m:
                continue
            for k in range(n):
                term = sum(w_zeta[j] * 2j * np.pi * eta[j] * w_eta[k] for j in range(n))
                out[(k,) + tuple(x + out_m for x in xi)] += term
    return out


class TestAdvectionOracle:
    @pytest.mark.parametrize("n, m", [(2, 2), (3, 1)])
    @pytest.mark.parametrize("doubled", [False, True])
    @pytest.mark.parametrize("solenoidal", [False, True])
    def test_matches_literal_pair_sum(self, n, m, doubled, solenoidal):
        w = random_vector_field(50 + n, make_lattice(n, m), decay=1.0, divergence_free=solenoidal)
        out_m = 2 * m if doubled else m
        slow = advection_bruteforce(w, out_m=out_m if doubled else None)
        literal = _pair_sum(w, out_m)
        assert slow.lattice.m == out_m
        scale = np.max(np.abs(literal))
        # the oracle zeroes the mean of a solenoidal field's product, which
        # vanishes analytically; the literal sum leaves it at rounding level
        assert np.max(np.abs(slow.coeffs - literal)) <= 1e-14 * scale

    def test_matches_bruteforce_on_solenoidal_fields(self):
        for seed in range(5):
            w = random_vector_field(seed, make_lattice(2, 6), decay=3.0, divergence_free=True)
            fast = advection(w)
            slow = advection_bruteforce(w)
            scale = max(np.max(np.abs(slow.coeffs)), 1e-300)
            assert np.max(np.abs(fast.coeffs - slow.coeffs)) <= 1e-11 * scale

    def test_matches_bruteforce_in_three_dimensions(self):
        w = random_vector_field(8, make_lattice(3, 3), decay=3.0, divergence_free=True)
        fast = advection(w)
        slow = advection_bruteforce(w)
        assert np.max(np.abs(fast.coeffs - slow.coeffs)) <= 1e-12

    def test_matches_bruteforce_for_general_fields(self):
        # compressible input: the zero mode is retained by both paths
        w = random_vector_field(9, make_lattice(2, 4), decay=3.0)
        fast = advection(w)
        slow = advection_bruteforce(w)
        assert np.max(np.abs(fast.coeffs - slow.coeffs)) <= 1e-12

    @pytest.mark.parametrize("m", [3, 4])
    def test_matches_bruteforce_for_general_fields_in_three_dimensions(self, m):
        # the (div w) w correction path; m=4 puts the product grid at the
        # 5-smooth N=15 instead of 3m+1=13
        from tsflow.spectral import dealias_grid

        assert dealias_grid(m) == {3: 10, 4: 15}[m]
        w = random_vector_field(10 + m, make_lattice(3, m), decay=3.0)
        assert sobolev_norm(divergence(w), 0.0) > 1e-3 * sobolev_norm(w, 1.0)
        fast = advection(w)
        slow = advection_bruteforce(w)
        assert np.max(np.abs(fast.coeffs - slow.coeffs)) <= 1e-11 * np.max(np.abs(slow.coeffs))

    def test_single_mode_two_term_convolution(self):
        # w1 = 2 cos(2 pi x1): the product collapses onto the doubled mode
        lat = make_lattice(2, 1)
        c = np.zeros((2,) + lat.shape, np.complex128)
        c[0][lat.m + 1, lat.m] = 1.0
        c[0][lat.m - 1, lat.m] = 1.0
        w = vector_field(lat, c, is_real=True)
        out = advection_bruteforce(w, out_m=2)
        big = out.lattice
        assert out.coeffs[0][big.m + 2, big.m] == pytest.approx(2j * np.pi)
        assert out.coeffs[0][big.m - 2, big.m] == pytest.approx(-2j * np.pi)
        remaining = out.coeffs.copy()
        remaining[0][big.m + 2, big.m] = 0
        remaining[0][big.m - 2, big.m] = 0
        assert np.max(np.abs(remaining)) <= 1e-15

    def test_zero_field(self):
        lat = make_lattice(2, 3)
        w = vector_field(lat, np.zeros((2,) + lat.shape), is_real=True)
        assert np.all(advection_bruteforce(w).coeffs == 0)

    @pytest.mark.parametrize("n, m", [(2, 8), (3, 4)])
    @pytest.mark.parametrize("solenoidal", [False, True])
    def test_cube_output_is_the_full_convolution_cropped(self, n, m, solenoidal, monkeypatch):
        # on the input cube only the centred "same" span of each convolution
        # is computed; its entries are the full convolution's, bit for bit
        from tsflow.spectral import restrict_field

        w = random_vector_field(60 + n, make_lattice(n, m), decay=3.0, divergence_free=solenoidal)
        modes = []
        convolve = np.convolve

        def spy(a, v, mode="full"):
            modes.append(mode)
            return convolve(a, v, mode)

        monkeypatch.setattr(np, "convolve", spy)
        full = advection_bruteforce(w, out_m=2 * m)
        assert modes == ["full"] * n * n
        modes.clear()
        kept = advection_bruteforce(w)
        assert modes == ["same"] * n * n
        cropped = restrict_field(full, m)
        assert kept.lattice == cropped.lattice and kept.zero_mean == cropped.zero_mean
        assert kept.coeffs.tobytes() == cropped.coeffs.tobytes()

    @pytest.mark.parametrize("n, m", [(2, 4), (3, 2)])
    @pytest.mark.parametrize("doubled", [False, True])
    def test_matches_dense_index_grids(self, monkeypatch, n, m, doubled):
        # oracle: the same convolutions with the multipliers taken from the
        # index cubes that the index axes broadcast to, bit for bit
        import tsflow.navier_stokes as ns_mod

        w = random_vector_field(70 + n, make_lattice(n, m), decay=2.0)
        out_m = 2 * m if doubled else None
        got = advection_bruteforce(w, out_m=out_m)
        monkeypatch.setattr(ns_mod, "index_grids", _dense_index_grids)
        assert got.coeffs.tobytes() == advection_bruteforce(w, out_m=out_m).coeffs.tobytes()


def _dense_index_grids(lattice):
    """index_grids as n full integer cubes: the index axes broadcast against each other."""
    return tuple(np.array(g) for g in np.broadcast_arrays(*index_grids(lattice)))


def _full_product(samples, lat):
    # the unpruned forward transform: rfftn, corner blocks, Hermitian fill
    m, n, N = lat.m, lat.n, samples.shape[-1]
    spec = np.fft.rfftn(samples, norm="forward")
    axis = ((slice(0, m + 1), slice(m, 2 * m + 1)), (slice(N - m, N), slice(0, m)))
    c = np.empty(lat.shape, np.complex128)
    for pieces in itertools.product(*([axis] * (n - 1) + [axis[:1]])):
        c[tuple(p[1] for p in pieces)] = spec[tuple(p[0] for p in pieces)]
    c[..., :m] = np.conj(np.flip(c[..., m + 1 :]))
    plane = c[..., m]
    c[..., m] = 0.5 * (plane + np.conj(np.flip(plane)))
    return c


def full_cube_advection(w, dealias=True):
    """The unpruned advection: full real transforms and a full-cube accumulation."""
    lat = w.lattice
    n, m = lat.n, lat.m
    N = dealias_grid(m) if dealias else 2 * m + 1

    def samples(coeffs):
        spec = np.zeros((N,) * n, np.complex128)
        spec[np.ix_(*([np.arange(-m, m + 1) % N] * n))] = coeffs
        return np.fft.irfftn(spec[..., : N // 2 + 1], s=(N,) * n, axes=range(n), norm="forward")

    w_grid = [samples(c) for c in w.coeffs]
    grids = index_grids(lat)
    out = np.zeros((n,) + lat.shape, np.complex128)
    for j in range(n):
        for k in range(j, n):
            prod = _full_product(w_grid[j] * w_grid[k], lat)
            out[k] += TWO_PI * 1j * grids[j] * prod
            if k != j:
                out[j] += TWO_PI * 1j * grids[k] * prod
    if not w.divergence_free:
        div_grid = samples(divergence(w).coeffs)
        for k in range(n):
            out[k] -= _full_product(div_grid * w_grid[k], lat)
    return out


class TestHalfCubeAdvection:
    """The pruned half-cube advection against the full-cube one, bit for bit."""

    @pytest.mark.parametrize("n, m", [(2, 3), (3, 4)])
    def test_multipliers_are_cut_index_axes(self, n, m):
        # one row of integers per axis, the last cut to xi_n >= 0: together
        # they broadcast to the upper half of the index cubes
        from tsflow.navier_stokes import _upper_derivatives

        lat = make_lattice(n, m)
        d = _upper_derivatives(lat)
        assert sum(a.size for a in d) == (n - 1) * (2 * m + 1) + m + 1
        upper = lat.shape[:-1] + (m + 1,)
        for a, grid in zip(d, _dense_index_grids(lat)):
            assert not a.flags.writeable
            ref = TWO_PI * 1j * grid[..., m:]
            assert np.broadcast_to(a, upper).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n, m", [(2, 8), (3, 4)])
    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("solenoidal", [True, False])
    def test_matches_full_cube_accumulation(self, n, m, dealias, solenoidal):
        w = random_vector_field(80 + n, make_lattice(n, m), decay=2.0, divergence_free=solenoidal)
        got = advection(w, dealias=dealias).coeffs
        ref = full_cube_advection(w, dealias=dealias)
        np.testing.assert_array_equal(got, ref)
        assert got.tobytes() == ref.tobytes()  # signed zeros too

    @pytest.mark.parametrize("field", ["taylor-green", "zero"])
    def test_matches_on_exact_zeros(self, field):
        # most products and coefficients are exact zeros: their signs must
        # match too
        lat = make_lattice(2, 3)
        if field == "zero":
            w = vector_field(lat, np.zeros((2,) + lat.shape), is_real=True)
        else:
            w = taylor_green(m=3)
        got = advection(w).coeffs
        ref = full_cube_advection(w)
        np.testing.assert_array_equal(got, ref)
        assert got.tobytes() == ref.tobytes()

class TestStackedAdvection:
    """The stacked kernel against one `advection` call per field, bit for bit."""

    @pytest.mark.parametrize("n, m", [(2, 8), (3, 3)])
    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("solenoidal", [True, False])
    def test_matches_per_field_calls(self, n, m, dealias, solenoidal):
        # unflagged fields take the (div w) w correction
        lat = make_lattice(n, m)
        fields = [
            random_vector_field(seed, lat, decay=2.0, divergence_free=solenoidal)
            for seed in (4, 17, 4, 30)
        ]
        N = dealias_grid(m) if dealias else 2 * m + 1
        coeffs = np.stack([w.coeffs for w in fields])
        div_grid = None if solenoidal else _irfftn_half(_divergence(lat, coeffs)[..., m:], lat, N)
        stack = _advection(lat, _irfftn_half(coeffs[..., m:], lat, N), div_grid)
        assert stack.shape == (len(fields), n) + lat.shape
        for w, got in zip(fields, stack):
            assert got.tobytes() == advection(w, dealias=dealias).coeffs.tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    def test_upper_half_holds_no_negative_zero(self, n):
        # picard_solve adds + 0.0 to the whole flat half of the kernel's
        # result, which must then change only the conjugated entries; fields
        # of a few modes leave most sums exactly zero
        lat = make_lattice(n, 3)
        c = np.zeros((3, n) + lat.shape, np.complex128)
        c[1, 0][(lat.m,) * (n - 1) + (lat.m + 1,)] = -1.5
        c[2, -1][(lat.m + 1,) + (lat.m,) * (n - 1)] = 2.0 - 0.5j
        c = np.stack([_hermitianize_half(lat, z) for z in c])  # zero mean, real fields
        upper = _advection_upper(lat, _irfftn_half(c[..., lat.m :], lat, dealias_grid(lat.m)))
        assert upper.shape == (3, n) + lat.shape[:-1] + (lat.m + 1,)
        for part in (upper.real, upper.imag):
            assert np.count_nonzero(part == 0.0) > part.size // 2
            assert not np.any(np.signbit(part[part == 0.0]))


class TestQuadraticBoundRatio:
    def test_ratio_finite_and_scale_invariant(self):
        w = random_vector_field(5, make_lattice(2, 8), decay=3.0, divergence_free=True)
        ratio, target = advection_bound_ratio(w, 1.0)
        assert np.isfinite(ratio) and ratio > 0
        assert target == pytest.approx(-0.5)  # s = n/2 falls back to s - 3/2
        ratio_scaled, _ = advection_bound_ratio(3.0 * w, 1.0)
        assert ratio_scaled == pytest.approx(ratio, rel=1e-12)

    def test_target_index_ranges(self):
        w = random_vector_field(6, make_lattice(2, 4), decay=3.0, divergence_free=True)
        assert advection_bound_ratio(w, 0.6)[1] == pytest.approx(2 * 0.6 - 1 - 1)
        assert advection_bound_ratio(w, 1.0)[1] == pytest.approx(-0.5)
        assert advection_bound_ratio(w, 2.5)[1] == pytest.approx(1.5)
        w3 = random_vector_field(7, make_lattice(3, 2), decay=3.0, divergence_free=True)
        assert advection_bound_ratio(w3, 1.5)[1] == pytest.approx(0.0)
        assert advection_bound_ratio(w3, 2.0)[1] == pytest.approx(1.0)
        assert advection_bound_ratio(w3, 1.2)[1] == pytest.approx(2 * 1.2 - 1 - 1.5)

    def test_zero_field_ratio(self):
        lat = make_lattice(2, 3)
        w = vector_field(lat, np.zeros((2,) + lat.shape), is_real=True)
        assert advection_bound_ratio(w, 1.0)[0] == 0.0


class TestAprioriBound:
    def test_single_mode_value(self):
        lat = make_lattice(2, 2)
        c = np.zeros((2,) + lat.shape, np.complex128)
        c[0][lat.m + 1, lat.m] = np.sqrt(2.0)
        f = vector_field(lat, c)
        assert sobolev_norm(f, -1.0) == pytest.approx(1.0, rel=1e-14)
        m0 = apriori_velocity_bound(ISO, f)
        assert m0 == pytest.approx(1.0 / (2 * np.pi**2), rel=1e-12)

    def test_zero_forcing(self):
        lat = make_lattice(2, 2)
        f = vector_field(lat, np.zeros((2,) + lat.shape), is_real=True)
        assert apriori_velocity_bound(ISO, f) == 0.0

    def test_homogeneity(self):
        f = random_vector_field(2, make_lattice(2, 4), decay=2.0)
        assert apriori_velocity_bound(ISO, 3.0 * f) == pytest.approx(
            3.0 * apriori_velocity_bound(ISO, f), rel=1e-13
        )


def small_manufactured(seed, amplitude=0.05, m=4, tensor=ISO):
    lat = make_lattice(tensor.n, m)
    u_star = random_vector_field(seed, lat, decay=3.0, divergence_free=True)
    u_star = (amplitude / sobolev_norm(u_star, 1.0)) * u_star
    p_star = amplitude * random_scalar_field(seed + 1, lat, decay=3.0)
    return manufacture(u_star, p_star, tensor, include_nonlinear=True)


class TestPicardSolve:
    def test_zero_forcing_converges_immediately(self):
        lat = make_lattice(2, 3)
        f = vector_field(lat, np.zeros((2,) + lat.shape), is_real=True)
        u, p, report = picard_solve(ISO, f)
        assert report.iterations == 1
        assert np.all(u.coeffs == 0) and np.all(p.coeffs == 0)

    def test_manufactured_recovery(self):
        prob = small_manufactured(10)
        u, p, report = picard_solve(ISO, prob.f)
        assert report.converged
        assert sobolev_norm(u - prob.u_star, 1.0) <= 1e-9
        assert sobolev_norm(p - prob.p_star, 0.0) <= 1e-8
        assert report.final_residual <= 1e-10
        assert report.bound_satisfied
        assert sobolev_norm(divergence(u), 0.0) <= 1e-12

    def test_anisotropic_recovery(self):
        tensor = random_elliptic_tensor(77, 2)
        prob = small_manufactured(11, tensor=tensor)
        u, _, report = picard_solve(tensor, prob.f)
        assert report.converged
        assert sobolev_norm(u - prob.u_star, 1.0) <= 1e-8

    def test_energy_check_recorded(self):
        prob = small_manufactured(12)
        _, _, report = picard_solve(ISO, prob.f)
        assert abs(report.energy_check) <= 1e-11

    def test_residual_function_agrees_with_report(self):
        prob = small_manufactured(13)
        u, p, report = picard_solve(ISO, prob.f)
        assert residual(ISO, u, p, prob.f) == pytest.approx(
            report.final_residual, rel=1e-6, abs=1e-13
        )

    def test_stress_case_contract(self):
        # large amplitude: convergence is not guaranteed, but any outcome
        # must keep its report honest
        prob = small_manufactured(14, amplitude=5.0)
        try:
            u, _, report = picard_solve(ISO, prob.f, NSSolveOptions(max_iterations=60))
        except (Diverged, MaxIterationsExceeded) as exc:
            assert len(exc.report.residual_history) == exc.report.iterations
            assert not exc.report.converged
        else:
            assert report.final_residual <= 1e-10
            assert sobolev_norm(u, 1.0) <= report.m0 + 1e-9

    def test_max_iterations_raises_with_report(self):
        prob = small_manufactured(15)
        with pytest.raises(MaxIterationsExceeded) as err:
            picard_solve(ISO, prob.f, NSSolveOptions(tol=1e-30, max_iterations=3))
        assert err.value.report.iterations == 3

    def test_zero_initial_guess_also_converges(self):
        prob = small_manufactured(16)
        u, _, report = picard_solve(ISO, prob.f, NSSolveOptions(initial_guess="zero"))
        assert report.converged
        assert sobolev_norm(u - prob.u_star, 1.0) <= 1e-9

    def test_forcing_mean_flagged_once_and_dropped(self):
        prob = small_manufactured(17, m=3)  # nonlinear: the forcing lives on m=6
        lat = prob.f.lattice
        c = prob.f.coeffs.copy()
        c[(slice(None),) + lat.zero_index] = 0.3 * np.max(np.abs(c))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            u, p, report = picard_solve(ISO, vector_field(lat, c, is_real=True))
        flagged = [w for w in caught if issubclass(w.category, NonzeroMeanWarning)]
        assert len(flagged) == 1 and flagged[0].filename == __file__
        assert ("mean_removed_f", 1) in report.flat_items()
        u0, p0, clean = picard_solve(ISO, prob.f)
        assert ("mean_removed_f", 0) in clean.flat_items()
        assert report.m0 == clean.m0 and report.iterations == clean.iterations
        assert np.array_equal(u.coeffs, u0.coeffs) and np.array_equal(p.coeffs, p0.coeffs)

    def test_factors_the_stokes_symbol_once(self, monkeypatch):
        import tsflow.navier_stokes as ns

        real, built = ns._half_block, []

        def counting(tensor, lattice, lo, hi):
            built.append((lo, hi))
            return real(tensor, lattice, lo, hi)

        monkeypatch.setattr(ns, "_half_block", counting)
        u_star = random_vector_field(30, make_lattice(2, 3), decay=3.0, divergence_free=True)
        u_star = (0.05 / sobolev_norm(u_star, 1.0)) * u_star
        prob = manufacture(u_star, 0.05 * random_scalar_field(31, u_star.lattice), ISO, True)
        _, _, report = picard_solve(ISO, prob.f)
        assert report.converged and report.iterations > 2
        assert built == [(0, prob.f.lattice.size // 2)]  # one build, of the whole half

    def test_options_validation(self):
        with pytest.raises(ValueError):
            NSSolveOptions(relaxation=0.0)
        with pytest.raises(ValueError):
            NSSolveOptions(tol=-1.0)
        with pytest.raises(ValueError):
            NSSolveOptions(max_iterations=0)
        with pytest.raises(ValueError):
            NSSolveOptions(initial_guess="newton")

    @pytest.mark.parametrize("tol", [np.inf, np.nan, -np.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        # inf would accept the first pass, nan would never stop
        with pytest.raises(ValueError, match="positive and finite"):
            NSSolveOptions(tol=tol)

    @pytest.mark.parametrize("n", [1, 4])
    def test_other_dimensions_rejected(self, n):
        # no forcing exists outside DIMENSIONS; inside it, a tensor of the
        # other dimension is rejected before the first pass
        with pytest.raises(ValueError, match=f"n={n} is not in DIMENSIONS"):
            make_lattice(n, 1)
        lat = make_lattice(2, 1)
        f = vector_field(lat, np.zeros((2,) + lat.shape), is_real=True, divergence_free=True)
        with pytest.raises(ValueError, match="tensor dimension 3 does not match field n=2"):
            picard_solve(make_isotropic(0.0, 1.0, 3), f)

    def test_holds_only_what_the_next_pass_reads(self):
        # f on m=16 (H = 17,968 modes, a 50^3 product grid): the velocity
        # blocks (1.2 MiB), inverses (2.2), one sample buffer (2.9), the half
        # stacks (modes, weights, split forcing, right-hand side, iterate:
        # 3.3) and one product's transform temporaries in the advection
        # kernel (about 3.8) peak at 13.6 MiB; holding the whole symbols,
        # the last pass's temporaries and the whole-stack transform put the
        # peak at 19.2 MiB
        import tracemalloc

        prob = small_manufactured(40, amplitude=0.5, m=8, tensor=ISO3)
        _, _, report = picard_solve(ISO3, prob.f)  # fills the per-lattice caches
        assert report.converged and report.iterations > 3
        tracemalloc.start()
        try:
            picard_solve(ISO3, prob.f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def full_field_picard(tensor, f, opts):
    """The Picard loop on whole fields, the reference of picard_solve's half-stack passes.

    Each pass solves the incompressible system for f - (u . grad) u with
    `solve_stokes` and no divergence data, so the comparison also holds
    picard_solve's whole-half stacks against the streamed solve. It measures
    `apply_viscosity` of u - u_lin in H^{-1} with `sobolev_norm`, and
    relaxes the whole field; the report is kept as picard_solve keeps it.
    """
    lat = f.lattice
    report = NSSolveReport(m0=apriori_velocity_bound(tensor, f))
    report.mean_removed_f = _nonzero_mean(lat, f.coeffs, "forcing")
    if report.mean_removed_f:
        f = _without_mean(f)
    omega = opts.relaxation
    if opts.initial_guess == "stokes":
        u, _, _ = solve_stokes(tensor, f)
    else:
        u = vector_field(lat, np.zeros((lat.n,) + lat.shape), is_real=True, divergence_free=True)
    prev = np.inf
    for iteration in range(1, opts.max_iterations + 1):
        report.iterations = iteration
        bu = advection(u, dealias=opts.dealias)
        u_lin, p_lin, _ = solve_stokes(tensor, f - bu)
        res = sobolev_norm(apply_viscosity(tensor, u - u_lin), -1.0)
        report.residual_history.append(res)
        report.final_residual = res
        report.omega_final = omega
        if not np.isfinite(res):
            report.diverged = True
            raise Diverged("non-finite defect", report)
        if res <= opts.tol:
            report.converged = True
            report.velocity_norm = seminorm(u, 1.0)
            report.bound_satisfied = report.velocity_norm <= report.m0 + 1e-9
            report.energy_check = inner(bu, u).real
            return u, p_lin, report
        if res > prev:
            if omega <= OMEGA_FLOOR:
                report.diverged = True
                raise Diverged("defect grew at the floor", report)
            omega = max(0.5 * omega, OMEGA_FLOOR)
        u = (1.0 - omega) * u + omega * u_lin
        prev = res
    raise MaxIterationsExceeded("budget exhausted", report)


def _outcome(solve, tensor, f, opts):
    """(u, p, report, exception type) of one solve; u and p are None on failure."""
    try:
        u, p, report = solve(tensor, f, opts)
    except (Diverged, MaxIterationsExceeded) as exc:
        return None, None, exc.report, type(exc)
    return u, p, report, None


def manufactured_forcing(amplitude, tensor):
    return small_manufactured(60, amplitude, m=4 if tensor.n == 2 else 2, tensor=tensor).f


def _assert_matches_full_field(tensor, f, opts):
    """Run both loops; u, p and the report agree but for the residuals' last bits."""
    u, p, got, err = _outcome(picard_solve, tensor, f, opts)
    u0, p0, ref, err0 = _outcome(full_field_picard, tensor, f, opts)
    assert err is err0
    if err is None:
        assert u.coeffs.tobytes() == u0.coeffs.tobytes()  # signed zeros too
        assert p.coeffs.tobytes() == p0.coeffs.tobytes()
        assert (u.is_real, u.zero_mean, u.divergence_free) == (True, True, True)
        assert (p.is_real, p.zero_mean) == (True, True)
    for key in ("iterations", "converged", "diverged", "omega_final", "bound_satisfied",
                "velocity_norm", "energy_check", "mean_removed_f", "m0"):
        assert getattr(got, key) == getattr(ref, key), key
    # the half's sum of squares rounds in another order than the cube's
    assert len(got.residual_history) == len(ref.residual_history)
    np.testing.assert_array_max_ulp(got.residual_history, ref.residual_history, maxulp=4)
    np.testing.assert_array_max_ulp(got.final_residual, ref.final_residual, maxulp=4)
    return got, err


class TestHalfStackPasses:
    """picard_solve's passes on the Hermitian half against the whole-field loop."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("amplitude", [0.05, 1.0, 5.0])
    @pytest.mark.parametrize("relaxation", [1.0, 0.5])
    @pytest.mark.parametrize("guess", ["stokes", "zero"])
    @pytest.mark.parametrize("anisotropic", [False, True])
    def test_matches_full_field_loop(self, n, amplitude, relaxation, guess, anisotropic):
        tensor = random_elliptic_tensor(70 + n, n) if anisotropic else make_isotropic(0.0, 1.0, n)
        f = manufactured_forcing(amplitude, tensor)
        opts = NSSolveOptions(relaxation=relaxation, initial_guess=guess, max_iterations=40)
        _assert_matches_full_field(tensor, f, opts)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_full_field_loop_on_the_aliased_grid(self, n):
        tensor = random_elliptic_tensor(70 + n, n)
        f = manufactured_forcing(1.0, tensor)
        _assert_matches_full_field(tensor, f, NSSolveOptions(dealias=False, max_iterations=40))

    @pytest.mark.parametrize(
        "n, amplitude, outcome",
        [(2, 10.0, MaxIterationsExceeded), (2, 20.0, Diverged), (3, 40.0, Diverged)],
    )
    def test_matches_full_field_loop_as_omega_halves(self, n, amplitude, outcome):
        tensor = random_elliptic_tensor(70 + n, n)
        f = manufactured_forcing(amplitude, tensor)
        report, err = _assert_matches_full_field(tensor, f, NSSolveOptions(max_iterations=40))
        assert err is outcome
        assert report.omega_final < 1.0

    @pytest.mark.parametrize("guess", ["stokes", "zero"])
    def test_matches_full_field_loop_on_zero_forcing(self, guess):
        # every coefficient is an exact zero, so every sign bit is compared
        lat = make_lattice(3, 2)
        f = vector_field(lat, np.zeros((3,) + lat.shape), is_real=True, divergence_free=True)
        report, _ = _assert_matches_full_field(ISO3, f, NSSolveOptions(initial_guess=guess))
        assert report.iterations == 1

    @pytest.mark.parametrize("guess", ["stokes", "zero"])
    def test_divergence_defect_raises(self, monkeypatch, guess):
        # skewed inverses leave u_lin with a divergence; the check is an
        # explicit raise, so it also holds under python -O
        import tsflow.stokes as stokes_mod

        real = stokes_mod._invert

        def skewed(R, xis):
            inv = real(R, xis)
            inv[:, 0] += 1e-6 * np.max(np.abs(inv))
            return inv

        # Picard's whole-half stacks and every block of solve_stokes are skewed
        monkeypatch.setattr(stokes_mod, "_invert", skewed)
        f = manufactured_forcing(0.05, ISO)
        opts = NSSolveOptions(initial_guess=guess)
        # a Picard pass and solve_stokes(f) raise from one check
        for solve in (picard_solve, full_field_picard):
            with pytest.raises(NotSolenoidal) as caught:
                solve(ISO, f, opts)
            assert caught.traceback[-1].name == "_check_solenoidal"
            assert str(caught.traceback[-1].path) == stokes_mod.__file__


class TestPassCalls:
    """A Picard pass joins one cube per velocity component and splits one advection cube."""

    NAMES = ("_join", "_split", "_hermitian_from_upper", "grid_transform", "advection")

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_pass_makes_the_same_calls(self, monkeypatch, n):
        # every module's reference to the cube builders and the cube
        # transforms counts its calls; the forcing's split and the cubes at
        # convergence are made once, so 3, 4 and 10 passes differ only by
        # the calls of whole passes, and no pass samples or advects a cube
        # field through the public transforms
        import tsflow.navier_stokes as ns_mod
        import tsflow.spectral as spectral_mod
        import tsflow.stokes as stokes_mod
        import tsflow.viscosity as viscosity_mod

        calls = dict.fromkeys(self.NAMES, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for mod in (spectral_mod, stokes_mod, viscosity_mod, ns_mod):
            for name in self.NAMES:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
        tensor = random_elliptic_tensor(72, n)
        f = manufactured_forcing(1.0, tensor)
        history = picard_solve(tensor, f)[2].residual_history
        counts = {}
        for passes in (3, 4, 10):
            calls.update(dict.fromkeys(self.NAMES, 0))
            _, _, report = picard_solve(tensor, f, NSSolveOptions(tol=history[passes - 1]))
            assert report.converged and report.iterations == passes
            counts[passes] = dict(calls)
        per_pass = {name: counts[4][name] - counts[3][name] for name in self.NAMES}
        assert per_pass == {
            "_join": n, "_split": 1, "_hermitian_from_upper": 1, "grid_transform": 0, "advection": 0
        }
        assert all(counts[10][k] - counts[3][k] == 7 * per_pass[k] for k in self.NAMES)
        assert counts[3]["grid_transform"] == counts[3]["advection"] == 0

    def test_samples_from_one_component_cube(self, monkeypatch):
        # at every _irfftn_half call of a pass, the memory traced above the
        # pass's entry is one component's joined cube and little else; the
        # xi_n >= 0 half of the whole iterate, n (m+1) / (2m+1) cubes, read
        # 1.548 cubes here (n=3, f on m=16)
        import tracemalloc

        import tsflow.navier_stokes as ns_mod

        f = small_manufactured(40, amplitude=0.5, m=8, tensor=ISO3).f
        cube = 16 * f.lattice.size  # bytes of one complex cube on the forcing's lattice
        entry, above = [], []
        real_pass, real_sample = ns_mod._picard_pass, ns_mod._irfftn_half

        def traced_pass(*args):
            entry.append(tracemalloc.get_traced_memory()[0])
            return real_pass(*args)

        def traced_sample(*args, **kwargs):
            above.append(tracemalloc.get_traced_memory()[0] - entry[-1])
            return real_sample(*args, **kwargs)

        picard_solve(ISO3, f)  # fills the per-lattice caches
        monkeypatch.setattr(ns_mod, "_picard_pass", traced_pass)
        monkeypatch.setattr(ns_mod, "_irfftn_half", traced_sample)
        tracemalloc.start()
        try:
            _, _, report = picard_solve(ISO3, f)
        finally:
            tracemalloc.stop()
        assert report.converged and len(above) == 3 * report.iterations
        assert max(above) <= 1.25 * cube


class TestResidual:
    def test_zero_guess_equals_forcing_norm(self):
        lat = make_lattice(2, 4)
        f = random_vector_field(20, lat, decay=2.0)
        u = vector_field(lat, np.zeros((2,) + lat.shape), is_real=True)
        p = 0.0 * random_scalar_field(21, lat)
        assert residual(ISO, u, p, f) == pytest.approx(sobolev_norm(f, -1.0), rel=1e-13)

    def test_exact_solution_resolves(self):
        prob = small_manufactured(22)
        value = residual(ISO, prob.u_star, prob.p_star, prob.f)
        assert value <= 1e-11

    def test_small_perturbation_moves_residual_continuously(self):
        prob = small_manufactured(23)
        lat = prob.u_star.lattice
        eps = 1e-6
        bump = np.zeros((2,) + lat.shape, np.complex128)
        bump[1][lat.m + 1, lat.m] = eps
        bump[1][lat.m - 1, lat.m] = eps
        u_pert = prob.u_star + vector_field(lat, bump, is_real=True)
        base = residual(ISO, prob.u_star, prob.p_star, prob.f)
        moved = residual(ISO, u_pert, prob.p_star, prob.f)
        assert moved > base
        assert moved - base <= 100.0 * eps


class TestRegularitySlope:
    def test_synthetic_power_law(self):
        u = random_vector_field(30, make_lattice(2, 32), decay=4.0, divergence_free=True)
        fit = regularity_slope(u)
        assert fit.slope == pytest.approx(4.0, abs=0.2)
        assert fit.sobolev_index == pytest.approx(fit.slope - 1.0)

    def test_band_limited_reports_infinite_slope(self):
        from tsflow.spectral import embed_field

        w = embed_field(taylor_green(m=2), 32)
        assert regularity_slope(w).slope == np.inf

    def test_too_few_shells(self):
        u = random_vector_field(31, make_lattice(2, 4), decay=2.0)
        with pytest.raises(ValueError):
            regularity_slope(u)

    def test_zero_field_rejected(self):
        lat = make_lattice(2, 8)
        w = vector_field(lat, np.zeros((2,) + lat.shape), is_real=True)
        with pytest.raises(ValueError):
            regularity_slope(w)
