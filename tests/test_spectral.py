"""Core field representation: norms, calculus, projections, transforms."""

import contextlib
import dataclasses
import itertools

import numpy as np
import pytest

from tsflow.spectral import (
    DIMENSIONS,
    TWO_PI,
    AliasingWarning,
    NonzeroMeanWarning,
    SpectralScalarField,
    SpectralVectorField,
    _flip,
    _half_from_upper,
    _half_modes,
    _hermitian_from_upper,
    _hermitianize_half,
    _irfftn_half,
    _join,
    _join_rows,
    _random_scalars,
    _random_vectors,
    _rfftn_half,
    _split,
    _squares,
    _upper_from_half,
    _weighted_norms,
    ball_filter,
    divergence,
    embed_field,
    dealias_grid,
    grid_transform,
    gradient,
    index_grids,
    inner,
    leray_project,
    make_lattice,
    mode_abs2,
    random_scalar_field,
    random_vector_field,
    restrict_field,
    rho2,
    sampling_transform,
    scalar_field,
    seminorm,
    sobolev_norm,
    symmetric_gradient,
    vector_field,
    zero_scalar_field,
)


def single_mode_scalar(lattice, xi, value=1.0, conjugate_pair=False):
    c = np.zeros(lattice.shape, np.complex128)
    pos = tuple(x + lattice.m for x in xi)
    c[pos] = value
    if conjugate_pair:
        neg = tuple(-x + lattice.m for x in xi)
        c[neg] = np.conj(value)
    return scalar_field(lattice, c, is_real=conjugate_pair, zero_mean=all(x == 0 for x in xi) is False)


def single_mode_vector(lattice, xi, values, conjugate_pair=False):
    c = np.zeros((lattice.n,) + lattice.shape, np.complex128)
    pos = tuple(x + lattice.m for x in xi)
    for j, v in enumerate(values):
        c[(j,) + pos] = v
        if conjugate_pair:
            neg = tuple(-x + lattice.m for x in xi)
            c[(j,) + neg] = np.conj(v)
    return vector_field(lattice, c, is_real=conjugate_pair)


class TestLattice:
    def test_active_counts(self):
        assert make_lattice(2, 1).size == 9
        assert make_lattice(3, 2).size == 125

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            make_lattice(2, 0)
        with pytest.raises(ValueError):
            make_lattice(0, 4)

    def test_canonical_order_is_lexicographic(self):
        idx = make_lattice(2, 1).indices()
        assert idx[0].tolist() == [-1, -1]
        assert idx[1].tolist() == [-1, 0]
        assert idx[-1].tolist() == [1, 1]

    def test_rho_bound_on_every_nonzero_mode(self):
        # 0.5*rho^2 <= |xi|^2 <= rho^2 away from the origin
        lat = make_lattice(3, 4)
        a2 = sum(g.astype(float) ** 2 for g in index_grids(lat))
        r2 = rho2(lat)
        nz = a2 > 0
        assert np.all(0.5 * r2[nz] <= a2[nz])
        assert np.all(a2[nz] <= r2[nz])


class TestNorms:
    def test_single_mode_h1(self):
        lat = make_lattice(2, 2)
        g = single_mode_scalar(lat, (1, 0))
        assert sobolev_norm(g, 1.0) == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert sobolev_norm(g, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_zero_field(self):
        lat = make_lattice(2, 2)
        for s in (-1.0, 0.0, 2.5):
            assert sobolev_norm(zero_scalar_field(lat), s) == 0.0

    def test_seminorm_drops_mean(self):
        lat = make_lattice(2, 2)
        c = np.zeros(lat.shape, np.complex128)
        c[lat.zero_index] = 5.0
        const = scalar_field(lat, c)
        assert seminorm(const, 2.0) == 0.0
        # a huge mean is left out of the sum, not cancelled from it, so a
        # mode below its rounding survives
        c[lat.zero_index] = 1e10
        c[lat.m, lat.m + 1] = 1e-3
        assert seminorm(scalar_field(lat, c), 0.0) == pytest.approx(1e-3, rel=1e-15)

    @pytest.mark.parametrize("n, m", [(2, 4), (3, 3)])
    def test_squared_moduli_match_abs(self, n, m):
        # re^2 + im^2 against the |c|^2 of np.abs it replaced: a reordered
        # rounding, held to a few units in the last place
        lat = make_lattice(n, m)
        for fld in flagged_fields(n, m, 70 + n):
            a = np.abs(fld.coeffs) ** 2
            ref = np.sum(a, axis=0) if isinstance(fld, SpectralVectorField) else a
            squares = _squares(lat, fld.coeffs[None])[0]
            np.testing.assert_allclose(squares, ref, rtol=4 * np.finfo(float).eps)
            assert squares.shape == lat.shape

    def test_pythagorean_split(self):
        # mean 3 plus unit mode of size 4: seminorm 4, full norm 5
        lat = make_lattice(2, 2)
        c = np.zeros(lat.shape, np.complex128)
        c[lat.zero_index] = 3.0
        c[lat.m, lat.m + 1] = 4.0
        g = scalar_field(lat, c)
        assert seminorm(g, 0.0) == pytest.approx(4.0, rel=1e-15)
        assert sobolev_norm(g, 0.0) == pytest.approx(5.0, rel=1e-15)

    def test_monotone_in_s(self):
        g = random_scalar_field(7, make_lattice(2, 6), decay=2.0)
        norms = [sobolev_norm(g, s) for s in (-2, -1, 0, 0.5, 1, 2)]
        assert all(a <= b + 1e-15 for a, b in zip(norms, norms[1:]))


class TestStackedNorms:
    @pytest.mark.parametrize("n, m", [(2, 4), (3, 2)])
    def test_stack_matches_per_field_norms(self, n, m):
        # oracle: sobolev_norm and seminorm of each field of the stack
        lat = make_lattice(n, m)
        fields = [random_vector_field(seed, lat, 1.0, False) for seed in (3, 4, 5)]
        squares = _squares(lat, np.stack([fld.coeffs for fld in fields]))
        for s in (-2.0, 0.0, 1.0, 2.0):
            full = _weighted_norms(lat, squares, s)
            semi = _weighted_norms(lat, squares, s, mean=False)
            for k, fld in enumerate(fields):
                assert full[k] == sobolev_norm(fld, s)
                assert semi[k] == seminorm(fld, s)


class TestCalculus:
    def test_gradient_single_mode(self):
        lat = make_lattice(2, 2)
        g = single_mode_scalar(lat, (1, 0))
        du = gradient(g)
        pos = (lat.m + 1, lat.m)
        assert du.coeffs[0][pos] == pytest.approx(2j * np.pi)
        assert np.all(du.coeffs[1] == 0)

    def test_gradient_of_constant_vanishes(self):
        lat = make_lattice(2, 2)
        c = np.zeros(lat.shape, np.complex128)
        c[lat.zero_index] = 4.2
        assert np.all(gradient(scalar_field(lat, c)).coeffs == 0)

    def test_gradient_preserves_reality(self):
        g = random_scalar_field(3, make_lattice(2, 4))
        du = gradient(g)
        flipped = np.conj(du.coeffs[:, ::-1, ::-1])
        np.testing.assert_allclose(du.coeffs, flipped, atol=0)

    def test_divergence_single_modes(self):
        lat = make_lattice(2, 2)
        u = single_mode_vector(lat, (1, 0), (1.0, 0.0))
        pos = (lat.m + 1, lat.m)
        assert divergence(u).coeffs[pos] == pytest.approx(2j * np.pi)
        v = single_mode_vector(lat, (1, 0), (0.0, 1.0))
        assert np.all(divergence(v).coeffs == 0)

    def test_divergence_of_gradient_is_laplacian(self):
        lat = make_lattice(2, 5)
        g = random_scalar_field(11, lat)
        lap = divergence(gradient(g))
        a2 = sum(gr.astype(float) ** 2 for gr in index_grids(lat))
        np.testing.assert_allclose(
            lap.coeffs, -4 * np.pi**2 * a2 * g.coeffs, rtol=0, atol=1e-13
        )

    def test_leray_cases(self):
        lat = make_lattice(2, 2)
        transverse = single_mode_vector(lat, (1, 0), (0.0, 1.0))
        np.testing.assert_allclose(leray_project(transverse).coeffs, transverse.coeffs, atol=0)
        parallel = single_mode_vector(lat, (1, 0), (1.0, 0.0))
        assert np.all(leray_project(parallel).coeffs == 0)
        mixed = single_mode_vector(lat, (1, 0), (1.0, 1.0))
        proj = leray_project(mixed)
        pos = (lat.m + 1, lat.m)
        assert proj.coeffs[0][pos] == 0
        assert proj.coeffs[1][pos] == pytest.approx(1.0)

    def test_leray_idempotent_and_nonexpansive(self):
        u = random_vector_field(5, make_lattice(3, 3), decay=1.5)
        pu = leray_project(u)
        ppu = leray_project(pu)
        np.testing.assert_allclose(ppu.coeffs, pu.coeffs, atol=1e-15)
        for s in (-1.0, 0.0, 1.0, 2.0):
            assert sobolev_norm(pu, s) <= sobolev_norm(u, s) + 1e-14

    def test_divergence_after_projection_vanishes(self):
        u = random_vector_field(9, make_lattice(2, 6), decay=1.0)
        div = divergence(leray_project(u))
        assert sobolev_norm(div, 0.0) <= 1e-13 * sobolev_norm(u, 1.0)

    def test_symmetric_gradient_single_mode(self):
        lat = make_lattice(2, 2)
        u = single_mode_vector(lat, (1, 0), (0.0, 1.0))
        E = symmetric_gradient(u)
        pos = (lat.m + 1, lat.m)
        assert E[0, 1][pos] == pytest.approx(1j * np.pi)
        assert E[1, 0][pos] == pytest.approx(1j * np.pi)
        assert E[0, 0][pos] == 0 and E[1, 1][pos] == 0

    def test_symmetric_gradient_of_potential_flow(self):
        # for u = grad(phi) the full gradient is already symmetric
        lat = make_lattice(2, 4)
        u = gradient(random_scalar_field(2, lat))
        E = symmetric_gradient(u)
        grids = index_grids(lat)
        full = np.empty_like(E)
        for j in range(2):
            for b in range(2):
                full[j, b] = 2j * np.pi * grids[j] * u.coeffs[b]
        np.testing.assert_allclose(E, full, atol=1e-12)

    def test_constant_velocity_is_rigid(self):
        lat = make_lattice(2, 2)
        c = np.zeros((2,) + lat.shape, np.complex128)
        c[0][lat.zero_index] = 1.0
        u = vector_field(lat, c)
        assert np.all(symmetric_gradient(u) == 0)


class TestGridTransforms:
    def test_single_mode_samples(self):
        lat = make_lattice(2, 1)
        g = single_mode_scalar(lat, (1, 0))
        N = 8
        samples = grid_transform(g, N)
        k = np.arange(N)
        expected = np.exp(2j * np.pi * k / N)[:, None] * np.ones((1, N))
        np.testing.assert_allclose(samples, expected, atol=1e-14)

    def test_constant_field_samples(self):
        lat = make_lattice(2, 1)
        c = np.zeros(lat.shape, np.complex128)
        c[lat.zero_index] = 3.5
        samples = grid_transform(scalar_field(lat, c, is_real=True), 5)
        np.testing.assert_allclose(samples, 3.5, atol=1e-14)

    def test_matches_direct_series_evaluation(self):
        # oracle: explicit double loop over modes and grid points
        lat = make_lattice(2, 2)
        g = random_scalar_field(4, lat, decay=1.0)
        N = 2 * lat.m + 1
        direct = np.zeros((N, N), np.complex128)
        for xi in lat.indices():
            ghat = g.coeffs[tuple(xi + lat.m)]
            for k1 in range(N):
                for k2 in range(N):
                    x = np.array([k1, k2]) / N
                    direct[k1, k2] += ghat * np.exp(2j * np.pi * x @ xi)
        np.testing.assert_allclose(grid_transform(g, N), direct.real, atol=1e-12)

    def test_round_trip_identity(self):
        lat = make_lattice(2, 4)
        g = random_scalar_field(12, lat, decay=0.5)
        N = 2 * lat.m + 1
        back = sampling_transform(grid_transform(g, N), lat)
        np.testing.assert_allclose(back.coeffs, g.coeffs, atol=1e-12)

    def test_round_trip_starting_from_samples(self):
        # grid -> coefficients -> grid at the critical point count
        lat = make_lattice(2, 3)
        N = 2 * lat.m + 1
        rng = np.random.default_rng(14)
        samples = rng.standard_normal((N, N))
        g = sampling_transform(samples, lat)
        np.testing.assert_allclose(grid_transform(g, N), samples, atol=1e-12)

    def test_vector_round_trip(self):
        lat = make_lattice(3, 2)
        u = random_vector_field(1, lat, decay=0.5, divergence_free=True)
        back = sampling_transform(grid_transform(u, 2 * lat.m + 1), lat)
        np.testing.assert_allclose(back.coeffs, u.coeffs, atol=1e-12)

    def test_warns_on_coarse_grid(self):
        lat = make_lattice(2, 3)
        g = random_scalar_field(8, lat)
        with pytest.warns(AliasingWarning):
            grid_transform(g, 2 * lat.m)

    def test_sampling_warning_names_the_caller(self):
        # sampling_transform warns through the one aliasing check, at this file
        lat = make_lattice(2, 3)
        samples = np.random.default_rng(9).standard_normal((4, 4))
        with pytest.warns(AliasingWarning, match="grid of 4 points per axis") as caught:
            sampling_transform(samples, lat)
        assert [w.filename for w in caught] == [__file__]

    @pytest.mark.parametrize("n, N", [(2, 9), (2, 10), (3, 8), (3, 12)])
    def test_real_path_matches_complex_path(self, n, N):
        # the real FFT path against the full complex one on the same data
        lat = make_lattice(n, 3)
        u = random_vector_field(31, lat, decay=1.0)
        as_complex = vector_field(lat, u.coeffs)
        real = grid_transform(u, N)
        assert not np.iscomplexobj(real)
        np.testing.assert_allclose(real, grid_transform(as_complex, N).real, atol=1e-13)
        back = sampling_transform(real, lat)
        ref = sampling_transform(real.astype(np.complex128), lat, is_real=True)
        np.testing.assert_allclose(back.coeffs, ref.coeffs, atol=1e-14)
        np.testing.assert_allclose(back.coeffs, u.coeffs, atol=1e-13)
        c = back.coeffs
        assert np.array_equal(c, np.conj(np.flip(c, axis=tuple(range(1, n + 1)))))

    def test_dealias_grid_is_five_smooth(self):
        assert [dealias_grid(m) for m in (1, 2, 4, 8, 16, 24, 32)] == [4, 8, 15, 25, 50, 75, 100]
        for m in range(1, 60):
            N = dealias_grid(m)
            assert N >= 3 * m + 1
            k = N
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            assert k == 1

    def test_parseval_mean_square(self):
        lat = make_lattice(2, 5)
        g = random_scalar_field(21, lat, decay=1.0)
        N = 2 * lat.m + 1
        samples = grid_transform(g, N)
        grid_ms = np.sum(np.abs(samples) ** 2) / N**2
        assert grid_ms == pytest.approx(sobolev_norm(g, 0.0) ** 2, rel=1e-12)


def _full_half_blocks(lat, N):
    # (half-spectrum slices, cube slices) pairs: every full axis in two
    # corner blocks, the last axis xi_n >= 0 only
    m = lat.m
    axis = ((slice(0, m + 1), slice(m, 2 * m + 1)), (slice(N - m, N), slice(0, m)))
    for pieces in itertools.product(*([axis] * (lat.n - 1) + [axis[:1]])):
        yield tuple(p[0] for p in pieces), tuple(p[1] for p in pieces)


def full_grid_transform(field, N):
    """The unpruned real transform: irfftn of the whole zero-padded half spectrum."""
    lat = field.lattice

    def one(coeffs):
        spec = np.zeros((N,) * (lat.n - 1) + (N // 2 + 1,), np.complex128)
        for dst, src in _full_half_blocks(lat, N):
            spec[dst] = coeffs[src]
        return np.fft.irfftn(spec, s=(N,) * lat.n, axes=range(lat.n), norm="forward")

    if field.coeffs.ndim > lat.n:
        return np.stack([one(c) for c in field.coeffs])
    return one(field.coeffs)


def full_sampling_transform(samples, lat):
    """The unpruned real inverse: rfftn, block copies, then a Hermitian fill."""
    m, N = lat.m, samples.shape[-1]

    def one(grid):
        spec = np.fft.rfftn(grid, norm="forward")
        c = np.empty(lat.shape, np.complex128)
        for src, dst in _full_half_blocks(lat, N):
            c[dst] = spec[src]
        c[..., :m] = np.conj(np.flip(c[..., m + 1 :]))
        plane = c[..., m]
        c[..., m] = 0.5 * (plane + np.conj(np.flip(plane)))
        return c

    if samples.ndim > lat.n:
        return np.stack([one(g) for g in samples])
    return one(samples)


def assert_same_bits(a, b):
    np.testing.assert_array_equal(a, b)
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()  # signed zeros too


# (2, 1, 3): the smallest lattice on its one alias-free grid; (3, 3, 8): the
# even grid one past the smallest
PRUNED_CASES = [(2, 1, 3), (2, 4, 9), (2, 4, 16), (2, 8, 25), (3, 3, 7), (3, 3, 8), (3, 4, 15),
                (3, 16, 50)]


class TestPrunedTransforms:
    """The pruned real transforms against the full numpy transforms, bit for bit."""

    @pytest.mark.parametrize("n, m, N", PRUNED_CASES)
    @pytest.mark.parametrize("vector", [False, True])
    def test_grid_transform_matches_full_irfftn(self, n, m, N, vector):
        lat = make_lattice(n, m)
        if vector:
            fld = random_vector_field(60 + n, lat, decay=1.0)
        else:
            fld = random_scalar_field(60 + n, lat, decay=1.0, zero_mean=False)
        assert_same_bits(grid_transform(fld, N), full_grid_transform(fld, N))

    @pytest.mark.parametrize("n, m, N", PRUNED_CASES[:-1])
    @pytest.mark.parametrize("lead", [(5,), (2, 3)])
    def test_leading_axes_match_per_slice_calls(self, n, m, N, lead):
        # oracle: _irfftn_half on each slice of the stack on its own
        lat = make_lattice(n, m)
        rng = np.random.default_rng(80 + n)
        shape = lead + lat.shape[:-1] + (m + 1,)
        half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        stacked = _irfftn_half(half, lat, N)
        assert stacked.shape == lead + (N,) * n
        for k in np.ndindex(*lead):
            assert_same_bits(stacked[k], _irfftn_half(half[k], lat, N))
        # into a buffer that already holds other samples, as Picard's passes reuse one
        buf = np.full(lead + (N,) * n, np.nan)
        assert _irfftn_half(half, lat, N, out=buf) is buf
        assert_same_bits(buf, stacked)

    @pytest.mark.parametrize("n, m, N", PRUNED_CASES)
    @pytest.mark.parametrize("vector", [False, True])
    def test_sampling_transform_matches_full_rfftn(self, n, m, N, vector):
        lat = make_lattice(n, m)
        rng = np.random.default_rng(70 + n)
        samples = rng.standard_normal(((n,) if vector else ()) + (N,) * n)
        got = sampling_transform(samples, lat)
        assert got.is_real
        assert_same_bits(got.coeffs, full_sampling_transform(samples, lat))

    def test_zero_plane_is_averaged(self):
        # rfftn leaves the xi_n = 0 plane Hermitian only to rounding; the
        # averaged plane must be exactly Hermitian
        lat = make_lattice(3, 4)
        samples = np.random.default_rng(5).standard_normal((15,) * 3)
        raw = np.fft.rfftn(samples, norm="forward")[..., 0]
        ix = np.ix_(*([np.arange(-4, 5) % 15] * 2))
        assert not np.array_equal(raw[ix], np.conj(np.flip(raw[ix])))
        plane = sampling_transform(samples, lat).coeffs[..., lat.m]
        assert np.array_equal(plane, np.conj(np.flip(plane)))


# (n, m, N): the smallest alias-free grid 2m+1, a larger one, and an aliased 2m-1
# (at m = 1, the smallest lattice, a grid of one point)
STACK_CASES = [
    (n, m, N) for n, m in ((2, 1), (2, 4), (3, 3)) for N in (2 * m + 1, 2 * m + 6, 2 * m - 1)
]


def _stack_cases():
    # (helper, n, m, N, is_real, lead) for every case the helper takes: the
    # public transforms stack the n components of a vector field, _rfftn_half
    # and _flip any leading axes; _rfftn_half takes real samples on
    # alias-free grids only, and _flip has no grid (one N suffices)
    for n, m, N in STACK_CASES:
        for is_real in (True, False):
            for helper in ("grid_transform", "sampling_transform"):
                yield helper, n, m, N, is_real, (n,)
            for lead in ((3,), (2, 3)):
                if N == 2 * m + 1:
                    yield "_flip", n, m, N, is_real, lead
                if is_real and N > 2 * m:
                    yield "_rfftn_half", n, m, N, is_real, lead


def _case_id(value):
    if isinstance(value, tuple):
        return "lead" + "x".join(map(str, value))
    if isinstance(value, bool):
        return "real" if value else "complex"
    return str(value)


def _stacked_input(helper, lat, N, is_real, lead, seed):
    rng = np.random.default_rng(seed)
    if helper == "grid_transform":
        if is_real:
            return random_vector_field(seed, lat, decay=1.0)
        z = rng.standard_normal(lead + lat.shape) + 1j * rng.standard_normal(lead + lat.shape)
        return vector_field(lat, z)
    shape = lead + (lat.shape if helper == "_flip" else (N,) * lat.n)
    data = rng.standard_normal(shape)
    return data if is_real and helper != "_flip" else data + 1j * rng.standard_normal(shape)


def _call(helper, lat, N, data):
    if helper == "grid_transform":
        return grid_transform(data, N)
    if helper == "sampling_transform":
        return sampling_transform(data, lat).coeffs
    if helper == "_rfftn_half":
        return _rfftn_half(data, lat)
    return _flip(data, lat)


class TestStackedHelpers:
    """Every transform and symmetry helper treats the lattice as the trailing n axes."""

    @pytest.mark.parametrize(
        "helper, n, m, N, is_real, lead",
        list(_stack_cases()),
        ids=_case_id,
    )
    def test_stacked_call_matches_row_calls(self, helper, n, m, N, is_real, lead):
        lat = make_lattice(n, m)
        data = _stacked_input(helper, lat, N, is_real, lead, seed=100 + n)
        aliased = N < 2 * m + 1 and helper in ("grid_transform", "sampling_transform")
        with pytest.warns(AliasingWarning) if aliased else contextlib.nullcontext():
            stacked = _call(helper, lat, N, data)
            rows = {k: _call(helper, lat, N, data[k]) for k in np.ndindex(*lead)}
        assert stacked.shape[: len(lead)] == lead
        for k, row in rows.items():
            assert_same_bits(stacked[k], row)
        if helper == "_rfftn_half":
            # the xi_n = 0 plane comes back averaged with its mirror: exactly Hermitian
            plane = stacked[..., 0]
            mirror = np.flip(plane, axis=tuple(range(plane.ndim - n + 1, plane.ndim)))
            assert np.array_equal(plane, np.conj(mirror))

    def test_flip_reverses_the_trailing_axes(self):
        lat = make_lattice(2, 2)
        c = np.arange(2 * 3 * 25).reshape((2, 3) + lat.shape)
        assert np.array_equal(_flip(c, lat), c[:, :, ::-1, ::-1])

    @pytest.mark.parametrize("n", DIMENSIONS)
    def test_vector_hermitian_check(self, n):
        # a defect of 1e-13 of the field's scale passes, one of 1e-10 in any
        # one component is rejected
        lat = make_lattice(n, 3)
        c = random_vector_field(30 + n, lat, decay=1.0).coeffs
        scale = np.max(np.abs(c))
        mode = (1,) * n  # not its own mirror
        for j in range(n):
            for defect, ok in ((1e-13, True), (1e-10, False)):
                bad = c.copy()
                bad[(j,) + mode] += defect * scale
                if ok:
                    assert vector_field(lat, bad, is_real=True).is_real
                else:
                    with pytest.raises(ValueError, match="not Hermitian"):
                        vector_field(lat, bad, is_real=True)


# Reference code: the per-type implementations that the shared helpers of
# tsflow.spectral replaced (the along-xi projection written out twice, the
# corner-block placement of complex fields, the two-constructor rebuilds).
# Seeded fields, verify reports and benchmark inputs depend on these bytes.


def reference_transverse(lattice, z):
    """The along-xi projection as random_vector_field wrote it, row by row."""
    z = z.copy()
    xdotz = np.zeros(lattice.shape, np.complex128)
    for j, xi_j in enumerate(index_grids(lattice)):
        xdotz += xi_j * z[j]
    a2 = mode_abs2(lattice).copy()
    a2[lattice.zero_index] = 1.0
    for j, xi_j in enumerate(index_grids(lattice)):
        z[j] = z[j] - xi_j * xdotz / a2
    return z


def reference_leray_project(u):
    lat = u.lattice
    xdotu = np.zeros(lat.shape, np.complex128)
    for j, xi_j in enumerate(index_grids(lat)):
        xdotu += xi_j * u.coeffs[j]
    a2 = mode_abs2(lat).copy()
    a2[lat.zero_index] = 1.0
    out = np.empty_like(u.coeffs)
    for j, xi_j in enumerate(index_grids(lat)):
        out[j] = u.coeffs[j] - xi_j * xdotu / a2
    out[(slice(None),) + lat.zero_index] = 0.0
    return SpectralVectorField(lat, out, u.is_real, divergence_free=True)


def reference_random_solenoidal(seed, lattice, decay, zero_mean):
    """random_vector_field(divergence_free=True) with the projection inline."""
    rng = np.random.default_rng(seed)
    n = lattice.n
    z = rng.standard_normal((n,) + lattice.shape) + 1j * rng.standard_normal((n,) + lattice.shape)
    z = reference_transverse(lattice, z)
    norm = np.sqrt(np.sum(np.abs(z) ** 2, axis=0))
    amp = rho2(lattice) ** (-decay / 2.0)
    coeffs = np.empty_like(z)
    for j in range(n):
        coeffs[j] = _hermitianize_half(lattice, amp * z[j] / norm)
    coeffs[(slice(None),) + lattice.zero_index] = 0.0
    return SpectralVectorField(lattice, coeffs, True, divergence_free=True)


def reference_hermitianize_half(lattice, coeffs):
    """_hermitianize_half as a mask of the modes whose first nonzero component is positive."""
    mask = np.zeros(lattice.shape, dtype=bool)
    undecided = np.ones(lattice.shape, dtype=bool)
    for g in index_grids(lattice):
        mask |= undecided & (g > 0)
        undecided &= g == 0
    out = np.where(mask, coeffs, np.conj(np.flip(coeffs)))
    out[lattice.zero_index] = coeffs[lattice.zero_index].real
    return out


def reference_complex_grid_transform(field, N):
    """Complex samples with the cube placed as 2^n corner blocks (N >= 2m+1)."""
    lat, m = field.lattice, field.lattice.m
    axis = ((slice(0, m + 1), slice(m, 2 * m + 1)), (slice(N - m, N), slice(0, m)))
    blocks = [
        (tuple(p[0] for p in pieces), tuple(p[1] for p in pieces))
        for pieces in itertools.product(*([axis] * lat.n))
    ]

    def one(coeffs):
        spec = np.zeros((N,) * lat.n, np.complex128)
        for dst, src in blocks:
            spec[dst] = coeffs[src]
        return np.fft.ifftn(spec, norm="forward")

    if field.coeffs.ndim > lat.n:
        return np.stack([one(c) for c in field.coeffs])
    return one(field.coeffs)


def reference_ball_filter(field, radius):
    mask = mode_abs2(field.lattice) <= float(radius) ** 2
    if isinstance(field, SpectralVectorField):
        return SpectralVectorField(
            field.lattice, field.coeffs * mask, field.is_real, divergence_free=field.divergence_free
        )
    return SpectralScalarField(field.lattice, field.coeffs * mask, field.is_real)


def reference_embed_field(field, m):
    lat = field.lattice
    big = make_lattice(lat.n, m)
    sl = (slice(m - lat.m, m + lat.m + 1),) * lat.n
    if isinstance(field, SpectralVectorField):
        out = np.zeros((lat.n,) + big.shape, np.complex128)
        out[(slice(None),) + sl] = field.coeffs
        return SpectralVectorField(big, out, field.is_real, divergence_free=field.divergence_free)
    out = np.zeros(big.shape, np.complex128)
    out[sl] = field.coeffs
    return SpectralScalarField(big, out, field.is_real)


def reference_restrict_field(field, m):
    lat = field.lattice
    small = make_lattice(lat.n, m)
    sl = (slice(lat.m - m, lat.m + m + 1),) * lat.n
    if isinstance(field, SpectralVectorField):
        return SpectralVectorField(
            small, field.coeffs[(slice(None),) + sl].copy(), field.is_real,
            divergence_free=field.divergence_free,
        )
    return SpectralScalarField(small, field.coeffs[sl].copy(), field.is_real)


def assert_same_field(a, b):
    assert type(a) is type(b) and a.lattice == b.lattice
    assert a.__dict__.keys() == b.__dict__.keys()
    for key in a.__dict__:
        if key != "coeffs":
            assert getattr(a, key) == getattr(b, key), key
    assert_same_bits(a.coeffs, b.coeffs)


def flagged_fields(n, m, seed):
    """Scalar and vector fields with every combination of flags the helpers keep."""
    lat = make_lattice(n, m)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n,) + lat.shape) + 1j * rng.standard_normal((n,) + lat.shape)
    return [
        scalar_field(lat, z[0]),
        random_scalar_field(seed, lat, decay=1.0, zero_mean=False),
        random_scalar_field(seed, lat, decay=2.0),
        vector_field(lat, z),
        random_vector_field(seed, lat, decay=1.0, zero_mean=False),
        random_vector_field(seed, lat, decay=3.0),
        random_vector_field(seed, lat, decay=2.0, divergence_free=True),
    ]


class TestSharedPrimitives:
    """The shared projection, placement and rebuild code against the references, bit for bit."""

    @pytest.mark.parametrize("n, m", [(2, 1), (2, 4), (3, 3)])
    def test_transverse_projection(self, n, m):
        lat = make_lattice(n, m)
        for seed in range(3):
            for u in flagged_fields(n, m, seed):
                if isinstance(u, SpectralVectorField):
                    assert_same_field(leray_project(u), reference_leray_project(u))
            for decay, zero_mean in ((3.0, True), (1.0, False)):
                assert_same_field(
                    random_vector_field(seed, lat, decay, zero_mean, divergence_free=True),
                    reference_random_solenoidal(seed, lat, decay, zero_mean),
                )

    @pytest.mark.parametrize("n, m", [(2, 1), (2, 4), (3, 3)])
    def test_hermitianize_half(self, n, m):
        lat = make_lattice(n, m)
        rng = np.random.default_rng(60 + n)
        for _ in range(3):
            z = rng.standard_normal(lat.shape) + 1j * rng.standard_normal(lat.shape)
            out = _hermitianize_half(lat, z)
            assert_same_bits(out, reference_hermitianize_half(lat, z))
            np.testing.assert_array_equal(out, np.conj(np.flip(out)))
            after = np.arange(lat.size).reshape(lat.shape) > lat.size // 2
            np.testing.assert_array_equal(out[after], z[after])

    @pytest.mark.parametrize("n, m", [(2, 1), (2, 4), (3, 3)])
    def test_hermitianize_half_leading_axes(self, n, m):
        # oracle: _hermitianize_half on each slice of the stack on its own
        lat = make_lattice(n, m)
        rng = np.random.default_rng(70 + n)
        for lead in ((3,), (2, 2)):
            z = rng.standard_normal(lead + lat.shape) + 1j * rng.standard_normal(lead + lat.shape)
            out = _hermitianize_half(lat, z)
            assert out.shape == z.shape
            for k in np.ndindex(*lead):
                assert_same_bits(out[k], _hermitianize_half(lat, z[k]))

    @pytest.mark.parametrize("is_real", [True, False])
    @pytest.mark.parametrize("vector", [True, False])
    @pytest.mark.parametrize("n, m", [(2, 4), (3, 3)])
    def test_split_join_round_trip(self, n, m, vector, is_real):
        # the half holds the modes before xi = 0 and the mirror the conjugates
        # of their negatives, both in canonical order; _join restores the
        # cube with +0 at xi = 0, and without flat index H it lists the
        # nonzero modes in canonical order
        lat = make_lattice(n, m)
        H = lat.size // 2
        lead = (n,) if vector else ()
        if is_real:
            make = random_vector_field if vector else random_scalar_field
            c = make(80 + n, lat, decay=1.0, zero_mean=False).coeffs
        else:
            rng = np.random.default_rng(80 + n)
            c = rng.standard_normal(lead + lat.shape) + 1j * rng.standard_normal(lead + lat.shape)
        flat = c.reshape(lead + (-1,))
        out = _split(lat, c, np.empty((2, H) + lead, np.complex128))
        assert_same_bits(out[0].T, flat[..., :H])
        assert_same_bits(out[1].T, np.conj(flat[..., ::-1][..., :H]))
        if is_real:
            assert_same_bits(out[0], out[1])
        one = _split(lat, c, np.empty((1, H) + lead, np.complex128))
        assert_same_bits(one[0], out[0])

        expected = c.copy()
        expected[(...,) + lat.zero_index] = 0.0
        joined = _join(lat, out[0], out[1])
        assert_same_bits(joined, expected)
        nonzero = np.arange(lat.size) != H
        assert_same_bits(joined.reshape(lead + (-1,))[..., nonzero], flat[..., nonzero])

    @pytest.mark.parametrize("block", [1, 5, 7])
    @pytest.mark.parametrize("n, m", [(2, 4), (3, 3)])
    def test_split_join_in_blocks(self, n, m, block):
        # oracle: the whole-half _split and _join; a block of rows lo .. hi-1
        # is that slice of the split, and _join_rows of consecutive blocks
        # writes every entry of the join
        lat = make_lattice(n, m)
        H = lat.size // 2
        rng = np.random.default_rng(95 + n)
        c = rng.standard_normal((n,) + lat.shape) + 1j * rng.standard_normal((n,) + lat.shape)
        whole = _split(lat, c, np.empty((2, H, n), np.complex128))
        joined = np.full((n, lat.size), np.nan, np.complex128)
        joined[:, H] = 0.0
        nonzero = np.full(2 * H, np.nan)
        for lo in range(0, H, block):
            hi = min(lo + block, H)
            part = _split(lat, c, np.empty((2, hi - lo, n), np.complex128), lo)
            assert_same_bits(part, whole[:, lo:hi])
            _join_rows(joined, part[0], part[1], lo)
            _join_rows(nonzero, part[0, :, 0].real, part[1, :, 0].real, lo)
        assert_same_bits(joined.reshape(c.shape), _join(lat, whole[0], whole[1]))
        real = whole[..., 0].real
        assert_same_bits(nonzero, np.delete(_join(lat, real[0], real[1]).ravel(), H))

    @pytest.mark.parametrize("n, m", [(2, 1), (2, 4), (3, 3)])
    def test_half_modes_are_the_split_rows(self, n, m):
        # oracle: the lattice's index table; row h of a block is the mode
        # that _split puts in row h of the same block
        lat = make_lattice(n, m)
        H = lat.size // 2
        table = lat.indices()[:H].astype(float)
        assert_same_bits(_half_modes(lat, 0, H), table)
        for lo, hi in ((0, 1), (2, H - 1), (H - 2, H)):
            assert_same_bits(_half_modes(lat, lo, hi), table[lo:hi])

    @pytest.mark.parametrize("n, m", [(2, 4), (3, 3)])
    def test_split_join_case_axis(self, n, m):
        # oracle: one _split and _join per field of a (k, n, cube) stack
        lat = make_lattice(n, m)
        H = lat.size // 2
        rng = np.random.default_rng(90 + n)
        c = rng.standard_normal((4, n) + lat.shape) + 1j * rng.standard_normal((4, n) + lat.shape)
        out = _split(lat, c, np.empty((2, H, 4, n), np.complex128))
        joined = _join(lat, out[0], out[1])
        for k in range(4):
            row = _split(lat, c[k], np.empty((2, H, n), np.complex128))
            assert_same_bits(out[:, :, k], row)
            assert_same_bits(joined[k], _join(lat, row[0], row[1]))

    @pytest.mark.parametrize("zeros", [False, True])
    @pytest.mark.parametrize("columns", [1, 2, 3])
    @pytest.mark.parametrize("n, m", [(n, m) for n in (2, 3) for m in (1, 2, 3, 4)])
    def test_upper_half_maps(self, n, m, columns, zeros):
        # oracle: the cube, compared with signed zeros; _upper_from_half is
        # the upper half of _join (also after + 0.0), _half_from_upper is
        # _split of the cube that _hermitian_from_upper fills
        lat = make_lattice(n, m)
        H = lat.size // 2
        rng = np.random.default_rng(100 * n + 10 * m + columns)

        def draw(shape):
            z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            if zeros:  # a third of the parts exact zeros, of either sign
                for part in (z.real, z.imag):
                    hit = rng.random(shape) < 1.0 / 3.0
                    part[hit] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[hit]
            return z

        half = draw((H, columns))
        cube = _join(lat, half, half)
        upper = _upper_from_half(lat, half)
        assert_same_bits(upper, cube[..., m:])
        assert_same_bits(upper + 0.0, (cube + 0.0)[..., m:])
        assert_same_bits(_half_from_upper(lat, upper), half)

        top = draw((columns,) + lat.shape[:-1] + (m + 1,))
        filled = np.empty((columns,) + lat.shape, np.complex128)
        filled[..., m:] = top
        _hermitian_from_upper(filled, lat)
        split = _split(lat, filled, np.empty((1, H, columns), np.complex128))[0]
        assert_same_bits(_half_from_upper(lat, top), split)

    @pytest.mark.parametrize("n", DIMENSIONS)
    def test_complex_grid_placement(self, n):
        m = 3
        for N in (2 * m + 1, 2 * m + 4, 3 * m + 1):
            for fld in flagged_fields(n, m, 40 + N):
                if not fld.is_real:
                    assert_same_bits(grid_transform(fld, N), reference_complex_grid_transform(fld, N))

    @pytest.mark.parametrize("n, m", [(2, 2), (2, 4), (3, 3)])  # (2, 2) restricts to the smallest lattice
    def test_rebuilds_keep_bytes_and_flags(self, n, m):
        for fld in flagged_fields(n, m, 50 + n):
            assert_same_field(embed_field(fld, m + 2), reference_embed_field(fld, m + 2))
            assert_same_field(restrict_field(fld, m - 1), reference_restrict_field(fld, m - 1))
            for radius in (1.0, m - 0.5, m * np.sqrt(n)):
                assert_same_field(ball_filter(fld, radius), reference_ball_filter(fld, radius))


class TestNormEquivalence:
    def test_gradient_norm_bracket_random(self):
        for seed in range(5):
            g = random_scalar_field(seed, make_lattice(2, 6), decay=2.0)
            num = sobolev_norm(gradient(g), 0.0) ** 2
            h1 = sobolev_norm(g, 1.0) ** 2
            assert 2 * np.pi**2 * h1 <= num * (1 + 1e-12)
            assert num <= 4 * np.pi**2 * h1 * (1 + 1e-12)

    def test_bracket_tight_at_unit_mode(self):
        lat = make_lattice(2, 2)
        g = single_mode_scalar(lat, (1, 0))
        ratio = sobolev_norm(gradient(g), 0.0) ** 2 / sobolev_norm(g, 1.0) ** 2
        assert ratio == pytest.approx(2 * np.pi**2, rel=1e-14)


def reference_random_vector_field(seed, lattice, decay, zero_mean, divergence_free):
    """random_vector_field as one seed's draw, projection and fill, before the stacked draw."""
    rng = np.random.default_rng(seed)
    n = lattice.n
    z = rng.standard_normal((n,) + lattice.shape) + 1j * rng.standard_normal((n,) + lattice.shape)
    if divergence_free:
        z = reference_transverse(lattice, z)
    norm = np.sqrt(np.sum(np.abs(z) ** 2, axis=0))
    amp = rho2(lattice) ** (-decay / 2.0)
    coeffs = _hermitianize_half(lattice, amp * z / norm)
    if zero_mean or divergence_free:
        coeffs[(slice(None),) + lattice.zero_index] = 0.0
    return coeffs


def reference_random_scalar_field(seed, lattice, decay, zero_mean):
    """random_scalar_field as one seed's draw and fill, before the stacked draw."""
    phases = np.random.default_rng(seed).uniform(0.0, 1.0, lattice.shape)
    c = rho2(lattice) ** (-decay / 2.0) * np.exp(TWO_PI * 1j * phases)
    c = _hermitianize_half(lattice, c)
    if zero_mean:
        c[lattice.zero_index] = 0.0
    return c


class TestStackedDraws:
    """The stacked draws against one-seed calls and the one-seed reference, bit for bit."""

    @pytest.mark.parametrize("decay, zero_mean", [(3.0, True), (0.0, False)])
    @pytest.mark.parametrize("divergence_free", [False, True])
    @pytest.mark.parametrize("n, m", [(2, 1), (2, 4), (3, 2)])
    def test_vectors_match_per_seed_calls(self, n, m, divergence_free, decay, zero_mean):
        lat = make_lattice(n, m)
        seeds = [9, 2, 40, 2]
        stack = _random_vectors(seeds, lat, decay, zero_mean, divergence_free)
        assert stack.shape == (len(seeds), n) + lat.shape
        for seed, c in zip(seeds, stack):
            one = random_vector_field(seed, lat, decay, zero_mean, divergence_free)
            assert_same_bits(c, one.coeffs)
            ref = reference_random_vector_field(seed, lat, decay, zero_mean, divergence_free)
            assert_same_bits(c, ref)
            assert one.zero_mean == (zero_mean or divergence_free)
            assert one.divergence_free == divergence_free

    @pytest.mark.parametrize("decay, zero_mean", [(3.0, True), (0.0, False)])
    @pytest.mark.parametrize("n, m", [(2, 1), (2, 4), (3, 2)])
    def test_scalars_match_per_seed_calls(self, n, m, decay, zero_mean):
        lat = make_lattice(n, m)
        seeds = [9, 2, 40]
        stack = _random_scalars(seeds, lat, decay, zero_mean)
        for seed, c in zip(seeds, stack):
            assert_same_bits(c, random_scalar_field(seed, lat, decay, zero_mean).coeffs)
            assert_same_bits(c, reference_random_scalar_field(seed, lat, decay, zero_mean))

    @pytest.mark.parametrize("decay", [-1.0, -1e-9])
    def test_negative_decay_rejected(self, decay):
        lat = make_lattice(2, 2)
        with pytest.raises(ValueError, match="decay"):
            _random_vectors([1], lat, decay)
        with pytest.raises(ValueError, match="decay"):
            _random_scalars([1], lat, decay)


class TestRandomFields:
    def test_deterministic(self):
        lat = make_lattice(2, 4)
        a = random_vector_field(42, lat, divergence_free=True)
        b = random_vector_field(42, lat, divergence_free=True)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_solenoidal_draws(self):
        u = random_vector_field(3, make_lattice(3, 3), divergence_free=True)
        assert sobolev_norm(divergence(u), 0.0) <= 1e-13

    def test_reality(self):
        g = random_scalar_field(6, make_lattice(2, 5))
        flipped = np.conj(g.coeffs[::-1, ::-1])
        np.testing.assert_allclose(g.coeffs, flipped, atol=0)

    def test_decay_law_is_exact(self):
        lat = make_lattice(2, 6)
        g = random_scalar_field(10, lat, decay=4.0)
        mags = np.abs(g.coeffs)
        mags[lat.zero_index] = 0.0
        expected = rho2(lat) ** -2.0
        expected[lat.zero_index] = 0.0
        np.testing.assert_allclose(mags, expected, rtol=1e-12)

    def test_tail_contribution_shrinks(self):
        # partial sums of the H^2 norm: the outer shell adds less than the core
        lat = make_lattice(2, 8)
        g = random_scalar_field(13, lat, decay=4.0)
        full = sobolev_norm(g, 2.0) ** 2
        core = sobolev_norm(restrict_field(g, 4), 2.0) ** 2
        tail = full - core
        assert 0 <= tail < core


class TestBallFilter:
    def test_mask_counts(self):
        from tsflow.spectral import ball_mask

        lat = make_lattice(2, 2)
        assert int(np.sum(ball_mask(lat, 1.0))) == 5  # origin + 4 unit modes
        assert int(np.sum(ball_mask(lat, 2.0))) == 13
        assert int(np.sum(ball_mask(lat, 10.0))) == lat.size

    def test_filter_zeroes_corners_only(self):
        from tsflow.spectral import ball_filter

        lat = make_lattice(2, 4)
        u = random_vector_field(17, lat, decay=2.0, divergence_free=True)
        cut = ball_filter(u, lat.m)
        corner = (0,) + (0,) * lat.n  # mode (-m, ..., -m), |xi| = m*sqrt(n) > m
        assert cut.coeffs[corner] == 0
        center = (slice(None),) + tuple(slice(lat.m - 1, lat.m + 2) for _ in range(lat.n))
        np.testing.assert_allclose(cut.coeffs[center], u.coeffs[center], atol=0)
        assert cut.divergence_free and cut.is_real

    def test_filter_preserves_reality_and_norm_bound(self):
        from tsflow.spectral import ball_filter

        g = random_scalar_field(18, make_lattice(2, 5), decay=1.0)
        cut = ball_filter(g, 3.0)
        flipped = np.conj(cut.coeffs[::-1, ::-1])
        np.testing.assert_allclose(cut.coeffs, flipped, atol=0)
        assert sobolev_norm(cut, 1.0) <= sobolev_norm(g, 1.0)


def _both(fa, fb):
    return tuple(x and y for x, y in zip(fa, fb))


# operation on fields (a, b), the same on their coefficients, and the flags
# expected from the flags of a and b
FLAG_OPS = {
    "add": (lambda a, b: a + b, lambda a, b: a + b, _both),
    "sub": (lambda a, b: a - b, lambda a, b: a + (-1.0) * b, _both),
    "real_left": (lambda a, b: 2.5 * a, lambda a, b: 2.5 * a, lambda fa, fb: fa),
    "real_right": (lambda a, b: a * 2.5, lambda a, b: 2.5 * a, lambda fa, fb: fa),
    "complex_zero_imag": (
        lambda a, b: complex(2.5, 0.0) * a, lambda a, b: complex(2.5, 0.0) * a, lambda fa, fb: fa
    ),
    "complex": (
        lambda a, b: a * (0.5 + 1j), lambda a, b: (0.5 + 1j) * a, lambda fa, fb: (False,) + fa[1:]
    ),
    "neg": (lambda a, b: -a, lambda a, b: -1.0 * a, lambda fa, fb: fa),
}


class TestFieldConstruction:
    def test_zero_mean_warns_and_zeroes(self):
        lat = make_lattice(2, 2)
        c = np.zeros(lat.shape, np.complex128)
        c[lat.zero_index] = 1e-3
        with pytest.warns(NonzeroMeanWarning):
            g = scalar_field(lat, c, zero_mean=True)
        assert g.coeffs[lat.zero_index] == 0

    def test_rejects_non_hermitian_real_flag(self):
        lat = make_lattice(2, 1)
        c = np.zeros(lat.shape, np.complex128)
        c[lat.m + 1, lat.m] = 1.0  # no conjugate partner
        with pytest.raises(ValueError):
            scalar_field(lat, c, is_real=True)

    def test_embed_restrict_round_trip(self):
        g = random_scalar_field(5, make_lattice(2, 3))
        big = embed_field(g, 7)
        np.testing.assert_allclose(restrict_field(big, 3).coeffs, g.coeffs, atol=0)
        assert sobolev_norm(big, 1.5) == pytest.approx(sobolev_norm(g, 1.5), rel=1e-15)

    def test_arithmetic_flags(self):
        lat = make_lattice(2, 3)
        u = random_vector_field(1, lat, divergence_free=True)
        v = random_vector_field(2, lat, divergence_free=True)
        w = u - 0.5 * v
        assert w.is_real and w.zero_mean and w.divergence_free
        assert sobolev_norm(divergence(w), 0.0) <= 1e-13

    @pytest.mark.parametrize("kind", ["scalar", "vector"])
    @pytest.mark.parametrize("op", sorted(FLAG_OPS))
    def test_arithmetic_flag_propagation(self, kind, op):
        lat = make_lattice(2, 2)
        rng = np.random.default_rng(7)
        if kind == "scalar":
            cls, names, shape = SpectralScalarField, ("is_real",), lat.shape
        else:
            cls, shape = SpectralVectorField, (2,) + lat.shape
            names = ("is_real", "divergence_free")
        za, zb = rng.standard_normal((2,) + shape) + 1j * rng.standard_normal((2,) + shape)
        apply, coeffs, expect = FLAG_OPS[op]
        for fa in itertools.product((False, True), repeat=len(names)):
            for fb in itertools.product((False, True), repeat=len(names)):
                a = cls(lat, za.copy(), **dict(zip(names, fa)))
                out = apply(a, cls(lat, zb.copy(), **dict(zip(names, fb))))
                assert type(out) is cls and out.lattice == lat
                assert tuple(getattr(out, f) for f in names) == expect(fa, fb)
                assert_same_bits(out.coeffs, coeffs(za, zb))
                assert not out.coeffs.flags.writeable

    def test_zero_mean_is_read_off_the_coefficients(self):
        # no constructor argument sets it: a field is zero-mean exactly when
        # every xi = 0 coefficient is zero, -0 included
        lat = make_lattice(2, 2)
        assert "zero_mean" not in {f.name for f in dataclasses.fields(SpectralVectorField)}
        assert "zero_mean" not in {f.name for f in dataclasses.fields(SpectralScalarField)}
        c = np.ones((2,) + lat.shape, np.complex128)
        assert not SpectralVectorField(lat, c.copy()).zero_mean
        assert not SpectralScalarField(lat, c[0].copy()).zero_mean
        c[(1,) + lat.zero_index] = 0.0
        assert not SpectralVectorField(lat, c.copy()).zero_mean  # one component has a mean
        c[(0,) + lat.zero_index] = complex(-0.0, -0.0)
        assert SpectralVectorField(lat, c.copy()).zero_mean
        assert SpectralScalarField(lat, c[0].copy()).zero_mean
        for fld in flagged_fields(2, 3, 5):
            assert fld.zero_mean == (not np.any(fld.coeffs[(...,) + fld.lattice.zero_index]))

    def test_flags_after_is_real_are_keyword_only(self):
        # a stale call passing zero_mean positionally must not set divergence_free
        lat = make_lattice(2, 2)
        c = np.zeros((2,) + lat.shape, np.complex128)
        with pytest.raises(TypeError):
            SpectralVectorField(lat, c, True, True)
        with pytest.raises(TypeError):
            SpectralVectorField(lat, c, True, True, True)
        with pytest.raises(TypeError):
            SpectralScalarField(lat, c[0], True, True)
        assert SpectralVectorField(lat, c, True, divergence_free=True).divergence_free

    def test_mixed_kinds_rejected(self):
        # a scalar and a vector field never combine: p + u would otherwise
        # broadcast into a scalar field of vector-shaped coefficients
        lat = make_lattice(2, 3)
        u = random_vector_field(1, lat)
        p = random_scalar_field(2, lat)
        for combine in (lambda: p + u, lambda: u + p, lambda: u - p, lambda: p - u,
                        lambda: inner(u, p), lambda: inner(p, u)):
            with pytest.raises(TypeError, match="cannot combine"):
                combine()

    def test_inner_product_hermitian(self):
        lat = make_lattice(2, 3)
        a = random_scalar_field(1, lat)
        b = random_scalar_field(2, lat)
        assert inner(a, b) == pytest.approx(np.conj(inner(b, a)))

    def test_lattice_mismatch_rejected(self):
        a = random_scalar_field(1, make_lattice(2, 3))
        b = random_scalar_field(2, make_lattice(2, 4))
        with pytest.raises(ValueError):
            a + b

    def test_sampling_transform_shape_errors(self):
        lat = make_lattice(2, 2)
        with pytest.raises(ValueError):
            sampling_transform(np.zeros((3, 5, 5)), lat)  # 3 components for n=2
        with pytest.raises(ValueError):
            sampling_transform(np.zeros((5, 6)), lat)  # ragged grid
        with pytest.raises(ValueError):
            sampling_transform(np.zeros(5), lat)  # rank does not fit

    def test_embed_restrict_direction_errors(self):
        g = random_scalar_field(3, make_lattice(2, 4))
        with pytest.raises(ValueError):
            embed_field(g, 3)
        with pytest.raises(ValueError):
            restrict_field(g, 5)

    def test_negative_decay_rejected(self):
        with pytest.raises(ValueError):
            random_scalar_field(0, make_lattice(2, 2), decay=-1.0)
        with pytest.raises(ValueError):
            random_vector_field(0, make_lattice(2, 2), decay=-0.5)
