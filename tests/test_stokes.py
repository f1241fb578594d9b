"""Per-mode symbol solves, closed forms, and the a-priori estimates."""

import numpy as np
import pytest

from tsflow.harness import manufacture, random_elliptic_tensor
from tsflow.navier_stokes import picard_solve, regularity_slope
from tsflow.spectral import (
    SpectralScalarField,
    SpectralVectorField,
    _flip,
    _hermitian_from_upper,
    _flat,
    _modes,
    _place,
    _rows,
    dealias_grid,
    divergence,
    gradient,
    index_grids,
    make_lattice,
    random_scalar_field,
    random_vector_field,
    scalar_field,
    sobolev_norm,
    vector_field,
)
from tsflow.stokes import (
    NonPositiveMu,
    NotSolenoidal,
    SingularSymbol,
    StokesSolveReport,
    ZeroMode,
    _checked_constants,
    _invert,
    _mode_symbols,
    _solve_stokes,
    assemble_symbol,
    estimate_constants,
    global_estimate_slack,
    solve_isotropic_mode,
    solve_mode,
    solve_stokes,
)
from tsflow.viscosity import (
    _apply_blocks,
    apply_viscosity,
    make_isotropic,
    make_tensor,
    mode_blocks,
    stokes_operator,
)


ISO = make_isotropic(0.0, 1.0, 2)


class TestSymbolAssembly:
    def test_isotropic_structure(self):
        sym = assemble_symbol(ISO, (1, 0))
        expected_block = 4 * np.pi**2 * np.diag([2.0, 1.0])
        np.testing.assert_allclose(sym.mat[:2, :2], expected_block, atol=1e-13)
        np.testing.assert_allclose(sym.mat[:2, 2], [2j * np.pi, 0.0], atol=0)
        np.testing.assert_allclose(sym.mat[2, :2], [2j * np.pi, 0.0], atol=0)
        assert sym.mat[2, 2] == 0

    def test_zero_mode_rejected(self):
        with pytest.raises(ZeroMode):
            assemble_symbol(ISO, (0, 0))

    def test_nonsingular_for_elliptic_tensors(self):
        # oracle: direct determinant of the small complex matrix
        for seed in range(5):
            A = random_elliptic_tensor(seed, 2)
            sym = assemble_symbol(A, (1, 1))
            assert abs(np.linalg.det(sym.mat)) > 1e-6

    def test_velocity_block_symmetric(self):
        A = random_elliptic_tensor(3, 3)
        sym = assemble_symbol(A, (1, -2, 3))
        block = sym.mat[:3, :3]
        np.testing.assert_allclose(block, block.T, atol=1e-12)
        assert np.max(np.abs(block.imag)) == 0


def _symbol_stack(seed, n, count):
    """Stokes symbols of a random elliptic tensor at random nonzero integer modes."""
    from tsflow.stokes import _mode_symbols

    rng = np.random.default_rng(seed)
    xis = rng.integers(-6, 7, size=(count, n)).astype(float)
    xis[~xis.any(axis=1), 0] = 1.0
    return xis, _mode_symbols(random_elliptic_tensor(seed, n), xis)


def _representatives(xis):
    """(after, reps) of a (B, n) stack of nonzero modes, written out row by row.

    A mode is after xi = 0 in C order when its first nonzero coordinate is
    positive; each pair xi, -xi is solved at its member before xi = 0.
    """
    after = np.array([next(v for v in xi if v) > 0 for xi in xis])
    reps = np.array([[0.0 - v for v in xi] if a else list(xi) for xi, a in zip(xis, after)])
    return after, reps.reshape(xis.shape)


def _whole_half(tensor, lattice):
    """(xis, R, R^-1) of the pairs of the upper half's nonzero modes, built in one piece.

    The stacks that picard_solve applies, which it fills block by block:
    one row per listed mode, at the member of its pair before xi = 0.
    """
    _, xis = _modes(lattice, _rows(lattice, 0, 2 * lattice.m + 1))
    reps = _representatives(xis)[1]
    R = _mode_symbols(tensor, reps)
    return reps, R, _invert(R, reps)


def _half_cube_modes(n, m):
    """The nonzero modes of the upper half in canonical order."""
    lat = make_lattice(n, m)
    table = lat.indices()
    return table[table.any(axis=1) & (table[:, -1] >= 0)].astype(float)


def _whole_data(lat, f, g, is_real):
    """(at, keep, after, reps, x): a whole solve's listing and data in one piece.

    A real solve lists the nonzero modes of the upper half and x holds
    D^-1 (fhat, ghat) at the member of each pair that is solved
    (`_representatives`) and the conjugates of the data at its mirror, a
    (2, U, n+1) pair. A complex solve lists every nonzero mode, and a mode
    after xi = 0 is solved as the conjugate problem at its mirror: a
    (1, size-1, n+1) stack of the data, conjugated after xi = 0.
    """
    n, m = lat.n, lat.m
    at = _rows(lat, 0, 2 * m + 1, whole=not is_real)
    keep, xis = _modes(lat, at)
    after, reps = _representatives(xis)
    at_reps, at_mirrors = tuple((reps + m).astype(int).T), tuple((m - reps).astype(int).T)
    x = np.zeros((2 if is_real else 1, len(xis), n + 1), np.complex128)
    for c, cols in [(f.coeffs, slice(0, n))] + ([] if g is None else [(g.coeffs, n)]):
        x[0, :, cols] = c[(...,) + at_reps].T
        if is_real:
            x[1, :, cols] = np.conj(c[(...,) + at_mirrors]).T
        else:
            x[0, after, cols] = np.conj(c[(...,) + at_mirrors]).T[after]
    if g is not None:
        x[..., n] *= -1j
    return at, keep, after, reps, x


def reference_mode_slacks(tensor, xis, fhat, ghat, uhat, phat):
    """The slacks and bounds of the two per-mode estimates, written out in numpy.

    Velocity: |uhat| <= C_uf*|fhat|/(2*pi*|xi|)^2 + C_ug*|ghat|/(2*pi*|xi|).
    Pressure: |phat| <= C_pf*|fhat|/(2*pi*|xi|) + C_pg*|ghat|.
    xis, fhat and uhat are (..., n) stacks, ghat and phat (...) stacks;
    returns (slack_u, slack_p, bound_u, bound_p), each of shape (...).
    """
    c = estimate_constants(tensor)
    k = 2.0 * np.pi * np.linalg.norm(np.asarray(xis, dtype=float), axis=-1)
    abs_f, abs_g = np.linalg.norm(fhat, axis=-1), np.abs(ghat)
    bound_u = c["C_uf"] * abs_f / k**2 + c["C_ug"] * abs_g / k
    bound_p = c["C_pf"] * abs_f / k + c["C_pg"] * abs_g
    return bound_u - np.linalg.norm(uhat, axis=-1), bound_p - np.abs(phat), bound_u, bound_p


def reference_solve_slacks(tensor, f, g, u, p):
    """reference_mode_slacks at every nonzero mode of a solve's cubes (g=None is zero data).

    The cubes hold both members of every pair of modes xi, -xi.
    """
    lat = f.lattice
    nonzero = np.arange(lat.size) != lat.size // 2
    fhat, uhat = (c.reshape(lat.n, -1).T[nonzero] for c in (f.coeffs, u.coeffs))
    ghat = np.zeros(lat.size - 1) if g is None else g.coeffs.ravel()[nonzero]
    phat = p.coeffs.ravel()[nonzero]
    return reference_mode_slacks(tensor, lat.indices()[nonzero], fhat, ghat, uhat, phat)


def full_cube_viscosity(tensor, u):
    """The viscous operator as one block product over every mode of the cube.

    The reference of `apply_viscosity`, which applies the blocks of a real
    field's upper half only: the `mode_blocks` of the whole cube against the
    (size, n) stack of u's coefficients.
    """
    lat = u.lattice
    uk = np.ascontiguousarray(u.coeffs.reshape(lat.n, -1).T, dtype=np.complex128)
    return _apply_blocks(mode_blocks(tensor, lat.indices()), uk).T.reshape(u.coeffs.shape)


def _assert_matches_full_cube(tensor, u):
    """Assert that apply_viscosity matches the full-cube product bit for bit at xi != 0.

    At xi = 0 it must hold +0, where the product leaves -0 for a zero-mean u.
    """
    lat = u.lattice
    out = apply_viscosity(tensor, u).coeffs.reshape(lat.n, -1)
    ref = full_cube_viscosity(tensor, u).reshape(lat.n, -1)
    nonzero = np.arange(lat.size) != lat.size // 2
    assert out[:, nonzero].tobytes() == ref[:, nonzero].tobytes()
    assert out[:, ~nonzero].tobytes() == np.zeros((lat.n, 1), np.complex128).tobytes()


def _per_mode_gap(inv, ref):
    """Largest entry gap of each member relative to its largest reference entry."""
    gap = np.abs(inv - ref).reshape(len(ref), -1)
    return np.max(gap, axis=1) / np.max(np.abs(ref).reshape(len(ref), -1), axis=1)


class TestBatchedElimination:
    """The batched real-symbol inverse and solve behind every Stokes solve."""

    @staticmethod
    def _dressed(R):
        # the complex matrices D R D, D = diag(1, ..., 1, i)
        d = np.ones(R.shape[-1], np.complex128)
        d[-1] = 1j
        return d[:, None] * R * d[None, :]

    def test_matches_lapack_on_random_systems(self):
        # oracle: numpy's complex LU solver on the same stacked systems
        from tsflow.stokes import _invert, _solve_symbols

        rng = np.random.default_rng(0)
        for n in (2, 3):
            xis, R = _symbol_stack(10 + n, n, 40)
            rhs = rng.standard_normal((40, n + 1)) + 1j * rng.standard_normal((40, n + 1))
            x = rhs.copy()
            x[:, -1] *= -1j  # D^-1 rhs
            y, defect, x_max = _solve_symbols(R, _invert(R, xis), x)
            assert x_max == np.max(np.abs(x))
            mine = y.copy()
            mine[:, -1] *= -1j  # D^-1 y
            ref = np.linalg.solve(self._dressed(R), rhs[..., None])[..., 0]
            assert np.max(np.abs(mine - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert defect <= 1e-13 * x_max

    def test_pair_is_solved_once_and_checked_twice(self):
        # the (half, mirror) pair of a real field: y solves the first member,
        # and a mismatch in the second shows in the defect alone
        from tsflow.stokes import _invert, _solve_symbols

        rng = np.random.default_rng(1)
        xis, R = _symbol_stack(14, 3, 30)
        x = rng.standard_normal((30, 4)) + 1j * rng.standard_normal((30, 4))
        inv = _invert(R, xis)
        y, defect, x_max = _solve_symbols(R, inv, x)
        pair = np.stack([x, x])
        assert _solve_symbols(R, inv, pair)[1:] == (defect, x_max)
        pair[1, 7, 2] += 1e-6 * x_max
        y_pair, defect_pair, _ = _solve_symbols(R, inv, pair)
        assert np.array_equal(y_pair, y)
        assert defect <= 1e-13 * x_max and 0.9e-6 <= defect_pair / x_max <= 1.1e-6

    def test_detects_singular_member(self):
        import warnings

        from tsflow.stokes import COND_LIMIT, _invert, _mode_symbols

        modes = {2: [(1, 2), (0, 2), (3, -1)], 3: [(1, 2, 0), (0, 0, 2), (3, -1, 1)]}
        for n, listed in modes.items():
            xis = np.array(listed, dtype=float)
            tensor = random_elliptic_tensor(20 + n, n)
            R = _mode_symbols(tensor, xis)
            # mu = 0 on an axis mode: A = 4 pi^2 lam xi xi^T, so s = b.adj(A).b is exactly 0
            R[1] = _mode_symbols(make_isotropic(1.0, 0.0, n), xis[1:2])[0]
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no division warning leaks out
                with pytest.raises(SingularSymbol, match="singular symbol at mode") as exc:
                    _invert(R, xis)
            assert exc.value.xi == listed[1]
            R = _mode_symbols(tensor, xis)
            R[2, :n, :n] *= 1e-15  # invertible, but past the conditioning limit
            assert np.linalg.norm(R[2]) * np.linalg.norm(np.linalg.inv(R[2])) > COND_LIMIT
            with pytest.raises(SingularSymbol, match="condition number") as exc:
                _invert(R, xis)
            assert exc.value.xi == listed[2]


class TestClosedFormInverse:
    """The bordered closed-form inverse against LAPACK on whole half cubes."""

    TENSORS = {
        "lambda=-2mu": lambda n: make_isotropic(-2.0, 1.0, n),
        "lambda=-2mu+1e-8": lambda n: make_isotropic(-2.0 + 1e-8, 1.0, n),
        "random": lambda n: random_elliptic_tensor(60 + n, n),
    }

    @staticmethod
    def _lapack_verdict(R):
        """LAPACK's inverses and the members its Frobenius condition puts past the limit."""
        from tsflow.stokes import COND_LIMIT

        ref = np.linalg.inv(R)
        cond2 = np.einsum("bij,bij->b", R, R) * np.einsum("bij,bij->b", ref, ref)
        return ref, ~(cond2 <= COND_LIMIT**2)

    @pytest.mark.parametrize("n, m", [(2, 12), (3, 6)])
    @pytest.mark.parametrize("kind", sorted(TENSORS))
    def test_matches_lapack_on_every_half_cube_mode(self, n, m, kind):
        from tsflow.stokes import _invert, _mode_symbols

        tensor = self.TENSORS[kind](n)
        xis = _half_cube_modes(n, m)
        R = _mode_symbols(tensor, xis)
        if kind == "lambda=-2mu":
            # accepted by relaxed ellipticity, yet every velocity block is singular
            assert estimate_constants(tensor)["C_A"] == pytest.approx(0.5)
            A = R[:, :n, :n]
            scale = np.max(np.abs(A).reshape(len(A), -1), axis=1) ** n
            assert np.all(np.abs(np.linalg.det(A)) <= 1e-13 * scale)
        assert np.max(_per_mode_gap(_invert(R, xis), np.linalg.inv(R))) <= 1e-13

    @pytest.mark.parametrize("n, m", [(2, 8), (3, 4)])
    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
    def test_same_verdict_as_lapack_at_every_scale(self, n, m, scale):
        from tsflow.stokes import _invert, _mode_symbols

        xis = _half_cube_modes(n, m)
        for make in self.TENSORS.values():
            R = _mode_symbols(make_tensor(n, scale * make(n).entries), xis)
            ref, bad = self._lapack_verdict(R)
            if np.any(bad):
                with pytest.raises(SingularSymbol) as exc:
                    _invert(R, xis)
                assert exc.value.xi == tuple(int(x) for x in xis[np.argmax(bad)])
            else:
                assert np.max(_per_mode_gap(_invert(R, xis), ref)) <= 1e-13

    @pytest.mark.parametrize("n, m", [(2, 8), (3, 4)])
    def test_names_the_first_ill_conditioned_mode(self, n, m):
        # at this scale some modes pass the conditioning check and some fail
        from tsflow.stokes import _invert, _mode_symbols

        xis = _half_cube_modes(n, m)
        R = _mode_symbols(make_tensor(n, 1e5 * random_elliptic_tensor(61, n).entries), xis)
        bad = self._lapack_verdict(R)[1]
        assert 0 < np.sum(bad) < len(bad)
        with pytest.raises(SingularSymbol) as exc:
            _invert(R, xis)
        assert exc.value.xi == tuple(int(x) for x in xis[np.argmax(bad)])

    @pytest.mark.parametrize("n, m", [(2, 8), (3, 4)])
    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e150, 1e300])
    def test_extreme_scales_rejected_without_warnings(self, n, m, scale):
        # the products under- or overflow; the verdict must still be a clean rejection
        import warnings

        from tsflow.stokes import _invert, _mode_symbols

        xis = _half_cube_modes(n, m)
        for make in self.TENSORS.values():
            R = _mode_symbols(make_tensor(n, scale * make(n).entries), xis)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SingularSymbol):
                    _invert(R, xis)

    def test_blocks_join_seamlessly(self, monkeypatch):
        import tsflow.stokes as stokes_mod

        xis = _half_cube_modes(3, 3)
        R = stokes_mod._mode_symbols(random_elliptic_tensor(63, 3), xis)
        whole = stokes_mod._invert(R, xis)
        monkeypatch.setattr(stokes_mod, "_BLOCK", 7)
        assert np.array_equal(stokes_mod._invert(R, xis), whole)
        # the axis mode (0, 1, 0), second member of its block of 7
        i = int(np.flatnonzero((xis == (0.0, 1.0, 0.0)).all(axis=1))[0])
        assert i % 7 == 1
        R[i] = stokes_mod._mode_symbols(make_isotropic(1.0, 0.0, 3), xis[i : i + 1])[0]
        with pytest.raises(SingularSymbol, match="singular symbol") as exc:
            stokes_mod._invert(R, xis)
        assert exc.value.xi == (0, 1, 0)

    def test_whole_half_builds_without_lapack(self, monkeypatch):
        def no_lapack(*args, **kwargs):
            raise AssertionError("np.linalg.inv called while building the whole half")

        monkeypatch.setattr(np.linalg, "inv", no_lapack)
        lat = make_lattice(3, 3)
        A = random_elliptic_tensor(62, 3)
        _whole_half(A, lat)
        _, _, report = solve_stokes(A, random_vector_field(5, lat, decay=2.0))
        assert report.residual <= 1e-13 and report.estimates_ok


class TestHalfCubeSolve:
    @pytest.mark.parametrize("n, m", [(2, 4), (3, 2)])
    def test_matches_lapack_on_assembled_symbols(self, n, m):
        # oracle: np.linalg.solve on the complex assemble_symbol matrix of
        # every nonzero mode, against one solve of the whole cube
        lat = make_lattice(n, m)
        A = random_elliptic_tensor(40 + n, n)
        f = random_vector_field(41, lat, decay=1.0)
        g = random_scalar_field(42, lat, decay=1.0)
        u, p, report = solve_stokes(A, f, g)
        assert report.residual <= 1e-13
        scale = max(np.max(np.abs(u.coeffs)), np.max(np.abs(p.coeffs)))
        for xi in lat.indices():
            if not np.any(xi):
                continue
            pos = tuple(xi + m)
            rhs = np.append(f.coeffs[(slice(None),) + pos], g.coeffs[pos])
            ref = np.linalg.solve(assemble_symbol(A, xi).mat, rhs)
            assert np.max(np.abs(u.coeffs[(slice(None),) + pos] - ref[:n])) <= 1e-12 * scale
            assert abs(p.coeffs[pos] - ref[n]) <= 1e-12 * scale

    @staticmethod
    def _data(lat, seed, is_real):
        # real data is Hermitian; complex data has independent coefficients
        # at xi and -xi, so the mirrored half is a system of its own
        if is_real:
            return (
                random_vector_field(seed, lat, decay=1.0),
                random_scalar_field(seed + 1, lat, decay=1.0),
            )
        rng = np.random.default_rng(seed)
        shape = (lat.n + 1,) + lat.shape
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        c[(slice(None),) + lat.zero_index] = 0.0
        return vector_field(lat, c[: lat.n]), scalar_field(lat, c[lat.n])

    @pytest.mark.parametrize("is_real", [True, False])
    @pytest.mark.parametrize("n, m", [(2, 3), (3, 2)])
    def test_both_halves_match_lapack(self, n, m, is_real):
        # oracle: np.linalg.solve on the complex assemble_symbol matrix at
        # every nonzero mode, before and after xi = 0
        lat = make_lattice(n, m)
        A = random_elliptic_tensor(50 + n, n)
        f, g = self._data(lat, 60 + n, is_real)
        u, p, report = solve_stokes(A, f, g)
        assert u.is_real == is_real and p.is_real == is_real
        assert report.residual <= 1e-13 and report.n_modes == lat.size - 1
        scale = max(np.max(np.abs(u.coeffs)), np.max(np.abs(p.coeffs)))
        mirrored = 0
        for xi in lat.indices():
            if not np.any(xi):
                continue
            mirrored += tuple(xi) > (0,) * n
            pos = tuple(xi + m)
            rhs = np.append(f.coeffs[(slice(None),) + pos], g.coeffs[pos])
            ref = np.linalg.solve(assemble_symbol(A, xi).mat, rhs)
            assert np.max(np.abs(u.coeffs[(slice(None),) + pos] - ref[:n])) <= 1e-12 * scale
            assert abs(p.coeffs[pos] - ref[n]) <= 1e-12 * scale
        assert mirrored == (lat.size - 1) // 2
        assert np.all(u.coeffs[(slice(None),) + lat.zero_index] == 0)
        assert p.coeffs[lat.zero_index] == 0

    @pytest.mark.parametrize("shrink", [1.0, 0.01])
    @pytest.mark.parametrize("is_real", [True, False])
    @pytest.mark.parametrize("n, m", [(2, 4), (3, 2)])
    def test_estimate_pass_matches_per_member_calls(self, monkeypatch, n, m, is_real, shrink):
        # oracle: _mode_slacks called once per member of the data (a real
        # solve's modes and their mirrors, or a complex solve's whole cube),
        # the members joined, and the minima and verdict taken on the joined
        # arrays, bit for bit; shrunken constants make the verdict fail
        import tsflow.stokes as stokes_mod
        from tsflow.stokes import ESTIMATE_RTOL, _mode_slacks, _solve_symbols

        real = stokes_mod.estimate_constants
        monkeypatch.setattr(
            stokes_mod, "estimate_constants", lambda t: {k: shrink * v for k, v in real(t).items()}
        )
        lat = make_lattice(n, m)
        A = random_elliptic_tensor(54 + n, n)
        f, g = self._data(lat, 64 + n, is_real)
        u, p, report = solve_stokes(A, f, g)

        constants = _checked_constants(A, lat)  # the shrunken constants
        _, _, _, xis, x = _whole_data(lat, f, g, is_real)
        R = _mode_symbols(A, xis)
        y = _solve_symbols(R, _invert(R, xis), x[0])[0]
        members = [_mode_slacks(constants, xis, member, y) for member in x]
        slack_u, slack_p, bound_u, bound_p = (np.concatenate(pair) for pair in zip(*members))
        assert report.min_slack_u == float(np.min(slack_u))
        assert report.min_slack_p == float(np.min(slack_p))
        ok = bool(
            np.all(slack_u >= -ESTIMATE_RTOL * bound_u)
            and np.all(slack_p >= -ESTIMATE_RTOL * bound_p)
        )
        assert report.estimates_ok is ok and ok == (shrink == 1.0)
        assert report.global_bound == global_estimate_slack(A, u, p, f, g, 1.0)

    @pytest.mark.parametrize("with_g", [True, False])
    @pytest.mark.parametrize("is_real", [True, False])
    @pytest.mark.parametrize("n, m", [(2, 6), (3, 3)])
    def test_slack_minima_over_every_mode(self, monkeypatch, n, m, is_real, with_g):
        # oracle: the per-mode bounds written out in numpy at every nonzero
        # mode of the cubes, both members of each pair; the minima keep
        # their bits whatever the block size
        import tsflow.stokes as stokes_mod

        lat = make_lattice(n, m)
        A = random_elliptic_tensor(53, n)
        f, g = self._data(lat, 63, is_real)
        g = g if with_g else None
        u, p, report = solve_stokes(A, f, g)
        slack_u, slack_p, bound_u, bound_p = reference_solve_slacks(A, f, g, u, p)
        assert not any(isinstance(v, np.ndarray) for v in vars(report).values())
        for got, ref, bound in (
            (report.min_slack_u, slack_u, bound_u), (report.min_slack_p, slack_p, bound_p)
        ):
            assert type(got) is float
            assert got == pytest.approx(np.min(ref), rel=0, abs=1e-13 * np.max(bound))
        minima = (report.min_slack_u.hex(), report.min_slack_p.hex())
        for block in (7, 4096):
            monkeypatch.setattr(stokes_mod, "_BLOCK", block)
            again = solve_stokes(A, f, g)[2]
            assert (again.min_slack_u.hex(), again.min_slack_p.hex()) == minima

    def test_slack_minima_propagate_nan(self, monkeypatch):
        # a NaN slack in any block makes the minimum NaN, as np.min over
        # all modes would, and fails the estimate verdict
        import tsflow.stokes as stokes_mod

        real = stokes_mod._mode_slacks
        calls = []

        def poisoned(*args):
            su, sp, bound_u, bound_p = real(*args)
            calls.append(None)
            if len(calls) == 2:
                su = su.copy()
                su[0, -1] = np.nan
            return su, sp, bound_u, bound_p

        monkeypatch.setattr(stokes_mod, "_BLOCK", 7)
        monkeypatch.setattr(stokes_mod, "_mode_slacks", poisoned)
        lat = make_lattice(2, 3)
        f, g = self._data(lat, 63, True)
        report = solve_stokes(random_elliptic_tensor(53, 2), f, g)[2]
        assert len(calls) > 2
        assert np.isnan(report.min_slack_u) and not np.isnan(report.min_slack_p)
        assert not report.estimates_ok

    @pytest.mark.parametrize("n, m", [(2, 3), (3, 2)])
    def test_stores_only_the_upper_half(self, n, m):
        # the stacks that picard_solve applies: a row for every nonzero mode
        # with xi_n >= 0, the xi_n = 0 plane with both members of each pair,
        # at the member of its pair before xi = 0
        import tsflow.navier_stokes as ns_mod

        lat = make_lattice(n, m)
        A = random_elliptic_tensor(54, n)
        f = random_vector_field(54, lat, decay=2.0)
        half = ns_mod._picard_half(A, f, dealias_grid(m))
        upper = (2 * m + 1) ** (n - 1) * (m + 1) - 1
        assert half.blocks.shape == (upper, n, n)
        assert half.inverses.shape == (upper, n + 1, n + 1)
        assert half.xis.shape == (upper, n)
        after, reps = _representatives(_half_cube_modes(n, m))
        assert half.xis.tobytes() == reps.tobytes()  # +0, never -0
        np.testing.assert_array_equal(half.after, after)
        upper_half = np.stack(np.broadcast_arrays(*index_grids(lat)))[..., m:]
        listed = upper_half.reshape(n, -1)[:, half.keep].T
        np.testing.assert_array_equal(listed, _half_cube_modes(n, m))

    @pytest.mark.parametrize("where", ["upper", "plane", "lower"])
    def test_residual_sees_the_mirrored_half(self, where):
        # a real-flagged field that is Hermitian only to 1e-6: the upper
        # half solve fits each mode's own data exactly, so only the check
        # against its mirror's data can show the asymmetry, wherever it is
        lat = make_lattice(2, 3)
        m = lat.m
        f = random_vector_field(64, lat, decay=1.0)
        c = f.coeffs.copy()
        xi = {"upper": (1, 2), "plane": (1, 0), "lower": (1, -2)}[where]
        c[(0, m + xi[0], m + xi[1])] += 1e-6 * np.max(np.abs(c))
        lying = SpectralVectorField(lat, c, True)
        A = random_elliptic_tensor(55, 2)
        assert solve_stokes(A, f)[2].residual <= 1e-13
        assert solve_stokes(A, lying)[2].residual >= 1e-7

    @pytest.mark.parametrize("n", [2, 3])
    def test_singular_member_names_its_mode(self, n, monkeypatch):
        # mu = 0: the velocity block of every mode has rank one
        import tsflow.stokes as stokes_mod
        from tsflow.viscosity import NotElliptic

        bad = make_isotropic(1.0, 0.0, n)
        xi = (0,) * (n - 1) + (2,)
        with pytest.raises(SingularSymbol) as exc:
            solve_mode(assemble_symbol(bad, xi), np.ones(n), 0.0)
        assert exc.value.xi == xi
        f = random_vector_field(3, make_lattice(n, 2), divergence_free=True)
        with pytest.raises(NotElliptic):  # the tensor is rejected before factoring
            picard_solve(bad, f)
        monkeypatch.setattr(stokes_mod, "estimate_constants", lambda tensor: {})
        with pytest.raises(SingularSymbol) as exc:
            picard_solve(bad, f)
        named = exc.value.xi
        assert len(named) == n and any(named)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(assemble_symbol(bad, named).mat)

    @pytest.mark.parametrize("n, m", [(2, 5), (3, 3)])
    @pytest.mark.parametrize("is_real", [True, False])
    def test_absent_divergence_data_is_a_zero_field(self, monkeypatch, n, m, is_real):
        # g=None skips building, projecting, splitting and measuring a zero
        # field (the global bound takes |g|_{s-1} = 0); the solution and the
        # report must not notice, but the velocity of this incompressible
        # solve is flagged divergence-free
        import tsflow.stokes as stokes_mod

        lat = make_lattice(n, m)
        A = random_elliptic_tensor(48, n)
        f, _ = self._data(lat, 49, is_real)
        measured, real = [], stokes_mod.seminorm
        monkeypatch.setattr(
            stokes_mod, "seminorm", lambda fld, s: measured.append(fld) or real(fld, s)
        )
        u1, p1, r1 = solve_stokes(A, f)
        assert measured == [f, u1, p1]  # the data norms come before the loop
        u2, p2, r2 = solve_stokes(A, f, scalar_field(lat, np.zeros(lat.shape), is_real=True))
        for a, b in ((u1, u2), (p1, p2)):
            np.testing.assert_array_equal(a.coeffs, b.coeffs)
            assert a.coeffs.tobytes() == b.coeffs.tobytes()
            assert (a.is_real, a.zero_mean) == (b.is_real, b.zero_mean) == (is_real, True)
        assert u1.divergence_free and not u2.divergence_free
        assert r1.flat_items() == r2.flat_items()
        assert r1.global_bound == r2.global_bound

    def test_viscous_matches_apply_viscosity(self):
        # apply_viscosity's half-cube blocks against the full-cube product
        for n, m in ((2, 4), (3, 3)):
            lat = make_lattice(n, m)
            A = random_elliptic_tensor(44, n)
            u = random_vector_field(45, lat, decay=1.0)
            mine = full_cube_viscosity(A, u)
            assert np.array_equal(mine, apply_viscosity(A, u).coeffs)
            _assert_matches_full_cube(A, u)

    @pytest.mark.parametrize("n, m", [(2, 4), (3, 3)])
    def test_viscous_of_complex_field(self, n, m):
        # the mirrored half of a complex field is applied, not conjugated
        lat = make_lattice(n, m)
        A = random_elliptic_tensor(46, n)
        u, _ = self._data(lat, 47, False)
        out = apply_viscosity(A, u)
        assert not out.is_real
        assert np.array_equal(out.coeffs, full_cube_viscosity(A, u))
        _assert_matches_full_cube(A, u)

    @pytest.mark.parametrize("n, m", [(2, 5), (3, 3)])
    def test_velocity_blocks_are_mode_blocks(self, n, m):
        A = random_elliptic_tensor(48, n)
        xis, symbols, _ = _whole_half(A, make_lattice(n, m))
        assert np.array_equal(symbols[:, :n, :n], mode_blocks(A, xis))

    @pytest.mark.parametrize("n", [2, 3])
    def test_assemble_symbol_matches_the_whole_half(self, n):
        # a one-mode stack is contracted with the bits of a longer one, so
        # the one-mode symbol is the whole half's at every half mode
        A = random_elliptic_tensor(3, n)
        xis, symbols, _ = _whole_half(A, make_lattice(n, 4))
        for xi, R in zip(xis, symbols):
            assert assemble_symbol(A, xi).real.tobytes() == R.tobytes(), xi

    def test_rejects_foreign_lattice(self):
        f = random_vector_field(1, make_lattice(2, 3))
        with pytest.raises(ValueError, match="divergence data lattice"):
            solve_stokes(ISO, f, random_scalar_field(2, make_lattice(2, 4)))
        with pytest.raises(ValueError, match="tensor dimension 3 does not match field n=2"):
            picard_solve(make_isotropic(0.0, 1.0, 3), f)

    @pytest.mark.parametrize("n", [1, 4])
    def test_rejects_other_dimensions(self, n):
        # no tensor or lattice exists outside DIMENSIONS, and the closed form
        # is looked up by n, so a symbol stack of another size fails loudly
        from tsflow.stokes import _invert

        with pytest.raises(ValueError, match=f"n={n} is not in DIMENSIONS"):
            make_isotropic(0.0, 1.0, n)
        with pytest.raises(ValueError, match=f"n={n} is not in DIMENSIONS"):
            make_lattice(n, 1)
        with pytest.raises(KeyError):
            _invert(np.eye(n + 1)[None], np.ones((1, n)))


def _assert_same_solve(a, b):
    """Assert that two (u, p, report) solves agree bit for bit, every report field included."""
    import dataclasses

    for x, y in zip(a[:2], b[:2]):
        assert type(x) is type(y) and x.coeffs.tobytes() == y.coeffs.tobytes()
        assert [getattr(x, k) for k in x._FLAGS] == [getattr(y, k) for k in y._FLAGS]
    for field in dataclasses.fields(a[2]):
        x, y = getattr(a[2], field.name), getattr(b[2], field.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field.name
        else:
            assert type(x) is type(y) and x == y, field.name


class TestStreamedSolve:
    """The one Stokes solve, streamed in blocks of rows of lattice axis 0."""

    # rows of 7 and 28 modes on the upper half, 13 and 49 on the whole cube:
    # _BLOCK = 5 takes one row per block, 60 takes 1 to 8 rows
    CASES = [(2, 6), (3, 3)]

    @staticmethod
    def _data(lat, seed, is_real, with_g):
        f, g = TestHalfCubeSolve._data(lat, seed, is_real)
        return f, (g if with_g else None)

    @pytest.mark.parametrize("with_g", [True, False])
    @pytest.mark.parametrize("is_real", [True, False])
    @pytest.mark.parametrize("n, m", CASES)
    @pytest.mark.parametrize("block", [5, 60])
    def test_blocking_changes_no_bit(self, monkeypatch, block, n, m, is_real, with_g):
        # the residual is the largest defect over the largest |x| of the
        # whole solve, whatever the blocks
        import tsflow.stokes as stokes_mod

        lat = make_lattice(n, m)
        A = random_elliptic_tensor(30 + n, n)
        f, g = self._data(lat, 31 + n, is_real, with_g)
        whole = solve_stokes(A, f, g)
        monkeypatch.setattr(stokes_mod, "_BLOCK", block)
        _assert_same_solve(solve_stokes(A, f, g), whole)

    @pytest.mark.parametrize("with_g", [True, False])
    @pytest.mark.parametrize("is_real", [True, False])
    @pytest.mark.parametrize("n, m", CASES)
    @pytest.mark.parametrize("block", [5, 60])
    def test_in_place_solve_changes_no_bit(self, monkeypatch, block, n, m, is_real, with_g):
        # u and p written over the data's own buffers, block after block:
        # each block copies its rows before it writes them, a real solve
        # reads its mirrors' xi_n = 0 plane from the copy taken before the
        # first block and writes xi_n < 0 last
        import tsflow.stokes as stokes_mod

        lat = make_lattice(n, m)
        A = random_elliptic_tensor(30 + n, n)
        f, g = self._data(lat, 31 + n, is_real, with_g)
        whole = solve_stokes(A, f, g)
        monkeypatch.setattr(stokes_mod, "_BLOCK", block)
        u_buf = np.array(f.coeffs)  # writable; the fields below are views of it
        p_buf = None if g is None else np.array(g.coeffs)
        f = SpectralVectorField(lat, u_buf[...], f.is_real)
        g = None if g is None else SpectralScalarField(lat, p_buf[...], g.is_real)
        solved = _solve_stokes(A, f, g, 1.0, u_buf, p_buf)
        _assert_same_solve(solved, whole)
        assert np.shares_memory(solved[0].coeffs, u_buf)
        assert p_buf is None or np.shares_memory(solved[1].coeffs, p_buf)

    @pytest.mark.parametrize("with_g", [True, False])
    @pytest.mark.parametrize("is_real", [True, False])
    def test_public_solve_never_writes_its_data(self, monkeypatch, is_real, with_g):
        # solve_stokes allocates its outputs: f and g keep every bit
        import tsflow.stokes as stokes_mod

        lat = make_lattice(3, 3)
        f, g = self._data(lat, 37, is_real, with_g)
        data = [fld for fld in (f, g) if fld is not None]
        before = [fld.coeffs.tobytes() for fld in data]
        monkeypatch.setattr(stokes_mod, "_BLOCK", 5)
        u, p, _ = solve_stokes(random_elliptic_tensor(38, 3), f, g)
        assert [fld.coeffs.tobytes() for fld in data] == before
        assert not any(np.shares_memory(a.coeffs, b.coeffs) for a in (u, p) for b in data)

    @pytest.mark.parametrize("with_g", [True, False])
    @pytest.mark.parametrize("is_real", [True, False])
    @pytest.mark.parametrize("n, m", [(2, 48), (3, 11)])
    def test_entries_match_whole_half_reference(self, n, m, is_real, with_g):
        # oracle: the whole solve in one piece: the data of every listed mode
        # at once (`_whole_data`), one _solve_symbols and one _mode_slacks on
        # the stacks built in one piece, the solution written back into zero
        # cubes and filled by conjugation for a real solve; the solve
        # streams it in blocks of the default size
        from tsflow.stokes import ESTIMATE_RTOL, _mode_slacks, _solve_symbols

        lat = make_lattice(n, m)
        A = random_elliptic_tensor(32 + n, n)
        f, g = self._data(lat, 33 + n, is_real, with_g)
        constants = _checked_constants(A, lat)
        at, keep, after, xis, x = _whole_data(lat, f, g, is_real)
        R = _mode_symbols(A, xis)
        y, defect, x_max = _solve_symbols(R, _invert(R, xis), x if is_real else x[0])
        slack_u, slack_p, bound_u, bound_p = _mode_slacks(constants, xis, x, y)
        u, p = np.zeros((n,) + lat.shape, np.complex128), np.zeros(lat.shape, np.complex128)
        flip = after[:, None]
        _place(u, at, keep, np.where(flip, np.conj(y[:, :n]), y[:, :n]))
        _place(p, at, keep, np.where(after, np.conj(-1j * y[:, n]), -1j * y[:, n]))
        if is_real:
            _hermitian_from_upper(u, lat)
            _hermitian_from_upper(p, lat)
        u = SpectralVectorField(lat, u, is_real, divergence_free=not with_g)
        p = SpectralScalarField(lat, p, is_real)
        ref = (u, p, StokesSolveReport(
            s=1.0,
            n_modes=lat.size - 1,
            residual=defect / max(x_max, 1e-300),
            constants=constants,
            min_slack_u=float(np.min(slack_u)),
            min_slack_p=float(np.min(slack_p)),
            estimates_ok=bool(
                np.all(slack_u >= -ESTIMATE_RTOL * bound_u)
                and np.all(slack_p >= -ESTIMATE_RTOL * bound_p)
            ),
            global_bound=global_estimate_slack(A, u, p, f, g, 1.0),
            mean_removed_f=False,
            mean_removed_g=False,
        ))
        _assert_same_solve(solve_stokes(A, f, g), ref)

    @pytest.mark.parametrize("n, m", CASES)
    def test_whole_half_stacks_are_the_solve_blocks(self, monkeypatch, n, m):
        # the one block builder: the blocks of a real solve, and the stacks
        # that Picard fills with them, are the upper half's stacks built in
        # one piece, bit for bit, with the same members of each pair
        import tsflow.navier_stokes as ns_mod
        import tsflow.stokes as stokes_mod

        lat = make_lattice(n, m)
        A = random_elliptic_tensor(30 + n, n)
        monkeypatch.setattr(stokes_mod, "_BLOCK", 7)
        stacks = _whole_half(A, lat)
        real, blocks = stokes_mod._blocks, []

        def recording(*args, **kwargs):
            for block in real(*args, **kwargs):
                blocks.append(block[3:])
                yield block

        monkeypatch.setattr(stokes_mod, "_blocks", recording)
        solve_stokes(A, *self._data(lat, 31 + n, True, True))
        assert len(blocks) == 2 * m + 1  # one row of 7 or more modes each
        half = ns_mod._picard_half(A, random_vector_field(31, lat), dealias_grid(m))
        picard = (half.xis, half.blocks, half.inverses)
        for k, stack in enumerate(stacks):
            joined = np.concatenate([block[k] for block in blocks])
            assert joined.dtype == stack.dtype and joined.shape == stack.shape
            assert joined.tobytes() == stack.tobytes()
            stored = stack[:, :n, :n] if k == 1 else stack
            assert picard[k].tobytes() == np.ascontiguousarray(stored).tobytes()

    @pytest.mark.parametrize("with_g", [True, False])
    def test_one_shot_holds_one_block(self, with_g):
        # at n = 3, m = 16 the outputs take 2.7 MiB and one block of modes
        # about 4.7 MiB; whole-half stacks of symbols, inverses, split data
        # and solution put the peak above 12 MiB
        import tracemalloc

        lat = make_lattice(3, 16)
        A = random_elliptic_tensor(34, 3)
        f, g = self._data(lat, 35, True, with_g)
        solve_stokes(A, f, g)  # fills the per-lattice caches outside the trace
        tracemalloc.start()
        try:
            solve_stokes(A, f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * 2**20

    @pytest.mark.parametrize("entry", ["solve_stokes", "picard_solve"])
    def test_singular_symbol_names_its_mode_in_a_later_block(self, monkeypatch, entry):
        # the pair of (0, 0, 2), solved at (0, 0, -2), lies in the fourth of
        # seven blocks, one row of lattice axis 0 each; the solve and Picard
        # build its symbol in that block
        import tsflow.stokes as stokes_mod

        lat = make_lattice(3, 3)
        A = random_elliptic_tensor(36, 3)
        real = stokes_mod._mode_symbols

        def singular(tensor, xis):
            R = real(tensor, xis)
            at = np.flatnonzero((xis == (0.0, 0.0, -2.0)).all(axis=1))
            R[at] = real(make_isotropic(1.0, 0.0, 3), xis[at])
            return R

        monkeypatch.setattr(stokes_mod, "_mode_symbols", singular)
        monkeypatch.setattr(stokes_mod, "_BLOCK", 7)
        f = random_vector_field(37, lat, decay=2.0)
        with pytest.raises(SingularSymbol) as caught:
            if entry == "solve_stokes":
                solve_stokes(A, f)
            else:
                picard_solve(A, f)
        assert str(caught.value) == "singular symbol at mode (0, 0, -2)"
        assert caught.value.xi == (0, 0, -2)
        assert caught.traceback[-1].name == "_invert"

    def test_divergence_limit_is_global(self, monkeypatch):
        # a divergence of half DIVERGENCE_RTOL * max |fhat| in the first block
        # of 7 modes (xi_0 = -6, xi_1 >= 0, where |fhat| is small) passes,
        # ten times above the limit of its own block; twice the limit fails,
        # with the message and the raising function of the check
        import tsflow.stokes as stokes_mod

        lat = make_lattice(2, 6)
        f = random_vector_field(38, lat, decay=3.0)
        limit = stokes_mod.DIVERGENCE_RTOL * np.max(np.abs(f.coeffs))
        first_block = stokes_mod.DIVERGENCE_RTOL * np.max(np.abs(f.coeffs[:, 0, 6:]))
        assert 0.5 * limit > 10 * first_block
        real = stokes_mod._solve_symbols
        monkeypatch.setattr(stokes_mod, "_BLOCK", 7)

        def solve(share):
            calls = []

            def skewed(R, inv, x):
                y, *fit = real(R, inv, x)
                if not calls:
                    y[:, 0] += share * limit / (2 * np.pi * 6)  # |2 pi xi_1| = 12 pi
                calls.append(x)
                return (y, *fit)

            monkeypatch.setattr(stokes_mod, "_solve_symbols", skewed)
            return solve_stokes(ISO, f)

        assert solve(0.5)[0].divergence_free
        with pytest.raises(NotSolenoidal, match=r"^velocity divergence \S+ exceeds \S+$") as caught:
            solve(2.0)
        assert caught.traceback[-1].name == "_check_solenoidal"

    def test_mean_warnings_name_the_calling_line(self):
        import inspect
        import warnings

        lat = make_lattice(2, 3)
        f = random_vector_field(39, lat, decay=2.0, zero_mean=False)
        g = random_scalar_field(40, lat, decay=2.0, zero_mean=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = inspect.currentframe().f_lineno + 1
            solve_stokes(ISO, f, g)
        tail = "has a nonzero mean; projecting onto the zero-mean subspace"
        assert [(str(w.message), w.filename, w.lineno) for w in caught] == [
            (f"stokes forcing {tail}", __file__, line),
            (f"divergence data {tail}", __file__, line),
        ]


class TestSolveMode:
    def test_transverse_forcing(self):
        sym = assemble_symbol(ISO, (1, 0))
        uhat, phat = solve_mode(sym, np.array([0.0, 1.0]), 0.0)
        np.testing.assert_allclose(uhat, [0.0, 1.0 / (4 * np.pi**2)], atol=1e-15)
        assert abs(phat) <= 1e-15

    def test_parallel_forcing_goes_to_pressure(self):
        sym = assemble_symbol(ISO, (1, 0))
        uhat, phat = solve_mode(sym, np.array([1.0, 0.0]), 0.0)
        np.testing.assert_allclose(uhat, [0.0, 0.0], atol=1e-15)
        assert phat == pytest.approx(-1j / (2 * np.pi), abs=1e-15)

    def test_pure_divergence_data(self):
        sym = assemble_symbol(ISO, (1, 0))
        uhat, phat = solve_mode(sym, np.zeros(2), 1.0)
        np.testing.assert_allclose(uhat, [-1j / (2 * np.pi), 0.0], atol=1e-15)
        assert phat == pytest.approx(2.0, abs=1e-13)

    def test_singular_symbol_raises(self):
        # mu = 0 gives a rank-one velocity block
        bad = make_isotropic(1.0, 0.0, 2)
        sym = assemble_symbol(bad, (1, 0))
        with pytest.raises(SingularSymbol):
            solve_mode(sym, np.array([0.0, 1.0]), 0.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_stacked_kernel_rows_match_solve_mode(self, n):
        # every row of a (k, B) stack, and of its (B, k) transpose with the
        # modes shared across cases, has the bits of its own solve_mode call
        from tsflow.stokes import _mode_symbols, _solve_modes

        rng = np.random.default_rng(n)
        k, B = 3, 7
        tensors = [random_elliptic_tensor(10 + c, n) for c in range(k)]
        xis = rng.integers(-4, 5, size=(k, B, n)).astype(float)
        xis[~xis.any(axis=-1), 0] = 1
        f = rng.standard_normal((k, B, n)) + 1j * rng.standard_normal((k, B, n))
        g = rng.standard_normal((k, B)) + 1j * rng.standard_normal((k, B))
        R = np.stack([_mode_symbols(t, xi) for t, xi in zip(tensors, xis)])
        uhat, phat, x, y = _solve_modes(R, xis, f, g)
        assert uhat.shape == (k, B, n) and phat.shape == (k, B)
        assert x.shape == y.shape == (k, B, n + 1)
        shared = np.stack([_mode_symbols(t, xis[0]) for t in tensors], axis=1)
        uhat_t, phat_t, _, _ = _solve_modes(shared, xis[0][:, None], f.swapaxes(0, 1), g.T)
        for c, tensor in enumerate(tensors):
            for b in range(B):
                u1, p1 = solve_mode(assemble_symbol(tensor, xis[c, b]), f[c, b], g[c, b])
                assert u1.tobytes() == uhat[c, b].tobytes()
                assert np.complex128(p1).tobytes() == phat[c, b].tobytes()
                u1, p1 = solve_mode(assemble_symbol(tensor, xis[0, b]), f[c, b], g[c, b])
                assert u1.tobytes() == uhat_t[b, c].tobytes()
                assert np.complex128(p1).tobytes() == phat_t[b, c].tobytes()


class TestIsotropicClosedForm:
    def test_matches_solve_mode_examples(self):
        for fhat, ghat in [
            (np.array([0.0, 1.0]), 0.0),
            (np.array([1.0, 0.0]), 0.0),
            (np.zeros(2), 1.0),
        ]:
            sym = assemble_symbol(ISO, (1, 0))
            u1, p1 = solve_mode(sym, fhat, ghat)
            u2, p2 = solve_isotropic_mode(0.0, 1.0, (1, 0), fhat, ghat)
            np.testing.assert_allclose(u1, u2, atol=1e-14)
            assert p1 == pytest.approx(p2, abs=1e-13)

    def test_bulk_pressure_coefficient(self):
        _, phat = solve_isotropic_mode(1.0, 2.0, (0, 1), np.zeros(2), 1.0)
        assert phat == pytest.approx(5.0)

    def test_linearity_in_f(self):
        fhat = np.array([0.3 + 0.1j, -0.7j])
        u1, p1 = solve_isotropic_mode(0.5, 1.5, (2, -1), fhat, 0.0)
        u2, p2 = solve_isotropic_mode(0.5, 1.5, (2, -1), 10.0 * fhat, 0.0)
        np.testing.assert_allclose(u2, 10.0 * u1, rtol=1e-14)
        assert p2 == pytest.approx(10.0 * p1, rel=1e-14)

    def test_rejects_bad_arguments(self):
        with pytest.raises(NonPositiveMu):
            solve_isotropic_mode(1.0, 0.0, (1, 0), np.zeros(2), 0.0)
        with pytest.raises(ZeroMode):
            solve_isotropic_mode(1.0, 1.0, (0, 0), np.zeros(2), 0.0)

    def test_agrees_with_general_path_on_random_modes(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            lam = float(rng.uniform(-5, 5))
            mu = float(rng.uniform(0.1, 5))
            xi = rng.integers(-8, 9, size=2)
            if np.all(xi == 0):
                xi[0] = 1
            fhat = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            ghat = complex(rng.standard_normal(), rng.standard_normal())
            A = make_isotropic(lam, mu, 2)
            u1, p1 = solve_mode(assemble_symbol(A, xi), fhat, ghat)
            u2, p2 = solve_isotropic_mode(lam, mu, xi, fhat, ghat)
            scale = max(np.max(np.abs(u2)), abs(p2), 1.0)
            assert np.max(np.abs(u1 - u2)) <= 1e-12 * scale
            assert abs(p1 - p2) <= 1e-12 * scale


class TestSolveStokes:
    def test_zero_data_gives_zero_solution(self):
        lat = make_lattice(2, 4)
        zero_f = vector_field(lat, np.zeros((2,) + lat.shape), is_real=True, divergence_free=True)
        zero_g = scalar_field(lat, np.zeros(lat.shape), is_real=True)
        u, p, report = solve_stokes(ISO, zero_f, zero_g)
        assert np.all(u.coeffs == 0)
        assert np.all(p.coeffs == 0)
        assert report.residual == 0.0

    def test_manufactured_round_trip(self):
        lat = make_lattice(2, 6)
        u_star = random_vector_field(1, lat, decay=3.0)
        p_star = random_scalar_field(2, lat, decay=3.0)
        prob = manufacture(u_star, p_star, ISO)
        u, p, report = solve_stokes(ISO, prob.f, prob.g)
        rel_u = sobolev_norm(u - u_star, 1.0) / sobolev_norm(u_star, 1.0)
        rel_p = sobolev_norm(p - p_star, 0.0) / sobolev_norm(p_star, 0.0)
        assert rel_u <= 1e-11 and rel_p <= 1e-11
        assert report.estimates_ok

    @pytest.mark.parametrize("decay", [0.5, 1.0, 2.0, 3.5])
    def test_round_trip_reapplies_to_data(self, decay):
        # solve, then push the solution back through the forward operators;
        # holds for rough through smooth data alike
        lat = make_lattice(2, 5)
        A = random_elliptic_tensor(7, 2)
        f = random_vector_field(3, lat, decay=decay)
        g = random_scalar_field(4, lat, decay=decay)
        u, p, _ = solve_stokes(A, f, g)
        f_back = -1.0 * stokes_operator(A, u, p)
        g_back = divergence(u)
        assert sobolev_norm(f_back - f, -1.0) <= 1e-11 * sobolev_norm(f, -1.0)
        assert sobolev_norm(g_back - g, 0.0) <= 1e-11 * sobolev_norm(g, 0.0)

    def test_three_dimensional_round_trip(self):
        lat = make_lattice(3, 3)
        A = make_isotropic(0.7, 1.2, 3)
        u_star = random_vector_field(5, lat, decay=3.0)
        p_star = random_scalar_field(6, lat, decay=3.0)
        prob = manufacture(u_star, p_star, A)
        u, p, _ = solve_stokes(A, prob.f, prob.g)
        assert sobolev_norm(u - u_star, 1.0) <= 1e-11 * sobolev_norm(u_star, 1.0)

    def test_deterministic_bitwise(self):
        lat = make_lattice(2, 5)
        A = random_elliptic_tensor(11, 2)
        f = random_vector_field(8, lat, decay=2.0)
        g = random_scalar_field(9, lat, decay=2.0)
        u1, p1, _ = solve_stokes(A, f, g)
        u2, p2, _ = solve_stokes(A, f, g)
        assert np.array_equal(u1.coeffs, u2.coeffs)
        assert np.array_equal(p1.coeffs, p2.coeffs)

    def test_solution_is_real_for_real_data(self):
        lat = make_lattice(2, 4)
        f = random_vector_field(10, lat, decay=2.0)
        u, p, _ = solve_stokes(ISO, f, None)
        np.testing.assert_allclose(u.coeffs, np.conj(u.coeffs[:, ::-1, ::-1]), atol=0)
        np.testing.assert_allclose(p.coeffs, np.conj(p.coeffs[::-1, ::-1]), atol=0)

    def test_nonzero_mean_projected_with_warning(self):
        from tsflow.spectral import NonzeroMeanWarning

        lat = make_lattice(2, 3)
        c = random_vector_field(12, lat, decay=2.0).coeffs.copy()
        c[(0,) + lat.zero_index] = 0.5
        f = vector_field(lat, c, is_real=False)
        with pytest.warns(NonzeroMeanWarning):
            u, p, report = solve_stokes(ISO, f, None)
        assert report.mean_removed_f
        assert u.coeffs[(0,) + lat.zero_index] == 0

    @pytest.mark.parametrize(
        "entry",
        [
            lambda f, g: solve_stokes(ISO, f, g),
            lambda f, g: solve_stokes(ISO, f),
        ],
        ids=["solve_stokes", "solve_stokes_incompressible"],
    )
    def test_mean_warning_names_the_caller(self, entry):
        # the warning names the line of this file that calls the solve
        import warnings

        from tsflow.spectral import NonzeroMeanWarning

        lat = make_lattice(2, 3)
        f = random_vector_field(12, lat, decay=2.0)
        c = f.coeffs.copy()
        c[(slice(None),) + lat.zero_index] = 0.3 * np.max(np.abs(c))
        g = random_scalar_field(13, lat, decay=2.0, zero_mean=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            entry(vector_field(lat, c, is_real=True), g)
        flagged = [w for w in caught if issubclass(w.category, NonzeroMeanWarning)]
        assert flagged
        assert all(w.filename == __file__ for w in flagged)

    @pytest.mark.parametrize("n", [2, 3])
    def test_mean_is_flagged_never_read(self, n):
        # the solve reads no xi = 0 entry, so data with a mean gives the
        # bytes of the same data with its mean zeroed, the report included
        import warnings

        from tsflow.spectral import NonzeroMeanWarning, _without_mean

        A = random_elliptic_tensor(5, n)
        lat = make_lattice(n, 3)
        f = random_vector_field(14, lat, decay=2.0, zero_mean=False)
        g = random_scalar_field(15, lat, decay=2.0, zero_mean=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonzeroMeanWarning)
            u, p, report = solve_stokes(A, f, g)
        u0, p0, report0 = solve_stokes(A, _without_mean(f), _without_mean(g))
        assert report.mean_removed_f and report.mean_removed_g
        assert not (report0.mean_removed_f or report0.mean_removed_g)
        assert u.coeffs.tobytes() == u0.coeffs.tobytes()
        assert p.coeffs.tobytes() == p0.coeffs.tobytes()
        flags = ("mean_removed_f", "mean_removed_g")
        items = [kv for kv in report.flat_items() if kv[0] not in flags]
        assert items == [kv for kv in report0.flat_items() if kv[0] not in flags]

    def test_matches_modewise_isotropic_assembly(self):
        # assemble the whole solution from the closed forms, mode by mode
        lam, mu = 0.3, 1.4
        A = make_isotropic(lam, mu, 2)
        lat = make_lattice(2, 4)
        f = random_vector_field(16, lat, decay=3.0)
        g = random_scalar_field(17, lat, decay=3.0)
        u, p, _ = solve_stokes(A, f, g)
        u_ref = np.zeros_like(u.coeffs)
        p_ref = np.zeros_like(p.coeffs)
        for xi in lat.indices():
            if np.all(xi == 0):
                continue
            pos = tuple(xi + lat.m)
            fhat = np.array([f.coeffs[0][pos], f.coeffs[1][pos]])
            uhat, phat = solve_isotropic_mode(lam, mu, xi, fhat, g.coeffs[pos])
            u_ref[0][pos], u_ref[1][pos] = uhat
            p_ref[pos] = phat
        assert np.max(np.abs(u.coeffs - u_ref)) <= 1e-12
        assert np.max(np.abs(p.coeffs - p_ref)) <= 1e-12

    def test_smoothness_propagation_surrogate(self):
        # forcing with decay slope a produces velocity with slope >= a + 2
        lat = make_lattice(2, 16)
        f = random_vector_field(13, lat, decay=3.0, divergence_free=True)
        u, _, _ = solve_stokes(ISO, f)
        slope_f = regularity_slope(f).slope
        slope_u = regularity_slope(u).slope
        assert slope_f == pytest.approx(3.0, abs=0.2)
        assert slope_u >= slope_f + 2.0 - 0.2


class TestIncompressibleSolve:
    def test_transverse_single_mode(self):
        lat = make_lattice(2, 2)
        c = np.zeros((2,) + lat.shape, np.complex128)
        c[1][lat.m + 1, lat.m] = 1.0
        c[1][lat.m - 1, lat.m] = 1.0
        f = vector_field(lat, c, is_real=True)
        u, p, _ = solve_stokes(ISO, f)
        assert sobolev_norm(p, 0.0) <= 1e-14
        np.testing.assert_allclose(
            u.coeffs[1][lat.m + 1, lat.m], 1.0 / (4 * np.pi**2), atol=1e-15
        )

    def test_gradient_forcing_absorbed_by_pressure(self):
        lat = make_lattice(2, 4)
        phi = random_scalar_field(14, lat, decay=3.0)
        f = gradient(phi)
        u, p, _ = solve_stokes(ISO, f)
        assert sobolev_norm(u, 1.0) <= 1e-13 * sobolev_norm(phi, 1.0)
        assert sobolev_norm(p - phi, 0.0) <= 1e-12 * sobolev_norm(phi, 0.0)

    def test_divergence_free_output(self):
        lat = make_lattice(2, 6)
        f = random_vector_field(15, lat, decay=2.0)
        u, _, _ = solve_stokes(ISO, f)
        assert u.divergence_free
        assert sobolev_norm(divergence(u), 0.0) <= 1e-12

    def test_divergence_defect_raises(self, monkeypatch):
        # an explicit check, so it also holds under python -O; it is the
        # half-layout check that every Picard pass runs
        import tsflow.stokes as stokes_mod

        real = stokes_mod._solve_symbols

        def skewed(R, inv, x):
            y, *fit = real(R, inv, x)
            y[:, 0] += 1e-6 * np.max(np.abs(y))
            return (y, *fit)

        monkeypatch.setattr(stokes_mod, "_solve_symbols", skewed)
        f = random_vector_field(16, make_lattice(2, 4), decay=2.0)
        with pytest.raises(NotSolenoidal) as caught:
            solve_stokes(ISO, f)
        assert caught.traceback[-1].name == "_check_solenoidal"
        assert str(caught.traceback[-1].path) == stokes_mod.__file__

    def test_divergence_below_the_upper_half_raises(self, monkeypatch):
        # a complex solve checks every mode of the whole cube: only the
        # first, (-4, -4) with xi_n < 0, is skewed
        import tsflow.stokes as stokes_mod

        real = stokes_mod._solve_symbols
        calls = []

        def skewed(R, inv, x):
            y, *fit = real(R, inv, x)
            calls.append(x)
            y[0, 0] += 1e-6 * np.max(np.abs(y))
            return (y, *fit)

        monkeypatch.setattr(stokes_mod, "_solve_symbols", skewed)
        lat = make_lattice(2, 4)
        f = random_vector_field(17, lat, decay=2.0)
        f = vector_field(lat, f.coeffs + 1j * random_vector_field(18, lat).coeffs)
        with pytest.raises(NotSolenoidal):
            solve_stokes(ISO, f)
        assert len(calls) == 1 and calls[0].shape == (lat.size - 1, 3)


class TestScaleInvariantVerdicts:
    SCALES = [10.0**k for k in range(-20, 21, 5)]

    def test_estimates_ok_at_every_scale(self):
        # lambda = mu = 1 with transverse forcing makes the velocity bound an
        # equality, so the slack is pure rounding at every magnitude
        lat = make_lattice(2, 6)
        A = make_isotropic(1.0, 1.0, 2)
        f = random_vector_field(70, lat, decay=2.0, divergence_free=True)
        for scale in self.SCALES:
            u, p, report = solve_stokes(A, scale * f, None)
            assert report.estimates_ok, scale
            limit = 1e-14 * scale * np.max(np.abs(f.coeffs))
            slack_u = reference_solve_slacks(A, scale * f, None, u, p)[0]
            assert np.max(np.abs(slack_u)) <= limit and abs(report.min_slack_u) <= limit

    def test_violated_estimate_fails_at_every_scale(self, monkeypatch):
        # a solve inflated by 1e-9 overshoots the equality bound at every scale
        import tsflow.stokes as stokes_mod

        real = stokes_mod._solve_symbols

        def inflated(R, inv, x):
            y, *fit = real(R, inv, x)
            return (y * (1.0 + 1e-9), *fit)

        monkeypatch.setattr(stokes_mod, "_solve_symbols", inflated)
        lat = make_lattice(2, 4)
        A = make_isotropic(1.0, 1.0, 2)
        f = random_vector_field(71, lat, decay=2.0, divergence_free=True)
        for scale in self.SCALES:
            _, _, report = solve_stokes(A, scale * f, None)
            assert not report.estimates_ok, scale

    def test_divergence_check_at_every_scale(self):
        # gradient forcing leaves a velocity of pure rounding noise, whose
        # divergence must be judged against the data, not against itself
        lat = make_lattice(2, 6)
        phi = random_scalar_field(72, lat, decay=2.0)
        for scale in self.SCALES:
            u, p, _ = solve_stokes(ISO, gradient(scale * phi))
            assert u.divergence_free
            assert sobolev_norm(p - scale * phi, 0.0) <= 1e-12 * scale * sobolev_norm(phi, 0.0)

    def test_mean_flag_at_every_scale(self):
        # a mean of half the field scale is flagged (with a warning) and a
        # zero mean is not, whatever the magnitude of the data, by the solve
        # and by every constructor that zeroes the mean
        import warnings

        from tsflow.spectral import NonzeroMeanWarning, grid_transform, sampling_transform

        lat = make_lattice(2, 3)
        base = random_vector_field(73, lat, decay=2.0)
        c = base.coeffs.copy()
        c[(0,) + lat.zero_index] = 0.5 * np.max(np.abs(c))
        with_mean = vector_field(lat, c, is_real=True)

        def solve(fld):
            u, _, report = solve_stokes(ISO, fld, None)
            return u, report.mean_removed_f

        entries = {
            "solve_stokes": solve,
            "scalar_field": lambda fld: (scalar_field(lat, fld.coeffs[0], zero_mean=True), None),
            "vector_field": lambda fld: (vector_field(lat, fld.coeffs, True, zero_mean=True), None),
            "sampling_transform": lambda fld: (
                sampling_transform(grid_transform(fld, 2 * lat.m + 1), lat, zero_mean=True),
                None,
            ),
        }
        for name, entry in entries.items():
            for fld, expected in ((with_mean, True), (base, False)):
                for scale in self.SCALES:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        out, removed = entry(scale * fld)
                    warned = any(issubclass(w.category, NonzeroMeanWarning) for w in caught)
                    assert warned is expected and removed in (None, expected), (name, scale)
                    assert np.all(out.coeffs[(...,) + lat.zero_index] == 0), (name, scale)


class TestModeEstimates:
    def test_constants_for_unit_isotropic(self):
        constants = estimate_constants(ISO)
        assert constants["C_A"] == pytest.approx(0.5, rel=1e-12)
        assert constants["norm_A"] == pytest.approx(2.0)
        assert constants["C_uf"] == pytest.approx(1.0, rel=1e-12)
        assert constants["C_ug"] == pytest.approx(3.0, rel=1e-12)
        assert constants["C_pf"] == pytest.approx(3.0, rel=1e-12)
        assert constants["C_pg"] == pytest.approx(6.0, rel=1e-12)

    def test_zero_slack_at_tight_transverse_mode(self):
        fhat = np.array([0.0, 1.0])
        uhat, phat = solve_mode(assemble_symbol(ISO, (1, 0)), fhat, 0.0)
        slack_u, slack_p, _, _ = reference_mode_slacks(ISO, (1, 0), fhat, 0.0, uhat, phat)
        assert slack_u == pytest.approx(0.0, abs=1e-13)
        assert slack_p >= -1e-13

    def test_trivial_data(self):
        uhat, phat = solve_mode(assemble_symbol(ISO, (1, 0)), np.zeros(2), 0.0)
        assert not np.any(uhat) and phat == 0.0
        slack_u, slack_p, _, _ = reference_mode_slacks(ISO, (1, 0), np.zeros(2), 0.0, uhat, phat)
        assert slack_u == 0.0 and slack_p == 0.0

    def test_sweep_random_modes_and_tensors(self):
        rng = np.random.default_rng(1)
        for case in range(200):
            n = 2 if case % 3 else 3
            A = random_elliptic_tensor(case, n)
            xi = rng.integers(-8, 9, size=n)
            if np.all(xi == 0):
                xi[0] = 1
            fhat = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            ghat = complex(rng.standard_normal(), rng.standard_normal())
            uhat, phat = solve_mode(assemble_symbol(A, xi), fhat, ghat)
            slack_u, slack_p, _, _ = reference_mode_slacks(A, xi, fhat, ghat, uhat, phat)
            assert slack_u >= -1e-12 and slack_p >= -1e-12


class TestGlobalEstimate:
    def test_holds_on_manufactured_solves(self):
        lat = make_lattice(2, 6)
        A = random_elliptic_tensor(21, 2)
        u_star = random_vector_field(22, lat, decay=3.0)
        p_star = random_scalar_field(23, lat, decay=3.0)
        prob = manufacture(u_star, p_star, A)
        u, p, _ = solve_stokes(A, prob.f, prob.g)
        for s in (0.0, 1.0, 2.0):
            gb = global_estimate_slack(A, u, p, prob.f, prob.g, s)
            assert gb["slack_u"] >= -1e-12 * gb["rhs_u"]
            assert gb["slack_p"] >= -1e-12 * gb["rhs_p"]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("s", [0.0, 1.0, 2.5])
    def test_no_divergence_data_is_the_solve_bound(self, n, s):
        # g=None takes |g|_{s-1} = 0, as the incompressible solve does
        lat = make_lattice(n, 3)
        A = random_elliptic_tensor(24 + n, n)
        f = random_vector_field(26, lat, decay=2.0)
        u, p, report = solve_stokes(A, f, s=s)
        assert report.global_bound == global_estimate_slack(A, u, p, f, None, s)

    def test_zero_data(self):
        lat = make_lattice(2, 3)
        zero_u = vector_field(lat, np.zeros((2,) + lat.shape), is_real=True, divergence_free=True)
        zero_p = scalar_field(lat, np.zeros(lat.shape), is_real=True)
        gb = global_estimate_slack(ISO, zero_u, zero_p, zero_u, None, 1.0)
        assert gb["lhs_u"] == 0.0 and gb["rhs_u"] == 0.0

    def test_homogeneity_in_f(self):
        lat = make_lattice(2, 4)
        f = random_vector_field(30, lat, decay=2.0)
        u1, p1, _ = solve_stokes(ISO, f, None)
        u10, p10, _ = solve_stokes(ISO, 10.0 * f, None)
        g1 = global_estimate_slack(ISO, u1, p1, f, None, 1.0)
        g10 = global_estimate_slack(ISO, u10, p10, 10.0 * f, None, 1.0)
        assert g10["rhs_u"] == pytest.approx(10.0 * g1["rhs_u"], rel=1e-12)
        assert g10["lhs_u"] == pytest.approx(10.0 * g1["lhs_u"], rel=1e-12)
