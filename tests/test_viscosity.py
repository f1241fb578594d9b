"""Viscosity tensors: symmetry, relaxed ellipticity, viscous operator."""

import numpy as np
import pytest

from tsflow.harness import random_elliptic_tensor
from tsflow.spectral import (
    index_grids,
    inner,
    make_lattice,
    random_scalar_field,
    random_vector_field,
    gradient,
    symmetric_gradient,
    vector_field,
)
from tsflow.viscosity import (
    NotElliptic,
    ViscosityTensor,
    apply_viscosity,
    check_symmetry,
    ellipticity_constant,
    make_isotropic,
    make_tensor,
    restricted_form_matrix,
    stokes_operator,
    symmetrize,
    tensor_norm,
    trace_free_symmetric_basis,
)


def single_mode_velocity(lattice, xi, values):
    c = np.zeros((lattice.n,) + lattice.shape, np.complex128)
    pos = tuple(x + lattice.m for x in xi)
    for j, v in enumerate(values):
        c[(j,) + pos] = v
    return vector_field(lattice, c)


class TestIsotropicEntries:
    def test_mu_entries(self):
        A = make_isotropic(0.0, 1.0, 2)
        assert A.entries[0, 0, 0, 0] == pytest.approx(2.0)
        # (k=1, j=2, alpha=2, beta=1) in 1-based labels
        assert A.entries[0, 1, 1, 0] == pytest.approx(1.0)

    def test_lambda_only(self):
        A = make_isotropic(1.0, 0.0, 2)
        assert A.entries[0, 0, 0, 0] == pytest.approx(1.0)

    def test_symmetry_holds(self):
        for lam, mu in [(0.0, 1.0), (-3.0, 2.5), (7.0, 0.1)]:
            assert check_symmetry(make_isotropic(lam, mu, 3)) == []


class TestSymmetry:
    def test_single_perturbed_entry_detected(self):
        A = make_isotropic(0.0, 1.0, 2)
        e = A.entries.copy()
        e[0, 1, 0, 1] += 1e-6
        bad = check_symmetry(make_tensor(2, e))
        assert (0, 1, 0, 1) in bad

    def test_symmetrized_random_tensor_passes(self):
        rng = np.random.default_rng(0)
        A = symmetrize(3, rng.standard_normal((3, 3, 3, 3)))
        assert check_symmetry(A) == []

    def test_symmetrize_is_projection(self):
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((2, 2, 2, 2))
        once = symmetrize(2, raw)
        twice = symmetrize(2, once.entries)
        np.testing.assert_allclose(once.entries, twice.entries, atol=1e-15)


class TestEllipticity:
    def test_basis_is_orthonormal_and_trace_free(self):
        for n in (2, 3):
            basis = trace_free_symmetric_basis(n)
            assert basis.shape[0] == n * (n + 1) // 2 - 1
            gram = np.einsum("pij,qij->pq", basis, basis)
            np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-14)
            for b in basis:
                np.testing.assert_allclose(b, b.T, atol=0)
                assert abs(np.trace(b)) < 1e-14

    def test_isotropic_constant(self):
        assert ellipticity_constant(make_isotropic(0.0, 1.0, 2)) == pytest.approx(0.5, rel=1e-13)
        assert ellipticity_constant(make_isotropic(0.0, 1.0, 3)) == pytest.approx(0.5, rel=1e-13)

    def test_independent_of_lambda(self):
        # trace terms never see trace-free matrices
        assert ellipticity_constant(make_isotropic(-7.0, 1.0, 2)) == pytest.approx(0.5, rel=1e-13)
        assert ellipticity_constant(make_isotropic(123.0, 0.25, 3)) == pytest.approx(2.0, rel=1e-13)

    def test_mu_zero_is_not_elliptic(self):
        with pytest.raises(NotElliptic):
            ellipticity_constant(make_isotropic(1.0, 0.0, 2))

    def test_matches_direct_eigendecomposition(self):
        # oracle: min of the quadratic form over many random unit trace-free matrices
        A = make_isotropic(2.0, 0.7, 3)
        c = ellipticity_constant(A)
        rng = np.random.default_rng(3)
        worst = np.inf
        for _ in range(500):
            z = rng.standard_normal((3, 3))
            z = 0.5 * (z + z.T)
            z -= np.trace(z) / 3 * np.eye(3)
            z /= np.linalg.norm(z)
            q = np.einsum("kjab,ka,jb->", A.entries, z, z)
            worst = min(worst, q)
        assert worst >= 1.0 / c - 1e-12
        assert worst == pytest.approx(1.0 / c, rel=0.05)

    def test_cached_after_validation(self):
        A = make_isotropic(0.0, 2.0, 2)
        assert A.ellipticity is None
        ellipticity_constant(A)
        assert A.ellipticity == pytest.approx(0.25, rel=1e-13)

    def test_cache_is_not_a_constructor_argument(self):
        # an injected constant would skip the check and inflate every estimate bound
        with pytest.raises(TypeError):
            ViscosityTensor(2, np.zeros((2,) * 4), 1.0)
        with pytest.raises(NotElliptic):
            ellipticity_constant(ViscosityTensor(2, np.zeros((2,) * 4)))


class TestTensorNorm:
    def test_values(self):
        assert tensor_norm(make_isotropic(0.0, 1.0, 2)) == pytest.approx(2.0)
        assert tensor_norm(make_isotropic(3.0, 1.0, 2)) == pytest.approx(5.0)
        assert tensor_norm(make_tensor(2, np.zeros((2, 2, 2, 2)))) == 0.0


class TestViscousOperator:
    def test_transverse_mode_reduces_to_laplacian(self):
        lat = make_lattice(2, 2)
        A = make_isotropic(0.0, 1.0, 2)
        u = single_mode_velocity(lat, (1, 0), (0.0, 1.0))
        out = apply_viscosity(A, u)
        pos = (lat.m + 1, lat.m)
        assert out.coeffs[0][pos] == pytest.approx(0.0)
        assert out.coeffs[1][pos] == pytest.approx(-4 * np.pi**2)

    def test_gradient_mode_picks_up_full_modulus(self):
        lat = make_lattice(2, 2)
        A = make_isotropic(1.0, 1.0, 2)
        u = single_mode_velocity(lat, (1, 0), (1.0, 0.0))
        out = apply_viscosity(A, u)
        pos = (lat.m + 1, lat.m)
        assert out.coeffs[0][pos] == pytest.approx(-12 * np.pi**2)
        assert out.coeffs[1][pos] == pytest.approx(0.0)

    def test_one_dimension_rule(self):
        # the viscous operator and both Stokes solves share one check and its message
        from tsflow.navier_stokes import picard_solve
        from tsflow.stokes import solve_stokes

        tensor = make_isotropic(0.0, 1.0, 3)
        u = random_vector_field(1, make_lattice(2, 2), divergence_free=True)
        messages = set()
        for call in (apply_viscosity, solve_stokes, picard_solve):
            with pytest.raises(ValueError) as exc:
                call(tensor, u)
            messages.add(str(exc.value))
        assert messages == {"tensor dimension 3 does not match field n=2"}

    def test_constant_field_maps_to_zero(self):
        lat = make_lattice(2, 1)
        c = np.zeros((2,) + lat.shape, np.complex128)
        c[0][lat.zero_index] = 2.0
        u = vector_field(lat, c)
        assert np.all(apply_viscosity(make_isotropic(0.0, 1.0, 2), u).coeffs == 0)

    def test_matches_isotropic_closed_form(self):
        # (lam+mu) grad div + mu Laplacian, evaluated spectrally
        lat = make_lattice(2, 4)
        lam, mu = 0.8, 1.7
        A = make_isotropic(lam, mu, 2)
        u = random_vector_field(4, lat, decay=1.0)
        out = apply_viscosity(A, u)
        from tsflow.spectral import divergence, mode_abs2

        div_u = divergence(u)
        grad_div = gradient(div_u)
        a2 = mode_abs2(lat)
        expected = (lam + mu) * grad_div.coeffs - 4 * np.pi**2 * mu * a2 * u.coeffs
        np.testing.assert_allclose(out.coeffs, expected, atol=1e-11)

    @pytest.mark.parametrize("n, m", [(2, 5), (3, 3)])
    def test_matches_lattice_einsum(self, n, m):
        # the lattice einsum that mode_blocks replaced, summed in another
        # order: equal to rounding, relative to the largest coefficient
        lat = make_lattice(n, m)
        A = random_elliptic_tensor(9, n)
        u = random_vector_field(8, lat, decay=1.0)
        x = np.stack(index_grids(lat)).astype(float).reshape(n, -1)
        blocks = np.einsum("ap,kjab,bp->kjp", x, A.entries, x).reshape((n, n) + lat.shape)
        ref = -4.0 * np.pi**2 * np.einsum("kj...,j...->k...", blocks, u.coeffs)
        atol = 64 * np.finfo(float).eps * np.max(np.abs(ref))
        np.testing.assert_allclose(apply_viscosity(A, u).coeffs, ref, rtol=0, atol=atol)

    def test_preserves_reality(self):
        u = random_vector_field(5, make_lattice(2, 3))
        out = apply_viscosity(make_isotropic(0.0, 1.0, 2), u)
        flipped = np.conj(out.coeffs[:, ::-1, ::-1])
        np.testing.assert_allclose(out.coeffs, flipped, atol=1e-16)

    def test_dimension_mismatch(self):
        u = random_vector_field(0, make_lattice(2, 2))
        with pytest.raises(ValueError):
            apply_viscosity(make_isotropic(0.0, 1.0, 3), u)


class TestWeakForm:
    def test_weak_form_symmetry(self):
        # <-Lu, v> equals the viscosity form on symmetric gradients
        lat = make_lattice(2, 4)
        rng_seeds = [(1, 2), (3, 4), (5, 6)]
        A = symmetrize(2, np.random.default_rng(7).standard_normal((2, 2, 2, 2)))
        for su, sv in rng_seeds:
            u = random_vector_field(su, lat, decay=2.0)
            v = random_vector_field(sv, lat, decay=2.0)
            lhs = -inner(apply_viscosity(A, u), v).real
            Eu = symmetric_gradient(u).reshape(2, 2, -1)
            Ev = symmetric_gradient(v).reshape(2, 2, -1)
            rhs = np.einsum("kjab,jbx,kax->", A.entries, Eu, np.conj(Ev)).real
            assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_coercivity_on_solenoidal_fields(self):
        A = make_isotropic(-2.0, 1.3, 2)
        c_a = ellipticity_constant(A)
        for seed in range(5):
            u = random_vector_field(seed, make_lattice(2, 5), decay=2.0, divergence_free=True)
            E = symmetric_gradient(u).reshape(2, 2, -1)
            form = np.einsum("kjab,jbx,kax->", A.entries, E, np.conj(E)).real
            e_norm2 = np.sum(np.abs(E) ** 2)
            assert form >= e_norm2 / c_a - 1e-11 * e_norm2

    def test_stokes_operator_composition(self):
        lat = make_lattice(2, 3)
        A = make_isotropic(0.0, 1.0, 2)
        u = random_vector_field(8, lat, decay=2.0)
        p = random_scalar_field(9, lat, decay=2.0)
        out = stokes_operator(A, u, p)
        expected = apply_viscosity(A, u).coeffs - gradient(p).coeffs
        np.testing.assert_allclose(out.coeffs, expected, atol=0)

    def test_stokes_operator_degenerate_cases(self):
        lat = make_lattice(2, 3)
        A = make_isotropic(0.0, 1.0, 2)
        u = random_vector_field(8, lat, decay=2.0)
        zero_p = random_scalar_field(9, lat, decay=2.0) * 0.0
        np.testing.assert_allclose(
            stokes_operator(A, u, zero_p).coeffs, apply_viscosity(A, u).coeffs, atol=0
        )
        p = random_scalar_field(9, lat, decay=2.0)
        np.testing.assert_allclose(
            stokes_operator(A, 0.0 * u, p).coeffs, -gradient(p).coeffs, atol=0
        )


class TestEllipticityInvariance:
    def test_adding_pure_trace_term_changes_nothing(self):
        base = make_isotropic(0.0, 1.0, 3)
        c0 = ellipticity_constant(base)
        eye = np.eye(3)
        for lam_extra in (-11.0, 4.5):
            shifted = make_tensor(
                3, base.entries + lam_extra * np.einsum("ka,jb->kjab", eye, eye)
            )
            assert ellipticity_constant(shifted) == pytest.approx(c0, rel=1e-12)

    def test_restricted_form_is_symmetric(self):
        A = symmetrize(3, np.random.default_rng(11).standard_normal((3, 3, 3, 3)))
        M = restricted_form_matrix(A)
        np.testing.assert_allclose(M, M.T, atol=1e-13)


class TestScaleInvariantVerdicts:
    """The symmetry and ellipticity verdicts are relative to the tensor's size."""

    SCALES = [10.0**k for k in range(-20, 21, 5)]

    @staticmethod
    def tensors():
        return [
            make_isotropic(0.0, 1.0, 2),
            make_isotropic(-3.0, 0.7, 3),
            random_elliptic_tensor(5, 2),
            random_elliptic_tensor(6, 3),
        ]

    def test_ellipticity_constant_scales_inversely(self):
        for A in self.tensors():
            c = ellipticity_constant(A)
            for scale in self.SCALES:
                scaled = make_tensor(A.n, scale * A.entries)
                assert scale * ellipticity_constant(scaled) == pytest.approx(c, rel=1e-12), scale

    def test_small_isotropic_viscosity_is_elliptic(self):
        # an absolute floor would reject every mu below 5e-13
        for mu in (1e-13, 1e-20):
            assert ellipticity_constant(make_isotropic(0.0, mu, 2)) == pytest.approx(0.5 / mu)

    def test_symmetric_tensor_has_no_violations(self):
        symmetrized = symmetrize(3, np.random.default_rng(12).standard_normal((3, 3, 3, 3)))
        for A in self.tensors() + [symmetrized]:
            for scale in self.SCALES:
                assert check_symmetry(make_tensor(A.n, scale * A.entries)) == [], scale

    def test_scaled_asymmetry_found(self):
        e = make_isotropic(0.0, 1.0, 2).entries.copy()
        e[0, 1, 0, 1] += 1e-6
        for scale in self.SCALES:
            assert (0, 1, 0, 1) in check_symmetry(make_tensor(2, scale * e)), scale
