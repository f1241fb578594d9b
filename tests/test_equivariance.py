"""Signed-permutation equivariance of the Stokes and Navier-Stokes solves.

A signed permutation Q of the axes maps a problem to another one: the
tensor to (Q x Q x Q x Q) . a, a vector field to Q v(Q^T xi) and a scalar
field to s(Q^T xi). Each solve must commute with that map to rounding,
whatever axis the coefficient layout privileges, so the elements that move
the last axis are checked as well as the others. The map acts on whole
coefficient cubes and shares no code with the solvers' layouts.
"""

import itertools

import numpy as np
import pytest

from tsflow.harness import random_elliptic_tensor
from tsflow.navier_stokes import picard_solve
from tsflow.spectral import (
    SpectralScalarField,
    SpectralVectorField,
    make_lattice,
    random_scalar_field,
    random_vector_field,
)
from tsflow.stokes import solve_stokes
from tsflow.viscosity import make_tensor

CASES = [(2, 6), (3, 4)]  # 8 and 48 signed permutations


def signed_permutations(n):
    """Every n x n signed permutation matrix: 2^n n! of them."""
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            Q = np.zeros((n, n), int)
            Q[np.arange(n), perm] = signs
            yield Q


def act_on_tensor(Q, tensor):
    """(Q x Q x Q x Q) . a: each entry is one signed entry of a, so the map is exact."""
    entries = np.einsum("kp,jq,ar,bs,pqrs->kjab", Q, Q, Q, Q, tensor.entries)
    return make_tensor(tensor.n, entries)


def act_on_field(Q, fld):
    """Q v(Q^T xi) of a vector field, s(Q^T xi) of a scalar field, on its whole cube."""
    lat = fld.lattice
    source = lat.indices() @ Q  # row xi holds Q^T xi
    take = np.ravel_multi_index(tuple((source + lat.m).T), lat.shape)
    flat = fld.coeffs.reshape(fld.coeffs.shape[: fld.coeffs.ndim - lat.n] + (-1,))[..., take]
    if isinstance(fld, SpectralVectorField):
        flat = Q @ flat
        return SpectralVectorField(lat, flat.reshape(fld.coeffs.shape), fld.is_real)
    return SpectralScalarField(lat, flat.reshape(fld.coeffs.shape), fld.is_real)


def gap(got, ref):
    """Largest coefficient gap relative to the largest reference coefficient."""
    return float(np.max(np.abs(got.coeffs - ref.coeffs)) / np.max(np.abs(ref.coeffs)))


@pytest.mark.parametrize("n, m", CASES)
def test_stokes_solve_commutes_with_signed_permutations(n, m):
    lat = make_lattice(n, m)
    tensor = random_elliptic_tensor(3, n)
    f = random_vector_field(1, lat, decay=2.0)
    g = random_scalar_field(2, lat, decay=2.0)
    u, p, _ = solve_stokes(tensor, f, g)
    for Q in signed_permutations(n):
        uq, pq, report = solve_stokes(act_on_tensor(Q, tensor), act_on_field(Q, f),
                                      act_on_field(Q, g))
        assert report.estimates_ok
        assert gap(uq, act_on_field(Q, u)) <= 1e-13, Q
        assert gap(pq, act_on_field(Q, p)) <= 1e-13, Q


@pytest.mark.parametrize("n, m", CASES)
def test_picard_solve_commutes_with_signed_permutations(n, m):
    lat = make_lattice(n, m)
    tensor = random_elliptic_tensor(3, n)
    f = 5.0 * random_vector_field(1, lat, decay=2.0, divergence_free=True)  # 10 passes
    u, p, report = picard_solve(tensor, f)
    assert report.iterations >= 5  # the nonlinear term takes part
    for Q in signed_permutations(n):
        uq, pq, reportq = picard_solve(act_on_tensor(Q, tensor), act_on_field(Q, f))
        assert reportq.iterations == report.iterations
        assert gap(uq, act_on_field(Q, u)) <= 1e-13, Q
        assert gap(pq, act_on_field(Q, p)) <= 1e-13, Q
