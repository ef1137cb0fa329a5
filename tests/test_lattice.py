import itertools

import numpy as np
import pytest

from magnon import dispersion, lattice
from magnon._errors import ValidationError


def all_specs(max_sites=64):
    for d in (1, 2, 3):
        for ell in range(1, 7):
            if ell**d <= max_sites:
                yield lattice.LatticeSpec(d, ell, lattice.Boundary.DIRICHLET)


def test_spec_validation():
    with pytest.raises(ValidationError):
        lattice.LatticeSpec(4, 3)
    with pytest.raises(ValidationError):
        lattice.LatticeSpec(2, 0)
    with pytest.raises(ValidationError):
        lattice.LatticeSpec(2, 2.5)
    # periodic wrap needs at least 3 sites per axis to avoid double bonds
    with pytest.raises(ValidationError):
        lattice.LatticeSpec(1, 2, lattice.Boundary.PERIODIC)
    assert lattice.LatticeSpec(3, 2).n_sites == 8


def test_sites_lexicographic_and_index_roundtrip():
    spec = lattice.LatticeSpec(2, 3)
    pts = lattice.sites(spec)
    assert pts.shape == (9, 2)
    expected = np.array(list(itertools.product([1, 2, 3], repeat=2)))
    assert np.array_equal(pts, expected)
    for i, x in enumerate(pts):
        assert lattice.site_index(spec, x) == i


def test_nn_pair_counts():
    for spec in all_specs():
        pairs = lattice.nn_pairs(spec)
        d, ell = spec.d, spec.ell
        assert pairs.shape[0] == d * ell ** (d - 1) * (ell - 1)
        # each pair is at unit lattice distance
        pts = lattice.sites(spec)
        if len(pairs):
            dist = np.abs(pts[pairs[:, 0]] - pts[pairs[:, 1]]).sum(axis=1)
            assert np.all(dist == 1)
    per = lattice.LatticeSpec(2, 4, lattice.Boundary.PERIODIC)
    assert lattice.nn_pairs(per).shape[0] == 2 * 16
    # no duplicated bonds either way around
    keys = {tuple(sorted(p)) for p in lattice.nn_pairs(per)}
    assert len(keys) == 32


def test_boundary_multiplicity_and_degree_sum():
    # multiplicity counts boundary contacts so that degree + multiplicity = 2d
    for spec in all_specs():
        mult = lattice.boundary_multiplicity(spec)
        deg = np.zeros(spec.n_sites, dtype=np.int64)
        for a, b in lattice.nn_pairs(spec):
            deg[a] += 1
            deg[b] += 1
        assert np.all(deg + mult == 2 * spec.d)


def test_single_site_box_multiplicity():
    spec = lattice.LatticeSpec(2, 1)
    assert np.array_equal(lattice.boundary_multiplicity(spec), [4])
    t = lattice.one_particle_kinetic(spec)
    # lone site: pure confinement, matching eps at the only sine momentum
    k = lattice.dirichlet_modes(spec)[0]
    assert t.shape == (1, 1)
    assert abs(t[0, 0] - dispersion.epsilon(k)) < 1e-14


def test_dirichlet_modes_grid():
    spec = lattice.LatticeSpec(2, 4)
    modes = lattice.dirichlet_modes(spec)
    assert modes.shape == (16, 2)
    assert np.all((modes > 0) & (modes < np.pi))
    base = np.pi * np.arange(1, 5) / 5.0
    assert np.allclose(sorted(set(np.round(modes.ravel(), 12))), base)


def test_periodic_modes_zero_first_and_range():
    spec = lattice.LatticeSpec(2, 4, lattice.Boundary.PERIODIC)
    modes = lattice.periodic_modes(spec)
    assert np.allclose(modes[0], 0.0)
    assert np.all((modes > -np.pi) & (modes <= np.pi + 1e-12))
    assert modes.shape == (16, 2)


def test_eigenfunction_matrix_orthonormal():
    for spec in all_specs(max_sites=216):
        v = lattice.eigenfunction_matrix(spec)
        assert np.allclose(v.T @ v, np.eye(spec.n_sites), atol=1e-12)


def test_eigenfunction_matches_matrix_and_validates():
    spec = lattice.LatticeSpec(2, 3)
    v = lattice.eigenfunction_matrix(spec)
    modes = lattice.dirichlet_modes(spec)
    pts = lattice.sites(spec)
    for ki in (0, 4, 8):
        for xi in (0, 3, 7):
            assert abs(lattice.eigenfunction(spec, modes[ki], pts[xi]) - v[xi, ki]) < 1e-13
    with pytest.raises(ValidationError):
        lattice.eigenfunction(spec, np.array([0.1, 0.2]), pts[0])


def test_one_particle_kinetic_diagonalized_by_sine_modes():
    # the confining kinetic operator must reproduce the dispersion exactly
    for spec in all_specs(max_sites=216):
        t = lattice.one_particle_kinetic(spec)
        v = lattice.eigenfunction_matrix(spec)
        eps = dispersion.epsilon(lattice.dirichlet_modes(spec))
        off = v.T @ t @ v - np.diag(eps)
        assert np.max(np.abs(off)) < 1e-12


def test_one_particle_kinetic_periodic_spectrum():
    spec = lattice.LatticeSpec(2, 4, lattice.Boundary.PERIODIC)
    t = lattice.one_particle_kinetic(spec)
    got = np.sort(np.linalg.eigvalsh(t))
    want = np.sort(dispersion.epsilon(lattice.periodic_modes(spec)))
    assert np.max(np.abs(got - want)) < 1e-12
