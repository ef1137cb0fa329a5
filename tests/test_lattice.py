import itertools

import numpy as np
import pytest
import dense_oracles

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
    with pytest.raises(ValidationError, match="unknown boundary 'bogus'"):
        lattice.LatticeSpec(1, 3, "bogus")
    assert lattice.LatticeSpec(1, 3, "periodic").boundary is lattice.Boundary.PERIODIC
    assert lattice.LatticeSpec(3, 2).n_sites == 8


def site_index(spec, x) -> int:
    """Index of coordinate tuple ``x`` in the ``sites`` ordering."""
    idx = 0
    for c in x:
        assert 1 <= c <= spec.ell
        idx = idx * spec.ell + (int(c) - 1)
    return idx


def test_sites_lexicographic_and_index_roundtrip():
    spec = lattice.LatticeSpec(2, 3)
    pts = lattice.sites(spec)
    assert pts.shape == (9, 2)
    expected = np.array(list(itertools.product([1, 2, 3], repeat=2)))
    assert np.array_equal(pts, expected)
    for i, x in enumerate(pts):
        assert site_index(spec, x) == i


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
    t = dense_oracles.one_particle_kinetic(spec)
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
        v = dense_oracles.eigenfunction_matrix(spec)
        assert np.allclose(v.T @ v, np.eye(spec.n_sites), atol=1e-12)


def test_eigenfunction_matches_matrix_and_validates():
    spec = lattice.LatticeSpec(2, 3)
    v = dense_oracles.eigenfunction_matrix(spec)
    modes = lattice.dirichlet_modes(spec)
    pts = lattice.sites(spec)
    for ki in (0, 4, 8):
        for xi in (0, 3, 7):
            assert abs(dense_oracles.eigenfunction(spec, modes[ki], pts[xi]) - v[xi, ki]) < 1e-13
    with pytest.raises(ValidationError):
        dense_oracles.eigenfunction(spec, np.array([0.1, 0.2]), pts[0])


def test_one_particle_kinetic_diagonalized_by_sine_modes():
    # the confining kinetic operator must reproduce the dispersion exactly
    for spec in all_specs(max_sites=216):
        t = dense_oracles.one_particle_kinetic(spec)
        v = dense_oracles.eigenfunction_matrix(spec)
        eps = dispersion.epsilon(lattice.dirichlet_modes(spec))
        off = v.T @ t @ v - np.diag(eps)
        assert np.max(np.abs(off)) < 1e-12


def test_one_particle_kinetic_periodic_spectrum():
    spec = lattice.LatticeSpec(2, 4, lattice.Boundary.PERIODIC)
    t = dense_oracles.one_particle_kinetic(spec)
    got = np.sort(np.linalg.eigvalsh(t))
    want = np.sort(dispersion.epsilon(lattice.periodic_modes(spec)))
    assert np.max(np.abs(got - want)) < 1e-12


GEOMETRY_BOXES = [
    lattice.LatticeSpec(1, 5),
    lattice.LatticeSpec(2, 3),
    lattice.LatticeSpec(3, 2),
    lattice.LatticeSpec(2, 4, lattice.Boundary.PERIODIC),
]


@pytest.mark.parametrize("spec", GEOMETRY_BOXES)
def test_geometry_is_memoized_read_only_and_equals_a_fresh_computation(spec):
    fns = [lattice.sites, lattice.nn_pairs]
    if spec.boundary is lattice.Boundary.DIRICHLET:
        fns.append(lattice.boundary_multiplicity)
    for fn in fns:
        got = fn(spec)
        # an equal spec built anew finds the same arrays
        same = lattice.LatticeSpec(spec.d, spec.ell, spec.boundary.value)
        assert fn(same) is got
        fresh = fn.__wrapped__(spec)
        assert fresh is not got
        assert got.dtype == fresh.dtype and np.array_equal(got, fresh)
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 0
        assert np.array_equal(got, fresh)
    # only the latest box is kept: going back to it after another box
    # recomputes the same read-only arrays
    for box in (spec, lattice.LatticeSpec(1, 2), spec):
        for fn in fns:
            got = fn(box)
            assert np.array_equal(got, fn.__wrapped__(box))
            assert not got.flags.writeable
    # refusals are not memoized
    if spec.boundary is lattice.Boundary.PERIODIC:
        for _ in range(2):
            with pytest.raises(ValidationError):
                lattice.boundary_multiplicity(spec)


def test_memo_drops_its_oldest_entries_past_its_cap():
    memo = lattice._Memo(10)
    assert memo.cap == 10
    for key, floats in (("a", 4), ("b", 4), ("a", 4)):  # "a" again: now the latest
        memo.put(key, key.upper(), floats)
    assert list(memo) == ["b", "a"] and memo.floats == 8
    memo.put("c", "C", 4)
    assert list(memo) == ["a", "c"] and memo.floats == 8
    memo.put("d", "D", 11)  # larger than the whole budget: not kept
    assert memo == {"a": "A", "c": "C"} and memo.floats == 8


def test_memo_get_keeps_the_entry_and_marks_it_the_latest():
    memo = lattice._Memo(9)
    for key in "abc":
        memo.put(key, key.upper(), 3)
    assert memo.get("a") == "A" and memo.get("a") == "A"
    assert memo.get("z") is None
    assert list(memo) == ["b", "c", "a"] and memo.floats == 9
    assert memo._sizes == {"a": 3, "b": 3, "c": 3}
    memo.put("d", "D", 3)  # drops "b", now the least recently used, not "a"
    assert list(memo) == ["c", "a", "d"] and memo.floats == 9


def test_an_entry_over_the_cap_is_not_kept_and_drops_nothing():
    memo = lattice._Memo(10)
    memo.put("a", "A", 4)
    memo.put("b", "B", 4)
    memo.put("big", "BIG", 11)
    assert list(memo) == ["a", "b"] and memo.floats == 8
    memo.put("a", "A2", 11)  # nor does it replace the entry under its key
    assert memo == {"a": "A", "b": "B"} and memo.floats == 8
    memo.put("full", "F", 10)  # exactly the cap fits, dropping the rest
    assert memo == {"full": "F"} and memo.floats == 10
