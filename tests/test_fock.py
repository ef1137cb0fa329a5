import itertools

import numpy as np
import pytest
from conftest import dense_expectation, dense_log_z

from magnon import fock, lattice
from magnon._errors import CapacityError, ValidationError


def chain(n, ell=None):
    return lattice.LatticeSpec(1, n if ell is None else ell)


def test_basis_enumeration_and_lookup():
    spec = lattice.LatticeSpec(2, 2)
    basis = fock.FockBasis(spec, 3)
    assert basis.dim == 4**4
    occ = basis.occupations
    assert occ.shape == (256, 4)
    assert len({tuple(r) for r in occ}) == 256
    for idx in (0, 17, 255):
        assert basis.index_of(occ[idx]) == idx
    # out-of-range occupation is reported as absent
    assert basis._locate(np.array([[0, 0, 0, 4]]))[0] == -1


def test_sector_basis():
    spec = chain(3)
    for n_total in (0, 1, 2, 4):
        sb = fock.SectorBasis(spec, n_max=2, n_total=n_total)
        occ = sb.occupations
        assert np.all(occ.sum(axis=1) == n_total)
        assert np.all(occ <= 2)
        # count compositions of n_total into 3 parts each <= 2
        brute = sum(
            1
            for a in range(3)
            for b in range(3)
            for c in range(3)
            if a + b + c == n_total
        )
        assert sb.dim == brute


def test_basis_cap():
    with pytest.raises(CapacityError):
        fock.FockBasis(lattice.LatticeSpec(3, 3), 2)  # 3^27 states


def test_single_site_ladder_oracle():
    spec = chain(1, ell=1)
    basis = fock.FockBasis(spec, 5)
    a_dag, a, n = fock.ladder_matrices(basis, 0)
    for m in range(5):
        assert a_dag[m + 1, m] == pytest.approx(np.sqrt(m + 1))
        assert a[m, m + 1] == pytest.approx(np.sqrt(m + 1))
    assert np.allclose(n, np.diag(np.arange(6)))
    assert np.allclose(a_dag, a.T)
    # truncated commutator: [a, a+] = 1 - (n_max+1)|n_max><n_max|
    comm = a @ a_dag - a_dag @ a
    want = np.eye(6)
    want[5, 5] = -5.0
    assert np.allclose(comm, want)
    # normal-ordered quartic on one site is n(n-1)
    quart = fock.monomial_matrix(basis, [0, 0], [0, 0])
    ns = np.arange(6)
    assert np.allclose(quart, np.diag(ns * (ns - 1.0)))


def test_monomial_matrix_two_site_hop():
    spec = chain(2)
    basis = fock.FockBasis(spec, 3)
    hop = fock.monomial_matrix(basis, [0], [1])
    a_dag0, _, _ = fock.ladder_matrices(basis, 0)
    _, a1, _ = fock.ladder_matrices(basis, 1)
    assert np.allclose(hop, a_dag0 @ a1)


def test_kinetic_one_particle_sector_matches_lattice():
    # N = 1 sector of the bosonic kinetic operator is the one-particle matrix
    for spec in (chain(4), lattice.LatticeSpec(2, 2), lattice.LatticeSpec(2, 3)):
        sb = fock.SectorBasis(spec, n_max=1, n_total=1)
        # order sector states by the occupied site index
        order = np.argmax(sb.occupations, axis=1)
        perm = np.argsort(order)
        t = fock.kinetic_dirichlet(sb)[np.ix_(perm, perm)]
        assert np.allclose(t, lattice.one_particle_kinetic(spec), atol=1e-13)


def test_kinetic_positive_and_dirichlet_shift():
    spec = chain(3)
    basis = fock.FockBasis(spec, 2)
    t = fock.kinetic(basis)
    td = fock.kinetic_dirichlet(basis)
    assert np.allclose(t, t.T)
    assert np.min(np.linalg.eigvalsh(td)) > -1e-12
    mult = lattice.boundary_multiplicity(spec)
    diff = td - t
    assert np.allclose(diff, np.diag(basis.occupations @ mult))


def test_quartic_sextic_symmetry():
    spec = chain(2)
    basis = fock.FockBasis(spec, 4)
    for op in (fock.quartic(basis, 2), fock.sextic(basis, 2)):
        assert np.allclose(op, op.T, atol=1e-13)
    # quartic and sextic annihilate the vacuum and one-particle states
    sec01 = [basis.index_of([0, 0]), basis.index_of([1, 0]), basis.index_of([0, 1])]
    q = fock.quartic(basis, 2)
    assert np.max(np.abs(q[:, sec01])) == 0.0


def test_hp_rejects_cutoff_above_two_s():
    spec = chain(2)
    with pytest.raises(ValidationError):
        fock.hp_hamiltonian(fock.FockBasis(spec, 5), 4)


def test_hp_positive_and_vacuum_ground():
    spec = chain(3)
    basis = fock.FockBasis(spec, 2)
    h = fock.hp_hamiltonian(basis, 2)
    w = np.linalg.eigvalsh(h)
    assert w.min() > -1e-12
    vac = basis.index_of([0, 0, 0])
    assert np.max(np.abs(h[:, vac])) == 0.0


def test_expansion_terms_exact_remainders():
    spec = chain(2)
    for two_s in (1, 2, 3):
        basis = fock.FockBasis(spec, two_s)
        terms = fock.expansion_terms(basis, two_s)
        s = two_s / 2.0
        lhs = fock.hp_hamiltonian(basis, two_s) / s
        recon = terms.kinetic + terms.quartic + terms.remainder_after_quartic
        assert np.max(np.abs(lhs - recon)) < 1e-12
        recon3 = (
            terms.kinetic
            + terms.quartic
            + terms.sextic
            + terms.remainder_after_sextic
        )
        assert np.max(np.abs(lhs - recon3)) < 1e-12
        # remainders vanish on the 0- and 1-particle sectors
        small = [i for i, o in enumerate(basis.occupations) if o.sum() <= 1]
        assert np.max(np.abs(terms.remainder_after_quartic[:, small])) < 1e-13


def test_projector_and_trial_state():
    spec = chain(2)
    basis = fock.FockBasis(spec, 4)
    mask = fock.projector_mask(basis, 2)
    assert mask.sum() == 3**2  # occupations capped at 2S on both sites
    gamma = fock.trial_state(basis, 2, beta_tilde=2.0)
    assert abs(np.trace(gamma) - 1.0) < 1e-12
    assert np.min(np.linalg.eigvalsh(gamma)) > -1e-13
    outside = ~mask
    assert np.max(np.abs(gamma[outside][:, outside])) == 0.0


def test_gibbs_expectation_truncated_matches_dense():
    spec = lattice.LatticeSpec(2, 2)
    bt = 2.5
    n_max = 4
    basis = fock.FockBasis(spec, n_max)
    h = fock.kinetic_dirichlet(basis)
    quart = fock.quartic(basis, 1)
    want_q = dense_expectation(h, bt, quart)
    want_lz = dense_log_z(h, bt)
    (got_q,), got_lz = fock.gibbs_expectation_truncated(
        spec, n_max, bt, lambda sb, h: [fock.quartic(sb, 1)]
    )
    assert got_q == pytest.approx(want_q, rel=1e-12, abs=1e-15)
    assert got_lz == pytest.approx(want_lz, rel=1e-12)


def test_gibbs_expectation_truncated_sector_cap():
    spec = lattice.LatticeSpec(2, 2)
    bt = 3.0
    full = fock.gibbs_expectation_truncated(
        spec, 6, bt, lambda sb, h: [fock.quartic(sb, 1)]
    )
    capped = fock.gibbs_expectation_truncated(
        spec, 6, bt, lambda sb, h: [fock.quartic(sb, 1)], max_total=10
    )
    # dropping sectors with > 10 total bosons changes nothing at this beta
    assert capped[0][0] == pytest.approx(full[0][0], rel=1e-8)
    assert capped[1] == pytest.approx(full[1], rel=1e-10)


@pytest.mark.parametrize(
    "spec, n_max", [(chain(3), 2), (chain(4), 3), (lattice.LatticeSpec(2, 2), 5), (chain(6), 1)]
)
def test_sector_locate_matches_dict_oracle(spec, n_max):
    rng = np.random.default_rng(3)
    n = spec.n_sites
    for n_total in range(n * n_max + 2):
        sb = fock.SectorBasis(spec, n_max, n_total)
        # every composition of n_total into n parts of at most n_max, in order
        brute = [
            r for r in itertools.product(range(n_max + 1), repeat=n) if sum(r) == n_total
        ]
        assert sb.dim == len(brute)
        assert sb.occupations.shape == (len(brute), n)
        assert [tuple(r) for r in sb.occupations] == brute
        lookup = {r: i for i, r in enumerate(brute)}
        # valid rows shuffled, plus rows off by one on a site (wrong total),
        # rows moved across the cap and rows moved below zero
        rows = [np.array(r) for r in brute]
        for r in brute[:20]:
            base = np.array(r)
            for site in range(n):
                for delta in (1, -1):
                    off = base.copy()
                    off[site] += delta
                    rows.append(off)
            moved = base.copy()
            moved[0] -= n_max + 1
            moved[-1] += n_max + 1
            rows.append(moved)
        rows = np.array(rows, dtype=np.int64).reshape(-1, n)
        rows = rows[rng.permutation(len(rows))]
        want = np.array([lookup.get(tuple(int(v) for v in r), -1) for r in rows])
        got = sb._locate(rows)
        assert np.array_equal(got, want)
        assert np.all(got[(rows < 0).any(axis=1)] == -1)
        assert np.all(got[(rows > n_max).any(axis=1)] == -1)
        assert np.all(got[rows.sum(axis=1) != n_total] == -1)


def test_gibbs_expectation_truncated_shifts_spectra():
    # a constant drop of 500 would overflow unshifted Boltzmann weights at
    # beta 3; the drop of 1 per boson lowers the minimum in every sector, so
    # each earlier sum gets rescaled
    spec = chain(3)
    n_max, bt = 4, 3.0
    basis = fock.FockBasis(spec, n_max)
    number = basis.occupations.sum(axis=1).astype(np.float64)
    h = fock.kinetic_dirichlet(basis) - np.diag(500.0 + number)
    quart = fock.quartic(basis, 1)
    (got_q, got_n0), got_lz = fock.gibbs_expectation_truncated(
        spec,
        n_max,
        bt,
        lambda sb, hs: [fock.quartic(sb, 1), sb.occupations[:, 0]],
        hamiltonian=lambda sb: fock.kinetic_dirichlet(sb) - (500.0 + sb.n_total) * np.eye(sb.dim),
    )
    assert abs(got_lz - dense_log_z(h, bt)) <= 1e-13 * abs(got_lz)
    assert abs(got_q - dense_expectation(h, bt, quart)) < 1e-12
    n0 = np.diag(basis.occupations[:, 0].astype(np.float64))
    assert abs(got_n0 - dense_expectation(h, bt, n0)) < 1e-12


def test_gibbs_expectation_truncated_rejects_bad_observable():
    with pytest.raises(ValidationError):
        fock.gibbs_expectation_truncated(
            chain(2), 2, 1.0, lambda sb, h: [np.zeros(sb.dim + 1)]
        )
