import numpy as np
import pytest
from conftest import dense_log_z
from dense_oracles import exact_free_energy

from magnon import fock, lattice, spin_ed, wick
from magnon._errors import CapacityError, ValidationError


def comm(a, b):
    return a @ b - b @ a


@pytest.mark.parametrize("two_s", [1, 2, 3, 4])
def test_spin_matrix_algebra(two_s):
    m = spin_ed.spin_matrices(two_s)
    s = two_s / 2.0
    assert np.allclose(comm(m.s3, m.s_plus), m.s_plus, atol=1e-13)
    assert np.allclose(comm(m.s_plus, m.s_minus), 2.0 * m.s3, atol=1e-13)
    casimir = m.s3 @ m.s3 + 0.5 * (m.s_plus @ m.s_minus + m.s_minus @ m.s_plus)
    assert np.allclose(casimir, s * (s + 1.0) * np.eye(two_s + 1), atol=1e-13)


def test_heisenberg_psd_and_ferromagnetic_ground():
    spec = lattice.LatticeSpec(1, 3)
    for two_s in (1, 2):
        h = spin_ed.heisenberg_hamiltonian(spec, two_s)
        w = np.linalg.eigvalsh(h)
        assert w.min() > -1e-12
        # the fully polarized state (all spins up = index 0 per site) has energy 0
        e0 = np.zeros(h.shape[0])
        e0[0] = 1.0
        assert np.max(np.abs(h @ e0)) < 1e-13


def test_total_sz_conserved():
    spec = lattice.LatticeSpec(2, 2)
    two_s = 1
    h = spin_ed.heisenberg_hamiltonian(spec, two_s)
    m = spin_ed.spin_matrices(two_s)
    n = spec.n_sites
    total_z = np.zeros_like(h)
    for x in range(n):
        ops = [np.eye(two_s + 1)] * n
        ops[x] = m.s3
        acc = ops[0]
        for o in ops[1:]:
            acc = np.kron(acc, o)
        total_z += acc
    assert np.max(np.abs(comm(h, total_z))) < 1e-12


def test_dirichlet_adds_boundary_field():
    spec = lattice.LatticeSpec(1, 3)
    two_s = 2
    h = spin_ed.heisenberg_hamiltonian(spec, two_s)
    hd = spin_ed.dirichlet_hamiltonian(spec, two_s)
    diff = hd - h
    # difference is diagonal: sum over sites of m(x) (s^2 + s S3_x)
    assert np.max(np.abs(diff - np.diag(np.diag(diff)))) < 1e-13
    m = spin_ed.spin_matrices(two_s)
    s = two_s / 2.0
    mult = lattice.boundary_multiplicity(spec)
    want = np.zeros_like(h)
    eye = np.eye(two_s + 1)
    for x in range(spec.n_sites):
        ops = [eye] * spec.n_sites
        ops[x] = s * s * eye + s * m.s3
        acc = ops[0]
        for o in ops[1:]:
            acc = np.kron(acc, o)
        want += mult[x] * acc
    assert np.max(np.abs(diff - want)) < 1e-12


def test_free_energy_limits():
    spec = lattice.LatticeSpec(1, 2)
    two_s = 2
    # infinite temperature: f/S -> -log(2S+1)/beta_tilde
    bt = 1e-4
    f = spin_ed.free_energy_per_spin(spec, two_s, bt)
    assert f == pytest.approx(-np.log(two_s + 1.0) / bt, rel=1e-3)
    # zero temperature, Dirichlet: ground energy is 0 so f/S -> 0
    assert abs(spin_ed.free_energy_per_spin(spec, two_s, 200.0)) < 1e-8


def test_exact_free_energy_is_log_trace():
    spec = lattice.LatticeSpec(1, 3)
    two_s = 1
    bt = 1.7
    s = two_s / 2.0
    h = spin_ed.dirichlet_hamiltonian(spec, two_s)
    beta = bt / s
    want = -dense_log_z(h, beta) / (beta * spec.n_sites)
    assert exact_free_energy(h, beta, spec.n_sites) == pytest.approx(
        want, rel=1e-13
    )
    # per-spin form divides out S
    assert spin_ed.free_energy_per_spin(spec, two_s, bt) == pytest.approx(
        want / s, rel=1e-13
    )


@pytest.mark.parametrize("dirichlet", [False, True])
def test_apply_hamiltonian_matches_dense(dirichlet):
    spec = lattice.LatticeSpec(2, 2)
    two_s = 2
    if dirichlet:
        h = spin_ed.dirichlet_hamiltonian(spec, two_s)
    else:
        h = spin_ed.heisenberg_hamiltonian(spec, two_s)
    rng = np.random.default_rng(7)
    for _ in range(3):
        v = rng.standard_normal(h.shape[0])
        got = spin_ed.apply_hamiltonian(spec, two_s, v, dirichlet=dirichlet)
        assert np.allclose(got, h @ v, atol=1e-11)


def test_magnon_check_periodic():
    spec = lattice.LatticeSpec(1, 4, boundary=lattice.Boundary.PERIODIC)
    for k in lattice.periodic_modes(spec)[1:]:
        resid = spin_ed.magnon_check(spec, 2, k)
        assert resid < 1e-12


def test_magnon_check_validation():
    spec = lattice.LatticeSpec(1, 4, boundary=lattice.Boundary.PERIODIC)
    with pytest.raises(ValidationError):
        spin_ed.magnon_check(spec, 2, np.array([0.3]))  # off the momentum grid
    with pytest.raises(ValidationError):
        spin_ed.magnon_check(lattice.LatticeSpec(1, 4), 2, np.array([np.pi / 5.0]))


def test_hp_equivalence_check():
    spec = lattice.LatticeSpec(1, 3)
    assert spin_ed.hp_equivalence_check(spec, 2) < 1e-12


def test_spin_vs_boson_free_energy():
    # spin trace equals the boson trace on the capped basis at n_max = 2S
    spec = lattice.LatticeSpec(1, 3)
    two_s = 2
    bt = 2.0
    s = two_s / 2.0
    basis = fock.FockBasis(spec, two_s)
    mult = lattice.boundary_multiplicity(spec).astype(np.float64)
    hb = fock.hp_hamiltonian(basis, two_s) + np.diag(
        s * (basis.occupations @ mult)
    )
    want = -dense_log_z(hb, bt / s) / (bt / s * spec.n_sites)
    hd = spin_ed.dirichlet_hamiltonian(spec, two_s)
    got = exact_free_energy(hd, bt / s, spec.n_sites)
    assert got == pytest.approx(want, rel=1e-12)


def _sector_indices(sb, two_s):
    """Positions of a sector's rows in the mixed-radix spin basis."""
    strides = (two_s + 1) ** np.arange(sb.n_sites, dtype=np.int64)
    return sb.occupations @ strides


@pytest.mark.parametrize("dirichlet", [True, False])
@pytest.mark.parametrize("d, ell, two_s", [(1, 4, 1), (1, 6, 2), (2, 2, 3), (2, 3, 1)])
def test_sector_hamiltonian_blocks_match_kronecker(d, ell, two_s, dirichlet):
    spec = lattice.LatticeSpec(d, ell)
    if dirichlet:
        h = spin_ed.dirichlet_hamiltonian(spec, two_s)
    else:
        h = spin_ed.heisenberg_hamiltonian(spec, two_s)
    covered = np.zeros(h.shape, dtype=bool)
    for n_total in range(spec.n_sites * two_s + 1):
        sb = fock.SectorBasis(spec, two_s, n_total)
        idx = _sector_indices(sb, two_s)
        block = spin_ed._sector_hamiltonian(sb, two_s, dirichlet)
        assert np.max(np.abs(block - h[np.ix_(idx, idx)])) <= 1e-13
        covered[np.ix_(idx, idx)] = True
    # total S^3 is conserved: nothing of H lies outside the sector blocks
    assert np.max(np.abs(h[~covered]), initial=0.0) == 0.0


@pytest.mark.parametrize("beta_tilde", [0.5, 2.0, 8.0])
@pytest.mark.parametrize("d, ell, two_s", [(1, 4, 1), (1, 6, 2), (2, 2, 3), (2, 3, 1)])
def test_sector_ed_matches_kronecker(d, ell, two_s, beta_tilde):
    spec = lattice.LatticeSpec(d, ell)
    s = two_s / 2.0
    beta = beta_tilde / s
    for dirichlet, h in (
        (True, spin_ed.dirichlet_hamiltonian(spec, two_s)),
        (False, spin_ed.heisenberg_hamiltonian(spec, two_s)),
    ):
        want = -dense_log_z(h, beta) / (beta * spec.n_sites) / s
        got = spin_ed.free_energy_per_spin(spec, two_s, beta_tilde, dirichlet=dirichlet)
        assert abs(got - want) <= 1e-13


def test_sector_ed_keeps_dense_cap():
    with pytest.raises(CapacityError):
        spin_ed.free_energy_per_spin(lattice.LatticeSpec(1, 13), 1, 2.0)
