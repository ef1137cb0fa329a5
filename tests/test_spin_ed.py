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


def test_embed_puts_site_zero_least_significant():
    rng = np.random.default_rng(7)
    r = 3
    a, b = rng.standard_normal((2, r, r))
    got = spin_ed._embed({0: a, 2: b}, r, 3)
    np.testing.assert_array_equal(got, np.kron(b, np.kron(np.eye(r), a)))
    np.testing.assert_array_equal(spin_ed._embed({1: a}, r, 2), np.kron(a, np.eye(r)))


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
    assert f == pytest.approx(-np.log(two_s + 1.0) / bt, rel=1e-3, abs=0.0)
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
        want, rel=1e-13, abs=0.0
    )
    # per-spin form divides out S
    assert spin_ed.free_energy_per_spin(spec, two_s, bt) == pytest.approx(
        want / s, rel=1e-13, abs=0.0
    )


def test_magnon_check_periodic():
    spec = lattice.LatticeSpec(1, 4, boundary=lattice.Boundary.PERIODIC)
    for two_s in (1, 2, 3):
        for k in lattice.periodic_modes(spec)[1:]:
            assert spin_ed.magnon_check(spec, two_s, k) < 1e-12


def test_magnon_check_far_past_the_dense_cap():
    # the whole space has 3^36 states; the one-magnon sector has 36
    spec = lattice.LatticeSpec(2, 6, boundary=lattice.Boundary.PERIODIC)
    for k in lattice.periodic_modes(spec):
        assert spin_ed.magnon_check(spec, 2, k) < 1e-12


def test_magnon_check_validation():
    spec = lattice.LatticeSpec(1, 4, boundary=lattice.Boundary.PERIODIC)
    with pytest.raises(ValidationError):
        spin_ed.magnon_check(spec, 2, np.array([0.3]))  # off the momentum grid
    with pytest.raises(ValidationError):
        spin_ed.magnon_check(lattice.LatticeSpec(1, 4), 2, np.array([np.pi / 5.0]))
    # a one-unit sector past the dense cap is refused before it is built
    big = lattice.LatticeSpec(3, 17, boundary=lattice.Boundary.PERIODIC)
    with pytest.raises(CapacityError):
        spin_ed.magnon_check(big, 2, lattice.periodic_modes(big)[1])


def test_hp_equivalence_check():
    spec = lattice.LatticeSpec(1, 3)
    assert spin_ed.hp_equivalence_check(spec, 2) < 1e-12


def test_hp_equivalence_check_refuses_a_huge_box():
    # the refusal names the power 2^27000, which has too many digits to print
    with pytest.raises(CapacityError, match=r"2\^27000"):
        spin_ed.hp_equivalence_check(lattice.LatticeSpec(3, 30), 1)


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
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def _sector_indices(sb, two_s):
    """Positions of a sector's rows in the mixed-radix spin basis."""
    strides = (two_s + 1) ** np.arange(sb.n_sites, dtype=np.int64)
    return sb.occupations @ strides


@pytest.mark.parametrize(
    "d, ell, two_s, dirichlet",
    [
        (1, 4, 1, True), (1, 4, 1, False), (1, 6, 2, True), (1, 6, 2, False),
        (2, 2, 3, True), (2, 3, 1, True), (2, 3, 1, False), (1, 5, 3, False),
    ],
)
def test_sector_hamiltonian_blocks_match_kronecker(d, ell, two_s, dirichlet):
    # Dirichlet boxes carry the frozen-bond penalty, periodic boxes none
    if dirichlet:
        spec = lattice.LatticeSpec(d, ell)
        h = spin_ed.dirichlet_hamiltonian(spec, two_s)
    else:
        spec = lattice.LatticeSpec(d, ell, lattice.Boundary.PERIODIC)
        h = spin_ed.heisenberg_hamiltonian(spec, two_s)
    covered = np.zeros(h.shape, dtype=bool)
    for n_total in range(spec.n_sites * two_s + 1):
        sb = fock.SectorBasis(spec, two_s, n_total)
        idx = _sector_indices(sb, two_s)
        block = spin_ed._sector_hamiltonian(sb, two_s)
        assert np.max(np.abs(block - h[np.ix_(idx, idx)])) <= 1e-13
        covered[np.ix_(idx, idx)] = True
    # total S^3 is conserved: nothing of H lies outside the sector blocks
    assert np.max(np.abs(h[~covered]), initial=0.0) == 0.0


@pytest.mark.parametrize("beta_tilde", [0.5, 2.0, 8.0])
@pytest.mark.parametrize("d, ell, two_s", [(1, 4, 1), (1, 6, 2), (2, 2, 3), (2, 3, 1)])
def test_sector_ed_matches_kronecker(d, ell, two_s, beta_tilde):
    s = two_s / 2.0
    beta = beta_tilde / s
    cases = [(lattice.LatticeSpec(d, ell), spin_ed.dirichlet_hamiltonian)]
    if ell >= 3:
        periodic = lattice.LatticeSpec(d, ell, lattice.Boundary.PERIODIC)
        cases.append((periodic, spin_ed.heisenberg_hamiltonian))
    for spec, dense in cases:
        want = -dense_log_z(dense(spec, two_s), beta) / (beta * spec.n_sites) / s
        got = spin_ed.free_energy_per_spin(spec, two_s, beta_tilde)
        assert abs(got - want) <= 1e-13


def test_sector_ed_keeps_dense_cap():
    with pytest.raises(CapacityError):
        spin_ed.free_energy_per_spin(lattice.LatticeSpec(1, 13), 1, 2.0)
    with pytest.raises(CapacityError):  # 2^27000 states
        spin_ed.free_energy_per_spin(lattice.LatticeSpec(3, 30), 1, 2.0)


def _loop_spin_diagonal(spec, two_s, occ):
    """Spin ED's diagonal summed bond by bond, then frozen bond by frozen bond."""
    s = two_s / 2.0
    diag = np.zeros(occ.shape[0])
    for i, j in lattice.nn_pairs(spec):
        diag += s * s - (occ[:, i] - s) * (occ[:, j] - s)
    if spec.boundary is lattice.Boundary.DIRICHLET:
        mult = lattice.boundary_multiplicity(spec)
        for x in np.nonzero(mult)[0]:
            diag += mult[x] * (s * s + s * (occ[:, x] - s))
    return diag


@pytest.mark.parametrize(
    "spec",
    [
        lattice.LatticeSpec(1, 1),
        lattice.LatticeSpec(1, 5),
        lattice.LatticeSpec(2, 2),
        lattice.LatticeSpec(2, 3),
        lattice.LatticeSpec(3, 2),
        lattice.LatticeSpec(2, 3, lattice.Boundary.PERIODIC),
    ],
)
@pytest.mark.parametrize("two_s", [1, 2, 3, 4])
def test_spin_diagonal_equals_the_per_bond_loop_bit_for_bit(spec, two_s):
    top = spec.n_sites * two_s
    for n_total in sorted({*range(min(4, top) + 1), *range(max(0, top - 3), top + 1)}):
        sb = fock.SectorBasis(spec, two_s, n_total)
        got = spin_ed._diagonal(sb, two_s)
        assert got.dtype == np.float64
        assert np.array_equal(got, _loop_spin_diagonal(spec, two_s, sb.occupations))


def test_ed_and_box_bound_traces_share_sector_bases(monkeypatch, capsys):
    from magnon import cli

    built, seen = [], {"ed": [], "bound": []}
    init = fock.SectorBasis.__init__
    sector_hamiltonian, kinetic_dirichlet = spin_ed._sector_hamiltonian, fock.kinetic_dirichlet

    def counting_init(self, spec, n_max, n_total):
        built.append((spec, n_max, n_total))
        init(self, spec, n_max, n_total)

    def ed_hamiltonian(sb, two_s):
        seen["ed"].append(sb)
        return sector_hamiltonian(sb, two_s)

    def bound_hamiltonian(sb):
        seen["bound"].append(sb)
        return kinetic_dirichlet(sb)

    spec = lattice.LatticeSpec(2, 2)
    # start from an empty memo, whatever ran before
    monkeypatch.setattr(fock, "_sector_memo", lattice._Memo(fock._sector_memo.cap))
    monkeypatch.setattr(fock.SectorBasis, "__init__", counting_init)
    monkeypatch.setattr(spin_ed, "_sector_hamiltonian", ed_hamiltonian)
    monkeypatch.setattr(fock, "kinetic_dirichlet", bound_hamiltonian)
    argv = ["ed-compare", "--mode", "exact", "--d", "2", "--ell", "2", "--two-s", "2",
            "--beta-tilde", "1.5,3.0"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    # each sector is built once, and each of its two Hamiltonians once: the
    # second temperature reuses both traces' spectra
    assert sorted(built) == [(spec, 2, n) for n in range(9)]
    assert len(seen["ed"]) == len(seen["bound"]) == 9
    assert all(a is b for a, b in zip(seen["ed"], seen["bound"]))
    (table,) = fock._sector_memo.values()
    assert list(fock._sector_memo) == [(spec, 2)]
    assert all(table[n] is sb for n, sb in enumerate(seen["ed"]))


def test_remainder_check_keeps_the_traced_box(monkeypatch):
    for memo in ("_sector_memo", "_spectra_memo", "_eigensystem_memo"):  # whatever ran before
        monkeypatch.setattr(fock, memo, lattice._Memo(getattr(fock, memo).cap))
    spec = lattice.LatticeSpec(1, 3)
    wick.remainder_check(spec, 2, 2.0, 4)
    kept = dict(fock._sector_memo[spec, 4])
    assert sorted(kept) == list(range(spec.n_sites * 4 + 1))
    built = []
    init = fock.SectorBasis.__init__

    def counting_init(self, spec_, n_max, n_total):
        built.append(n_max)
        init(self, spec_, n_max, n_total)

    monkeypatch.setattr(fock.SectorBasis, "__init__", counting_init)
    # another temperature reuses the spectra: nothing is built
    wick.remainder_check(spec, 2, 3.0, 4)
    assert built == []
    # another 2S is a new trace of the same box: the remainder is built on
    # the traced sectors themselves, so no basis is built, and the memo
    # still holds the traced box
    wick.remainder_check(spec, 3, 3.0, 4)
    assert built == []
    assert list(fock._sector_memo) == [(spec, 4)]
    table = fock._sector_memo[spec, 4]
    assert table == kept and all(table[n] is sb for n, sb in kept.items())
