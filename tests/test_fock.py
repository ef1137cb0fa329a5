import itertools
import json
import math
import time
import weakref

import dense_oracles
import numpy as np
import pytest
from conftest import dense_expectation, dense_log_z

from magnon import cli, diagrams, fock, lattice, linalg, spin_ed, spinwave, wick
from magnon._errors import CapacityError, ValidationError


def chain(n, ell=None):
    return lattice.LatticeSpec(1, n if ell is None else ell)


def quartic_of(sb, two_s):
    return [fock.quartic(sb, two_s)]


def test_basis_enumeration_and_lookup():
    spec = lattice.LatticeSpec(2, 2)
    basis = fock.FockBasis(spec, 3)
    assert basis.dim == 4**4
    occ = basis.occupations
    assert occ.shape == (256, 4)
    assert len({tuple(r) for r in occ}) == 256
    for idx in (0, 17, 255):
        assert int(occ[idx] @ basis.strides) == idx
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
    # 2^27000 has more digits than Python turns into text; the refusal names the power
    with pytest.raises(CapacityError, match=r"2\^27000"):
        fock.FockBasis(lattice.LatticeSpec(3, 30), 1)


def test_dense_space_rule():
    assert fock._check_dense_space(chain(12), 1) == 2**12  # at the dense cap
    with pytest.raises(CapacityError):
        fock._check_dense_space(chain(13), 1)
    # 2^27000 has more digits than Python turns into text; the refusal names the power
    with pytest.raises(CapacityError, match=r"2\^27000"):
        fock._check_dense_space(lattice.LatticeSpec(3, 30), 1)


def test_a_huge_box_is_refused_at_once():
    # 3^27000000 states: a power whose digits take seconds to form, so the cap counts digits
    spec = lattice.LatticeSpec(3, 300)
    start = time.perf_counter()
    with pytest.raises(CapacityError, match=r"3\^27000000 exceeds dense cap"):
        fock.FockBasis(spec, 2)
    with pytest.raises(CapacityError, match=r"3\^27000000 exceeds dense cap"):
        fock._check_dense_space(spec, 2)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("radix", [2, 3, 5, 4097])
def test_max_sites_is_the_largest_power_under_the_cap(radix):
    for cap in (1, 4095, 4096, 2**20):
        sites = fock._max_sites(radix, cap)
        assert radix**sites <= cap < radix ** (sites + 1)


def test_single_site_ladder_oracle():
    spec = chain(1, ell=1)
    basis = fock.FockBasis(spec, 5)
    a_dag, a, n = dense_oracles.ladder_matrices(basis, 0)
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
    quart = dense_oracles.monomial_matrix(basis, [0, 0], [0, 0])
    ns = np.arange(6)
    assert np.allclose(quart, np.diag(ns * (ns - 1.0)))


def test_monomial_matrix_two_site_hop():
    spec = chain(2)
    basis = fock.FockBasis(spec, 3)
    hop = dense_oracles.monomial_matrix(basis, [0], [1])
    a_dag0, _, _ = dense_oracles.ladder_matrices(basis, 0)
    _, a1, _ = dense_oracles.ladder_matrices(basis, 1)
    assert np.allclose(hop, a_dag0 @ a1)


def test_kinetic_one_particle_sector_matches_lattice():
    # N = 1 sector of the bosonic kinetic operator is the one-particle matrix
    for spec in (chain(4), lattice.LatticeSpec(2, 2), lattice.LatticeSpec(2, 3)):
        sb = fock.SectorBasis(spec, n_max=1, n_total=1)
        # order sector states by the occupied site index
        order = np.argmax(sb.occupations, axis=1)
        perm = np.argsort(order)
        t = fock.kinetic_dirichlet(sb)[np.ix_(perm, perm)]
        assert np.allclose(t, dense_oracles.one_particle_kinetic(spec), atol=1e-13)


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
    for op in (fock.quartic(basis, 2), dense_oracles.sextic(basis, 2)):
        assert np.allclose(op, op.T, atol=1e-13)
    # quartic and sextic annihilate the vacuum and one-particle states
    sec01 = [int(np.dot(occ, basis.strides)) for occ in ([0, 0], [1, 0], [0, 1])]
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
    vac = int(np.dot([0, 0, 0], basis.strides))
    assert np.max(np.abs(h[:, vac])) == 0.0


def test_expansion_terms_exact_remainders():
    spec = chain(2)
    for two_s in (1, 2, 3):
        basis = fock.FockBasis(spec, two_s)
        terms = dense_oracles.expansion_terms(basis, two_s)
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
    gamma = dense_oracles.trial_state(basis, 2, beta_tilde=2.0)
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
    (got_q,), got_lz = fock.gibbs_expectation_truncated(spec, n_max, bt, (quartic_of, 1))
    assert got_q == pytest.approx(want_q, rel=1e-12, abs=1e-15)
    assert got_lz == pytest.approx(want_lz, rel=1e-12, abs=0.0)


def test_gibbs_expectation_truncated_sector_cap():
    spec = lattice.LatticeSpec(2, 2)
    bt = 3.0
    full = fock.gibbs_expectation_truncated(spec, 6, bt, (quartic_of, 1))
    capped = fock.gibbs_expectation_truncated(spec, 6, bt, (quartic_of, 1), max_total=10)
    # dropping sectors with > 10 total bosons changes nothing at this beta
    assert capped[0][0] == pytest.approx(full[0][0], rel=1e-8, abs=0.0)
    assert capped[1] == pytest.approx(full[1], rel=1e-10, abs=0.0)


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


def shifted_kinetic(sb):
    return fock.kinetic_dirichlet(sb) - (500.0 + sb.n_total) * np.eye(sb.dim)


def test_gibbs_expectation_truncated_shifts_spectra():
    # a constant drop of 500 would overflow unshifted Boltzmann weights at
    # beta 3; with the drop of 1 per boson the lowest eigenvalue sits in
    # sector 6, so the one shift is not taken from sector 0
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
        (lambda sb: [fock.quartic(sb, 1), sb.occupations[:, 0]],),
        hamiltonian=(shifted_kinetic,),
    )
    assert abs(got_lz - dense_log_z(h, bt)) <= 1e-13 * abs(got_lz)
    assert abs(got_q - dense_expectation(h, bt, quart)) < 1e-12
    n0 = np.diag(basis.occupations[:, 0].astype(np.float64))
    assert abs(got_n0 - dense_expectation(h, bt, n0)) < 1e-12


def test_gibbs_expectation_truncated_rejects_bad_observable():
    with pytest.raises(ValidationError):
        fock.gibbs_expectation_truncated(
            chain(2), 2, 1.0, (lambda sb: [np.zeros(sb.dim + 1)],)
        )
    # the functions come as (function, *params) tuples, the memo's keys
    with pytest.raises(ValidationError, match="tuples"):
        fock.gibbs_expectation_truncated(chain(2), 2, 1.0, lambda sb: [])
    with pytest.raises(ValidationError, match="tuples"):
        fock.gibbs_expectation_truncated(chain(2), 2, 1.0, None, hamiltonian=fock.kinetic)


# (d, ell): chains of 3 and 4 sites, the 2x2 and the 3x3 square
HOP_BOXES = [chain(3), chain(4), lattice.LatticeSpec(2, 2), lattice.LatticeSpec(2, 3)]


def _hop_bases(spec, n_max, dim_max=1024):
    """The whole capped basis and every sector, those of dimension at most ``dim_max``.

    The bound keeps each dense matrix at 8 MB; on the 3x3 box it drops the
    whole space at ``n_max`` 2 and 3 and the middle sectors (up to 30276 rows).
    """
    bases = [fock.FockBasis(spec, n_max)] if (n_max + 1) ** spec.n_sites <= dim_max else []
    for n_total in range(spec.n_sites * n_max + 1):
        sb = fock.SectorBasis(spec, n_max, n_total)
        if sb.dim <= dim_max:
            bases.append(sb)
    return bases


@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize("spec", HOP_BOXES, ids=lambda s: f"d{s.d}-ell{s.ell}")
def test_hop_table_moves(spec, n_max):
    for basis in _hop_bases(spec, n_max):
        src, tgt, n_x, n_y = basis.hops
        rows = [tuple(int(v) for v in r) for r in basis.occupations]
        index = {r: k for k, r in enumerate(rows)}
        # brute force: every row, every ordered bond along which it can move a boson
        want = set()
        bonds = lattice.nn_pairs(spec).tolist()
        for k, r in enumerate(rows):
            for i, j in bonds:
                for x, y in ((i, j), (j, i)):
                    if r[x] < n_max and r[y] > 0:
                        moved = list(r)
                        moved[x] += 1
                        moved[y] -= 1
                        want.add((index[tuple(moved)], k, r[x], r[y]))
        got = set(zip(tgt.tolist(), src.tolist(), n_x.tolist(), n_y.tolist()))
        assert got == want
        assert len(got) == src.size  # (tgt, src) pairs distinct
        assert np.all(tgt != src)


@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize("spec", HOP_BOXES, ids=lambda s: f"d{s.d}-ell{s.ell}")
def test_hop_table_operators_match_monomial_oracle(spec, n_max):
    # 2S below, at and above the cap; hp needs n_max <= 2S
    for two_s in sorted({1, n_max, 3}):
        for basis in _hop_bases(spec, n_max):
            pairs = [
                (fock.kinetic(basis), dense_oracles.kinetic(basis)),
                (fock.kinetic_dirichlet(basis), dense_oracles.kinetic_dirichlet(basis)),
                (fock.quartic(basis, two_s), dense_oracles.quartic(basis, two_s)),
            ]
            if n_max <= two_s:
                pairs.append(
                    (fock.hp_hamiltonian(basis, two_s), dense_oracles.hp_hamiltonian(basis, two_s))
                )
            for got, want in pairs:
                assert np.max(np.abs(got - want), initial=0.0) <= 1e-13


@pytest.mark.parametrize("spec, n_max", [(chain(4), 3), (lattice.LatticeSpec(2, 2), 4)])
def test_log_z_only_matches_eigh_path(spec, n_max):
    hp = (fock.hp_hamiltonian, n_max)
    for ham in (None, (shifted_kinetic,), hp):
        sectors = [fock.SectorBasis(spec, n_max, n) for n in range(spec.n_sites * n_max + 1)]
        h_of, *params = ham or (fock.kinetic_dirichlet,)
        w_max = max(np.abs(np.linalg.eigvalsh(h_of(sb, *params))).max() for sb in sectors)
        # at beta 200 unshifted weights would overflow
        for bt in (0.3, 2.0, 9.0, 200.0):
            # LAPACK's eigenvalues are backward stable, off by a small multiple of
            # eps * max|w|, which moves log Z by beta times that: each path stays
            # within `path_tol` of the exact value, so the two within twice it
            path_tol = 2.0 * bt * w_max * np.finfo(np.float64).eps
            values, lz = fock.gibbs_expectation_truncated(spec, n_max, bt, None, hamiltonian=ham)
            _, want = fock.gibbs_expectation_truncated(
                spec, n_max, bt, (lambda sb: [],), hamiltonian=ham
            )
            assert values == []
            assert abs(lz - want) <= 2.0 * path_tol
            if ham is hp and bt == 200.0:
                # only the ground multiplet of total spin n_sites * S is left,
                # all of energy 0 (hp equals the spin Hamiltonian at n_max = 2S)
                exact = np.log(spec.n_sites * n_max + 1)
                assert abs(lz - exact) <= path_tol
                assert abs(want - exact) <= path_tol


def _loop_bond_diagonal(basis, weights_fn):
    """The diagonal summed bond by bond, one bond at a time."""
    occ = basis.occupations
    diag = np.zeros(basis.dim)
    for i, j in lattice.nn_pairs(basis.spec):
        diag += weights_fn(occ[:, i], occ[:, j])
    return diag


DIAGONAL_BOXES = [
    lattice.LatticeSpec(1, 2),
    lattice.LatticeSpec(1, 5),
    lattice.LatticeSpec(2, 2),
    lattice.LatticeSpec(2, 3),
    lattice.LatticeSpec(3, 2),
    lattice.LatticeSpec(2, 3, lattice.Boundary.PERIODIC),
]


def small_sectors(spec, n_max, dim_max=400):
    """The lowest and highest sectors of the capped box, up to ``dim_max`` rows each."""
    top = spec.n_sites * n_max
    for n_total in sorted({*range(min(4, top) + 1), *range(max(0, top - 3), top + 1)}):
        sb = fock.SectorBasis(spec, n_max, n_total)
        if 0 < sb.dim <= dim_max:
            yield sb


@pytest.mark.parametrize("spec", DIAGONAL_BOXES)
@pytest.mark.parametrize("two_s", [1, 2, 3, 4])
def test_bond_diagonals_equal_the_per_bond_loop_bit_for_bit(spec, two_s):
    s = two_s / 2.0
    for sb in small_sectors(spec, two_s):
        want = {
            "kinetic": _loop_bond_diagonal(sb, lambda ni, nj: ni + nj),
            "quartic": -_loop_bond_diagonal(sb, lambda ni, nj: (ni * nj).astype(np.float64)) / s,
            "hp": _loop_bond_diagonal(
                sb, lambda ni, nj: s * (ni + nj) - (ni * nj).astype(np.float64)
            ),
        }
        got = {
            "kinetic": np.diag(fock.kinetic(sb)),
            "quartic": np.diag(fock.quartic(sb, two_s)),
            "hp": np.diag(fock.hp_hamiltonian(sb, two_s)),
        }
        for name in want:
            assert got[name].dtype == np.float64
            assert np.array_equal(got[name], want[name]), name


def test_bases_are_read_only():
    for basis in (fock.SectorBasis(chain(3), 2, 2), fock.FockBasis(chain(3), 2)):
        for a in (basis.occupations, *basis.hops):
            assert a.size
            with pytest.raises(ValueError):
                a[0] = 1


def test_a_sector_past_every_total_is_empty_at_once():
    start = time.perf_counter()
    sb = fock.SectorBasis(chain(3), 2, 10**12)
    assert time.perf_counter() - start < 0.5
    assert sb.dim == 0 and sb.occupations.shape == (0, 3)
    assert all(a.size == 0 for a in sb.hops)
    assert sb._locate(np.array([[2, 2, 2], [0, 0, 0]])).tolist() == [-1, -1]


@pytest.mark.parametrize(
    "spec, n_max",
    [(chain(3), 6), (chain(4), 4), (lattice.LatticeSpec(2, 2), 5)],
    ids=["chain3", "chain4", "square2"],
)
def test_remainder_equals_the_small_basis_embedding_bit_for_bit(spec, n_max):
    for two_s in range(1, 5):
        for cap in (n_max, two_s):  # the oracle's cap, and the box bound's n_max = 2S
            for n_total in range(spec.n_sites * cap + 1):
                sb = fock.SectorBasis(spec, cap, n_total)
                got = fock.remainder(sb, two_s)
                want = dense_oracles.embedded_remainder(sb, two_s)
                assert np.array_equal(got, want), (two_s, cap, n_total)
                assert np.array_equal(np.signbit(got), np.signbit(want))
    # on a whole space at n_max = 2S it is the dense subtraction itself
    basis = fock.FockBasis(spec, 2)
    want = dense_oracles.remainder_after_quartic(basis, 2, fock.quartic(basis, 2))
    assert np.array_equal(fock.remainder(basis, 2), want)


# --- the packed thermal pass -------------------------------------------------


# a log-Z trace, one observable and three
PACKED_OBSERVABLES = [None, (quartic_of, 2), (wick._cross_term_observables, 1)]


@pytest.mark.parametrize("observables", PACKED_OBSERVABLES, ids=["log-z", "one", "three"])
@pytest.mark.parametrize(
    "spec, n_max",
    [(chain(3), 6), (chain(4), 4), (lattice.LatticeSpec(2, 2), 5)],
    ids=["chain3", "chain4", "square2"],
)
def test_packed_thermal_pass_is_within_the_summation_bound(spec, n_max, observables):
    """The packed pass against the sector-by-sector loop, to a bound stated beforehand.

    With ``n`` the trace length and ``eps`` the machine epsilon, each value
    ``j`` may differ by ``n eps sum_i b_i |d_ij| / z`` and ``log Z`` by
    ``n eps`` (``dense_oracles.thermal_pass_error_ratio``), and a quantity
    whose bound is 0 not at all.
    """
    top = spec.n_sites * n_max
    ham = (fock.kinetic_dirichlet,)
    spectra = dense_oracles.sector_spectra(spec, n_max, top, ham, observables)
    # at beta 1e3 and 1e5 the weights of whole sectors underflow to 0
    for bt in (0.1, 1.0, 8.0, 1e3, 1e5):
        got = fock.gibbs_expectation_truncated(spec, n_max, bt, observables)
        want = dense_oracles.thermal_pass(spectra, bt)
        assert dense_oracles.thermal_pass_error_ratio(spectra, bt, got, want) <= 1.0, bt
    shift, gaps, diagonals = fock._spectra_memo[spec, n_max, top, ham, observables]
    assert shift == min(float(w[0]) for w, _ in spectra)
    assert gaps.size == sum(w.size for w, _ in spectra)
    assert diagonals.shape == (len(spectra[0][1]), gaps.size)
    assert not np.exp(-1e5 * gaps[-spectra[-1][0].size :]).any()  # the top sector weighs 0
    if observables is None:
        return
    # the bound sees the diagonal entry of the heaviest term off by 1e-9 relative
    got = fock.gibbs_expectation_truncated(spec, n_max, 1.0, observables)
    j, i = np.unravel_index(np.argmax(np.abs(diagonals) * np.exp(-gaps)), diagonals.shape)
    mutated = [(w, [np.array(d, dtype=np.float64) for d in diags]) for w, diags in spectra]
    for w, diags in mutated:
        if i < w.size:
            diags[j][i] *= 1.0 + 1e-9
            break
        i -= w.size
    want = dense_oracles.thermal_pass(mutated, 1.0)
    assert dense_oracles.thermal_pass_error_ratio(mutated, 1.0, got, want) > 1.0


# --- the memo of sector spectra ---------------------------------------------


def _two_observables(sb, two_s):
    return [fock.quartic(sb, two_s), sb.occupations[:, 0]]


def cold_memos(monkeypatch):
    """Empty sector, spectra and eigensystem memos, as in a fresh process."""
    for memo in ("_sector_memo", "_spectra_memo", "_eigensystem_memo"):
        monkeypatch.setattr(fock, memo, lattice._Memo(getattr(fock, memo).cap))


@pytest.fixture
def eigensolves(monkeypatch):
    """Fresh, empty memos, and the list of sector eigensolves made."""
    cold_memos(monkeypatch)
    solves = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(linalg, name)

        def counting(m, _solve=solve):
            solves.append(m.shape[0])
            return _solve(m)

        monkeypatch.setattr(linalg, name, counting)
    return solves


def _cross(spec, two_s, bt):
    return wick.cross_term_check(spec, two_s, bt, 4)


def _remainder(spec, two_s, bt):
    return wick.remainder_check(spec, two_s, bt, 4)


def _quartic_trace(spec, two_s, bt):
    return cli._fock_quartic(spec, 5, bt, two_s)


def _exact_bound(spec, two_s, bt):
    return spinwave.dirichlet_box_bound(spec, two_s, bt, "exact").as_dict()


# one entry per caller family in src/: spin ED, the exact box bound, the
# quartic trace of wick-verify and verify, the cross-term and remainder checks
CALLERS = [spin_ed.free_energy_per_spin, _exact_bound, _quartic_trace, _cross, _remainder]


@pytest.mark.parametrize("caller", CALLERS, ids=lambda f: f.__name__.strip("_"))
def test_warm_trace_equals_cold_bit_for_bit(caller, eigensolves, monkeypatch):
    spec = chain(3)
    caller(spec, 2, 0.7)
    cold_solves = len(eigensolves)
    assert cold_solves > 0
    warm = caller(spec, 2, 2.5)
    assert len(eigensolves) == cold_solves  # every spectrum came from the memo
    # eigensystems warm, spectra cold: only spin ED, which wants eigenvalues
    # alone, solves its sectors again
    monkeypatch.setattr(fock, "_spectra_memo", lattice._Memo(fock._spectra_memo.cap))
    eigensystems_warm = caller(spec, 2, 2.5)
    again = cold_solves if caller is spin_ed.free_energy_per_spin else 0
    assert len(eigensolves) == cold_solves + again
    cold_memos(monkeypatch)
    cold = caller(spec, 2, 2.5)
    assert len(eigensolves) == 2 * cold_solves + again
    assert repr(warm) == repr(eigensystems_warm) == repr(cold)  # repr: every float to the last bit


def test_new_observables_on_a_held_hamiltonian_run_no_eigensolve(eigensolves, monkeypatch):
    spec = lattice.LatticeSpec(2, 2)
    wick.cross_term_check(spec, 1, 2.0, 3)
    solves = len(eigensolves)
    assert solves == spec.n_sites * 3 + 1
    # other observables at another spin, on the same kinetic Hamiltonian
    warm = wick.remainder_check(spec, 2, 2.0, 3)
    assert len(eigensolves) == solves
    cold_memos(monkeypatch)
    cold = wick.remainder_check(spec, 2, 2.0, 3)
    assert len(eigensolves) == 2 * solves
    assert repr(warm) == repr(cold)


def test_a_held_eigensystem_builds_no_hamiltonian(eigensolves, monkeypatch):
    spec = chain(3)
    built = []

    def counted(sb):
        built.append(sb.n_total)
        return fock.kinetic_dirichlet(sb)

    fock.gibbs_expectation_truncated(spec, 3, 1.0, (quartic_of, 1), hamiltonian=(counted,))
    assert built == list(range(10))
    # a second observable set on the same box and cutoff reads every sector's
    # eigensystem from the memo, and builds no Hamiltonian
    warm = fock.gibbs_expectation_truncated(
        spec, 3, 1.0, (_two_observables, 2), hamiltonian=(counted,)
    )
    assert built == list(range(10)) and len(eigensolves) == 10
    cold_memos(monkeypatch)
    cold = fock.gibbs_expectation_truncated(
        spec, 3, 1.0, (_two_observables, 2), hamiltonian=(counted,)
    )
    assert built == 2 * list(range(10))
    assert repr(warm) == repr(cold)  # repr: every float to the last bit
    cold_memos(monkeypatch)
    default = fock.gibbs_expectation_truncated(spec, 3, 1.0, (_two_observables, 2))
    assert repr(default) == repr(cold)


def test_each_memo_carries_its_own_budget(eigensolves, monkeypatch):
    monkeypatch.setattr(diagrams, "_tori", lattice._Memo(diagrams._tori.cap))
    memos = (fock._sector_memo, fock._spectra_memo, fock._eigensystem_memo, diagrams._tori)
    assert [m.cap for m in memos] == [2**17, 2**20, 2**18, 2**20]
    fock.gibbs_expectation_truncated(chain(3), 2, 1.0, (quartic_of, 1))
    diagrams.cancellation_scan(3, 2, [1.0])
    assert [m.cap for m in memos] == [2**17, 2**20, 2**18, 2**20]
    assert [len(m) for m in memos] == [1, 1, 1, 1]
    assert all(m.floats > 1 for m in memos)
    # the Fock basis takes the dense cap, no memo's budget
    with pytest.raises(CapacityError, match="exceeds dense cap"):
        fock.FockBasis(chain(13), 1)


def _eigensystem_floats(spec, n_max, top):
    """Floats of ``(w, v)`` over the sectors ``0..top``: the sum of ``dim (dim + 1)``."""
    dims = [fock.SectorBasis(spec, n_max, n).dim for n in range(top + 1)]
    return sum(n * (n + 1) for n in dims)


def test_held_eigensystems_are_read_only_and_counted(eigensolves):
    spec = chain(3)
    fock.gibbs_expectation_truncated(spec, 3, 1.0, (quartic_of, 1))
    memo = fock._eigensystem_memo
    assert list(memo) == [(spec, 3, 9, (fock.kinetic_dirichlet,))]
    (held,) = memo.values()
    assert [w.size for w, _ in held] == [fock.SectorBasis(spec, 3, n).dim for n in range(10)]
    assert memo.floats == _eigensystem_floats(spec, 3, 9)
    for w, v in held:
        assert v.shape == (w.size, w.size)
        assert not w.flags.writeable and not v.flags.writeable


def test_a_trace_over_the_budget_stores_no_eigensystem_and_drops_no_spectra(
    eigensolves, monkeypatch
):
    spec = chain(3)
    monkeypatch.setattr(fock._eigensystem_memo, "cap", _eigensystem_floats(spec, 2, 6))
    fock.gibbs_expectation_truncated(spec, 2, 1.0, (quartic_of, 1))
    held = dict(fock._eigensystem_memo)
    assert len(held) == 1 and fock._eigensystem_memo.floats == fock._eigensystem_memo.cap
    # the n_max = 3 trace needs more than the budget: it solves every sector
    # and stores none of them, and both spectra stay
    solves = len(eigensolves)
    fock.gibbs_expectation_truncated(spec, 3, 1.0, (quartic_of, 1))
    assert len(eigensolves) == solves + 10
    assert fock._eigensystem_memo == held
    assert all(fock._eigensystem_memo[k] is wv for k, wv in held.items())
    assert [key[1] for key in fock._spectra_memo] == [2, 3]
    fock.gibbs_expectation_truncated(spec, 3, 1.0, (quartic_of, 2))
    assert len(eigensolves) == solves + 20


def test_a_log_z_trace_leaves_the_eigensystem_memo_untouched(eigensolves):
    spec = chain(3)
    fock.gibbs_expectation_truncated(spec, 2, 1.0, None)
    assert fock._eigensystem_memo == {}
    fock.gibbs_expectation_truncated(spec, 2, 1.0, (quartic_of, 1))
    held = list(fock._eigensystem_memo.items())
    solves = len(eigensolves)
    # log Z of the held Hamiltonian over fewer sectors: a new spectral pass,
    # by eigenvalues alone, although every eigensystem it needs is held
    fock.gibbs_expectation_truncated(spec, 2, 1.0, None, max_total=3)
    assert len(eigensolves) == solves + 4
    after = list(fock._eigensystem_memo.items())
    assert [k for k, _ in after] == [k for k, _ in held]
    assert all(a is b for (_, a), (_, b) in zip(after, held))


def test_wick_verify_traces_the_quartic_once_for_every_spin(eigensolves, capsys):
    spec = lattice.LatticeSpec(2, 2)
    values = {}
    for two_s in (1, 2, 3, 4):
        before = len(eigensolves)
        cli.main(["wick-verify", "--d", "2", "--ell", "2", "--two-s", str(two_s),
                  "--beta-tilde", "3.0", "--cutoffs", "3,5"])
        values[two_s] = json.loads(capsys.readouterr().out)["values"]["fock"]
        # the first spin diagonalizes the sectors, every later one reads the memo
        assert (len(eigensolves) > before) == (two_s == 1)
    for two_s, by_cutoff in values.items():
        for cut in (3, 5):
            (direct,), _ = fock.gibbs_expectation_truncated(spec, cut, 3.0, (quartic_of, two_s))
            if two_s == 3:  # divided by 3/2, which rounds
                assert by_cutoff[str(cut)] == pytest.approx(direct, rel=1e-10, abs=0.0)
            else:  # divided by a power of two, which is exact
                assert repr(by_cutoff[str(cut)]) == repr(direct)


def test_each_input_of_a_trace_gets_its_own_spectra(eigensolves, monkeypatch):
    spec = chain(3)

    def fresh(*args, **kwargs):
        """Whether a trace is new to the memo: it adds a key there."""
        before = set(fock._spectra_memo)
        out = fock.gibbs_expectation_truncated(*args, **kwargs)
        return out, bool(set(fock._spectra_memo) - before)

    base, new = fresh(spec, 3, 1.0, (quartic_of, 1))
    assert new
    assert fresh(spec, 3, 2.0, (quartic_of, 1))[1] is False
    variants = [
        ((spec, 3, 1.0, (quartic_of, 2)), {}),  # two_s
        ((spec, 2, 1.0, (quartic_of, 1)), {}),  # n_max
        ((spec, 3, 1.0, (quartic_of, 1)), {"max_total": 4}),  # max_total
    ]
    for args, kwargs in variants:
        out, new = fresh(*args, **kwargs)
        assert new and out != base
    # the boundary, on the spin Hamiltonian, which takes both
    ed = (spin_ed._sector_hamiltonian, 1)
    dirichlet, new = fresh(spec, 1, 1.0, None, hamiltonian=ed)
    assert new
    periodic = lattice.LatticeSpec(1, 3, lattice.Boundary.PERIODIC)
    out, new = fresh(periodic, 1, 1.0, None, hamiltonian=ed)
    assert new and out != dirichlet
    # a Hamiltonian function patched into its module is a new trace too
    monkeypatch.setattr(fock, "kinetic_dirichlet", lambda sb: 2.0 * fock.kinetic(sb))
    out, new = fresh(spec, 3, 1.0, (quartic_of, 1))
    assert new and out != base
    monkeypatch.setattr(spin_ed, "_sector_hamiltonian", lambda sb, two_s: np.zeros((sb.dim,) * 2))
    before = set(fock._spectra_memo)
    # zero energy: each of the 2^3 states weighs 1
    assert spin_ed.free_energy_per_spin(spec, 1, 1.0) == pytest.approx(
        -np.log(2.0), rel=1e-15, abs=0.0
    )
    assert set(fock._spectra_memo) - before


def test_spectra_memo_holds_at_most_its_cap(eigensolves, monkeypatch):
    spec = chain(3)
    # 1 + 2 floats per row of the 4^3 rows of the capped space
    per_trace = 3 * 4**3
    monkeypatch.setattr(fock._spectra_memo, "cap", 2 * per_trace)
    for two_s in (1, 2, 3):
        fock.gibbs_expectation_truncated(spec, 3, 1.0, (_two_observables, two_s))
        held = sum(fock._spectra_floats(s) for s in fock._spectra_memo.values())
        assert held == fock._spectra_memo.floats <= fock._spectra_memo.cap
    # the oldest trace was dropped, the two latest are kept
    assert [key[3:] for key in fock._spectra_memo] == [
        ((fock.kinetic_dirichlet,), (_two_observables, two_s)) for two_s in (2, 3)
    ]
    # a hit makes its trace the most recent one
    hit = next(iter(fock._spectra_memo))
    fock.gibbs_expectation_truncated(spec, 3, 2.0, (_two_observables, 2))
    assert hit[4] == (_two_observables, 2)
    assert len(fock._spectra_memo) == 2 and list(fock._spectra_memo)[-1] == hit
    # the first trace's eigensystems served every later one
    assert len(eigensolves) == spec.n_sites * 3 + 1
    # a trace larger than the whole store (3 floats on each of 6^3 rows) is
    # not kept, and drops none of the traces held
    held = dict(fock._spectra_memo)
    fock.gibbs_expectation_truncated(spec, 5, 1.0, (_two_observables, 4))
    assert fock._spectra_memo == held and fock._spectra_memo.floats == 2 * per_trace


def counted_builds(monkeypatch):
    """``{"bases": n, "hops": n}``: sector bases and hop tables built from now on."""
    counts = {"bases": 0, "hops": 0}
    init, hop_table = fock.SectorBasis.__init__, fock._hop_table

    def counting_init(self, *args):
        counts["bases"] += 1
        init(self, *args)

    def counting_hops(basis):
        counts["hops"] += 1
        return hop_table(basis)

    monkeypatch.setattr(fock.SectorBasis, "__init__", counting_init)
    monkeypatch.setattr(fock, "_hop_table", counting_hops)
    return counts


def test_interleaved_boxes_keep_their_sector_bases(eigensolves, monkeypatch):
    a, b = chain(3), lattice.LatticeSpec(2, 2)
    counts = counted_builds(monkeypatch)
    wick.remainder_check(a, 2, 1.0, 6)
    wick.cross_term_check(b, 1, 1.0, 5)
    cold = dict(counts)
    assert cold["bases"] == a.n_sites * 6 + 1 + b.n_sites * 5 + 1 and cold["hops"] > 0
    memo = fock._sector_memo
    assert list(memo) == [(a, 6), (b, 5)]
    assert memo.floats == sum(fock._sector_floats(t) for t in memo.values()) <= memo.cap
    # A again, B again, then A once more, each a new spectral pass that also
    # builds its Hamiltonians: every basis and hop table is the one kept
    for spec, n_max in ((a, 6), (b, 5), (a, 6)):
        for other in ("_spectra_memo", "_eigensystem_memo"):
            monkeypatch.setattr(fock, other, lattice._Memo(getattr(fock, other).cap))
        wick.cross_term_check(spec, 3, 2.0, n_max)
    assert counts == cold
    assert list(memo) == [(b, 5), (a, 6)]


def test_a_sector_table_over_the_cap_is_not_kept(eigensolves, monkeypatch):
    a, b = chain(3), chain(4)
    wick.cross_term_check(a, 1, 1.0, 4)
    (held,) = fock._sector_memo.values()
    monkeypatch.setattr(fock._sector_memo, "cap", fock._sector_memo.floats + 1)
    counts = counted_builds(monkeypatch)
    wick.cross_term_check(b, 1, 1.0, 4)  # 5^4 rows of 4 entries: over the cap
    assert counts["bases"] == b.n_sites * 4 + 1
    assert list(fock._sector_memo) == [(a, 4)] and fock._sector_memo[a, 4] is held
    cold_memos(monkeypatch)
    wick.cross_term_check(b, 1, 1.0, 4)
    assert counts["bases"] == 2 * (b.n_sites * 4 + 1)
    assert fock._sector_memo == {}


def test_a_trace_that_raises_leaves_no_spectra(eigensolves):
    with pytest.raises(ValidationError, match="wrong sector dimension"):
        fock.gibbs_expectation_truncated(
            chain(2), 2, 1.0, (lambda sb: [np.zeros(sb.dim + 1)],)
        )
    assert fock._spectra_memo == {}
    assert fock._eigensystem_memo == {}
    del eigensolves[:]
    # 20 sites, one boson each at most: the sector of 4 bosons has 4845 rows,
    # past the dense cap, after four sectors were diagonalized
    with pytest.raises(CapacityError):
        fock.gibbs_expectation_truncated(chain(20), 1, 1.0, None)
    assert len(eigensolves) == 4
    assert fock._spectra_memo == {}
    # on a held Hamiltonian, the pass reads its eigensystems, raises at the
    # first sector, and leaves both memos as they were
    spec = chain(2)
    fock.gibbs_expectation_truncated(spec, 2, 1.0, (quartic_of, 1))
    assert list(fock._eigensystem_memo) == [(spec, 2, 4, (fock.kinetic_dirichlet,))]
    memos = (fock._eigensystem_memo, fock._spectra_memo)
    before = [(list(m.items()), m.floats) for m in memos]
    solves = len(eigensolves)
    with pytest.raises(ValidationError, match="wrong sector dimension"):
        fock.gibbs_expectation_truncated(spec, 2, 1.0, (lambda sb: [np.zeros(sb.dim + 1)],))
    assert len(eigensolves) == solves
    for m, (items, floats) in zip(memos, before):
        assert m.floats == floats
        assert list(m) == [k for k, _ in items]
        assert all(m[k] is value for k, value in items)


def test_a_trace_that_raises_keeps_its_box_sector_table(eigensolves):
    spec = lattice.LatticeSpec(1, 3)
    fock.gibbs_expectation_truncated(spec, 2, 1.0, None, max_total=2)
    (table,) = fock._sector_memo.values()
    floats = fock._sector_memo.floats
    assert sorted(table) == [0, 1, 2]
    # sectors 3 and 4 are built before the observable of sector 4 raises
    with pytest.raises(ValidationError, match="wrong sector dimension"):
        fock.gibbs_expectation_truncated(
            spec, 2, 1.0, (lambda sb: [np.zeros(sb.dim + (sb.n_total == 4))],)
        )
    assert list(fock._sector_memo) == [(spec, 2)]
    assert fock._sector_memo[spec, 2] is table and sorted(table) == [0, 1, 2]
    assert fock._sector_memo.floats == floats == fock._sector_floats(table)


def _occupation_energy(sb):
    return np.diag(sb.occupations.sum(axis=1).astype(np.float64))


def test_a_trace_that_raises_keeps_the_memo_count_of_its_table(eigensolves):
    spec = lattice.LatticeSpec(1, 3)
    # a diagonal Hamiltonian, which scatters over no hop table
    fock.gibbs_expectation_truncated(spec, 2, 1.0, None, hamiltonian=(_occupation_energy,))
    (table,) = fock._sector_memo.values()
    # the kinetic trace reads every held sector, then its observable raises at the last
    with pytest.raises(ValidationError, match="wrong sector dimension"):
        fock.gibbs_expectation_truncated(
            spec, 2, 1.0, (lambda sb: [np.zeros(sb.dim + (sb.n_total == 6))],)
        )
    assert fock._sector_memo[spec, 2] is table
    assert fock._sector_memo.floats == fock._sector_floats(table) == 273


def test_a_hit_stores_nothing(eigensolves, monkeypatch):
    monkeypatch.setattr(diagrams, "_tori", lattice._Memo(diagrams._tori.cap))
    memos = {"sectors": fock._sector_memo, "spectra": fock._spectra_memo,
             "eigensystems": fock._eigensystem_memo, "tori": diagrams._tori}
    names = {id(memo): name for name, memo in memos.items()}
    put, stores = lattice._Memo.put, []

    def counting_put(memo, *args):
        stores.append(names[id(memo)])
        put(memo, *args)

    monkeypatch.setattr(lattice._Memo, "put", counting_put)
    spec = chain(3)
    fock.gibbs_expectation_truncated(spec, 2, 1.0, (quartic_of, 1))
    assert stores == ["sectors", "eigensystems", "spectra"]
    # the same trace again, at another temperature: a spectra hit
    del stores[:]
    fock.gibbs_expectation_truncated(spec, 2, 2.0, (quartic_of, 1))
    assert stores == []
    # other observables on the held Hamiltonian: a spectra miss that reads
    # the eigensystems and the sector bases, and stores neither
    fock.gibbs_expectation_truncated(spec, 2, 1.0, (quartic_of, 2))
    assert stores == ["spectra"]
    del stores[:]
    diagrams.cancellation_scan(3, 2, [1.0])
    assert stores == ["tori"]
    diagrams.cancellation_scan(3, 2, [1.0, 2.0])
    assert stores == ["tori"]
    assert [len(m) for m in memos.values()] == [1, 2, 1, 1]


@pytest.mark.parametrize("top_kept", [None, 2], ids=["cap-0", "cap-of-3-sectors"])
def test_the_spectral_pass_frees_each_eigenvector_it_cannot_store(top_kept, monkeypatch):
    """No ``v`` outlives its sector, except in a list that fits the cap with the next solve.

    At a cap of 0 every ``v`` is freed before the next ``eigh``; at a cap
    that fits the first three sectors, those are kept until the fourth
    sector's solve would overflow it, and freed before that solve.
    """
    spec = chain(3)
    cold_memos(monkeypatch)
    cap = 0 if top_kept is None else _eigensystem_floats(spec, 3, top_kept)
    monkeypatch.setattr(fock, "_eigensystem_memo", lattice._Memo(cap))
    eigh, live, solves = linalg.eigh, {}, []

    def watched(m):
        n = m.shape[0]
        assert not live or sum(live.values()) + n * (n + 1) <= cap, sorted(live)
        w, v = eigh(m)
        solves.append(n)
        live[len(solves)] = n * (n + 1)
        weakref.finalize(v, live.pop, len(solves))
        return w, v

    monkeypatch.setattr(linalg, "eigh", watched)
    fock.gibbs_expectation_truncated(spec, 3, 1.0, (_two_observables, 2))
    assert len(solves) == 10 and not live
    assert fock._eigensystem_memo == {}


def test_a_hit_runs_every_check(eigensolves):
    spec = chain(2)
    fock.gibbs_expectation_truncated(spec, 2, 1.0, None)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="beta_tilde"):
            fock.gibbs_expectation_truncated(spec, 2, bad, None)
    # 2.0 == 2 as a key, but a float cap is refused before the lookup
    with pytest.raises(ValidationError, match="n_max"):
        fock.gibbs_expectation_truncated(spec, 2.0, 1.0, None)
    with pytest.raises(ValidationError, match="max_total"):
        fock.gibbs_expectation_truncated(spec, 2, 1.0, None, max_total=4.0)
    assert len(eigensolves) == spec.n_sites * 2 + 1
