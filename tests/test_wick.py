import itertools
import math

import mpmath
import numpy as np
import pytest
import dense_oracles
from conftest import dense_gibbs

from magnon import dispersion, fock, lattice, wick
from magnon._errors import ValidationError


def two_site_state(beta_tilde, n_max=20):
    """Dense Gibbs state of the Dirichlet kinetic form on a 2-site chain.

    At this cutoff the geometric tails are ~1e-26, so dense traces serve as
    an exact oracle for the quasi-free pairing rules.
    """
    spec = lattice.LatticeSpec(1, 2)
    basis = fock.FockBasis(spec, n_max)
    td = fock.kinetic_dirichlet(basis)
    gibbs = dense_gibbs(td, beta_tilde)
    table = dense_oracles.two_point(spec, beta_tilde)
    return spec, basis, gibbs, table


def monomial_operator(basis, monomial):
    dim = basis.dim
    op = np.eye(dim)
    for site, is_creator in monomial:
        a_dag, a, _ = dense_oracles.ladder_matrices(basis, site)
        op = op @ (a_dag if is_creator else a)
    return op


def test_pairing_degree_two():
    rho = np.array([[0.3, 0.1], [0.1, 0.2]])
    # creator left of annihilator: plain rho
    assert wick.wick_expectation([(0, True), (1, False)], rho) == pytest.approx(0.1)
    assert wick.wick_expectation([(0, True), (0, False)], rho) == pytest.approx(0.3)
    # annihilator first on the same site picks up the commutator
    assert wick.wick_expectation([(0, False), (0, True)], rho) == pytest.approx(1.3)
    assert wick.wick_expectation([(0, False), (1, True)], rho) == pytest.approx(0.1)


def test_pairing_degree_four_closed_forms():
    rho = np.array([[0.4, 0.15], [0.15, 0.25]])
    nx, ny, rxy = rho[0, 0], rho[1, 1], rho[0, 1]
    got = dense_oracles.occupation_moment(rho, {0: 1, 1: 1})
    assert got == pytest.approx(nx * ny + rxy * rxy, rel=1e-14, abs=0.0)
    assert dense_oracles.occupation_moment(rho, {0: 2}) == pytest.approx(
        2 * nx**2 + nx, rel=1e-14, abs=0.0
    )
    assert dense_oracles.occupation_moment(rho, {0: 3}) == pytest.approx(
        6 * nx**3 + 6 * nx**2 + nx, rel=1e-14, abs=0.0
    )


def test_unbalanced_monomial_warns_and_vanishes():
    rho = np.eye(2) * 0.2
    with pytest.warns(RuntimeWarning):
        assert wick.wick_expectation([(0, True)], rho) == 0.0


def test_degree_cap():
    rho = np.eye(1) * 0.1
    mono = [(0, True), (0, False)] * 7
    with pytest.raises(ValidationError):
        wick.wick_expectation(mono, rho)


def test_pairings_match_dense_gibbs():
    bt = 3.0
    spec, basis, gibbs, table = two_site_state(bt)
    monomials = [
        [(0, True), (0, False)],
        [(0, False), (0, True)],
        [(0, True), (1, False)],
        [(1, False), (0, True)],
        [(0, True), (0, False), (1, True), (1, False)],
        [(0, True), (0, True), (0, False), (0, False)],
        [(0, False), (0, True), (0, False), (0, True)],
        [(0, True), (1, False), (1, True), (0, False)],
        [(0, True), (0, False), (0, True), (0, False), (0, True), (0, False)],
        [(0, True), (0, True), (1, False), (1, False), (1, True), (0, False)],
    ]
    for mono in monomials:
        op = monomial_operator(basis, mono)
        want = float(np.trace(op @ gibbs))
        got = wick.wick_expectation(mono, table)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-14), mono


def test_interaction_routes_agree_with_dense():
    bt = 3.0
    two_s = 4
    spec, basis, gibbs, table = two_site_state(bt)
    quart = fock.quartic(basis, two_s)
    want = float(np.trace(quart @ gibbs))
    pos = wick.expectation_I_position(spec, two_s, bt)
    mono = wick.expectation_I_monomials(spec, two_s, bt)
    assert pos == pytest.approx(want, rel=1e-10, abs=0.0)
    # <I> (-7.6e-9 here) cancels between monomial terms of 1e-3; rounding is
    # relative to their unsigned sum, not to <I>
    terms = wick._interaction_monomials(0, 1)
    unsigned = sum(abs(c * wick.wick_expectation(m, table)) for c, m in terms) / (2.0 * two_s)
    assert mono == pytest.approx(pos, rel=1e-12, abs=1e-13 * unsigned)


def one_minus_p(spec, two_s, beta_tilde, n_max):
    """Exact ``<1 - P>`` in the capped Gibbs state of the Dirichlet kinetic form."""
    (w,), _ = fock.gibbs_expectation_truncated(
        spec,
        n_max,
        beta_tilde,
        (lambda sb: [1.0 - fock.projector_mask(sb, two_s).astype(np.float64)],),
    )
    return w


def test_projector_deficit_dominates_exact():
    spec = lattice.LatticeSpec(1, 2)
    two_s = 1
    for bt in (2.0, 4.0):
        exact = one_minus_p(spec, two_s, bt, n_max=12)
        bound = wick.projector_deficit(spec, bt, two_s)
        occ = dispersion.two_point_diagonal(spec, bt)
        # the per-site Chernoff-style tail of the closed-form bound
        simple = sum(dispersion.one_minus_p_bound(1, bt, 1, two_s, rho_bound=r) for r in occ)
        assert simple >= bound >= exact > 0.0


def test_hop_squared_bound_dominates_dense():
    bt = 3.0
    spec, basis, gibbs, _ = two_site_state(bt)
    dim = basis.dim
    a_mat = np.zeros((dim, dim))
    for i, j in lattice.nn_pairs(spec):
        for x, y in ((i, j), (j, i)):
            a_mat += dense_oracles.monomial_matrix(basis, [x], [y])
    projected = wick.hop_squared_moments(spec, bt)
    # the projected bound dominates <P A^2 P> with P at any spin cap
    for two_s in (1, 2, 4):
        p = dense_oracles.projector_P(basis, two_s)
        pap = float(np.trace(p @ a_mat @ a_mat @ p @ gibbs))
        assert projected >= pap - 1e-13


def test_interaction_squared_bound_dominates_dense():
    bt = 2.0
    two_s = 1
    spec, basis, gibbs, _ = two_site_state(bt, n_max=14)
    quart = fock.quartic(basis, two_s)
    i2 = float(np.trace(quart @ quart @ gibbs))
    p = dense_oracles.projector_P(basis, two_s)
    pi2p = float(np.trace(p @ quart @ quart @ p @ gibbs))
    bound = wick.interaction_squared_bound(spec, two_s, bt)
    assert bound >= i2 - 1e-13
    assert bound >= pi2p - 1e-13


def test_cross_term_bound_components():
    spec = lattice.LatticeSpec(1, 3)
    ctb = wick.cross_term_bound(spec, 2, 2.0)
    assert ctb.one_minus_p > 0.0
    assert ctb.t2_exact > 0.0
    assert ctb.i2_bound > 0.0
    want = np.sqrt(ctb.one_minus_p) * (
        np.sqrt(2.0 * ctb.t2_exact + 2.0 * ctb.i2_bound)
        + np.sqrt(2.0 * ctb.pt2p_bound + 2.0 * ctb.i2_bound)
        + np.sqrt(ctb.t2_exact)
    )
    assert ctb.value == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("beta_tilde", [2.0, 4.0])
def test_cross_term_inequality_chain(beta_tilde):
    spec = lattice.LatticeSpec(1, 2)
    lhs, rhs = wick.cross_term_check(spec, 1, beta_tilde, n_max=8)
    assert lhs <= rhs


def test_cross_term_inequality_square():
    spec = lattice.LatticeSpec(2, 2)
    lhs, rhs = wick.cross_term_check(spec, 1, 2.0, n_max=6)
    assert lhs <= rhs


@pytest.mark.parametrize("beta_tilde", [2.0, 4.0])
def test_remainder_inequality(beta_tilde):
    spec = lattice.LatticeSpec(1, 2)
    lhs, rhs = wick.remainder_check(spec, 1, beta_tilde, n_max=8)
    assert 0.0 <= lhs <= rhs
    with pytest.raises(ValidationError):
        wick.remainder_check(spec, 2, beta_tilde, n_max=1)


@pytest.mark.parametrize(
    "d, ell, two_s, beta_tilde, n_max",
    [(1, 2, 1, 2.0, 8), (1, 3, 2, 3.0, 6), (1, 4, 3, 1.0, 4), (2, 2, 1, 2.0, 5)],
)
def test_checks_match_dense_oracles(d, ell, two_s, beta_tilde, n_max):
    # sector-blocked checks against one eigendecomposition of the full space
    spec = lattice.LatticeSpec(d, ell)
    for got, want in (
        (
            wick.cross_term_check(spec, two_s, beta_tilde, n_max),
            dense_oracles.cross_term_check(spec, two_s, beta_tilde, n_max),
        ),
        (
            wick.remainder_check(spec, two_s, beta_tilde, n_max),
            dense_oracles.remainder_check(spec, two_s, beta_tilde, n_max),
        ),
    ):
        assert abs(got[0] - want[0]) <= 1e-13
        assert abs(got[1] - want[1]) <= 1e-13


def test_bond_stack_matches_single_blocks_and_is_left_unchanged():
    rng = np.random.default_rng(3)
    diag = rng.uniform(0.1, 0.6, size=(2, 5))
    off = rng.uniform(-0.1, 0.1, size=5)
    stack = np.array([[diag[0], off], [off, diag[1]]])
    before = stack.copy()
    # annihilators left of their creators on the same site add the commutator
    for mono in (
        [(0, False), (0, True)],
        [(1, False), (0, True), (1, True), (0, False)],
        [(0, True), (1, False), (1, True), (0, False), (0, False), (0, True)],
    ):
        got = wick.wick_expectation(mono, stack)
        assert np.array_equal(stack, before)
        assert got.shape == (5,)
        for b in range(5):
            want = wick.wick_expectation(mono, stack[:, :, b])
            assert got[b] == pytest.approx(want, rel=1e-15, abs=0.0)


BOXES = [(1, 2), (1, 6), (2, 3), (2, 4), (3, 2), (3, 3)]


@pytest.mark.parametrize("d, ell", BOXES)
@pytest.mark.parametrize("two_s, beta_tilde", [(1, 2.0), (3, 0.7), (4, 5.0)])
def test_bond_bounds_match_table_oracle(d, ell, two_s, beta_tilde):
    spec = lattice.LatticeSpec(d, ell)
    # <I> cancels between bond terms of size n_bonds * rho^2 / S; rounding
    # is relative to that scale, not to the sum
    rho_max = float(np.max(dispersion.two_point_diagonal(spec, beta_tilde)))
    i_scale = len(lattice.nn_pairs(spec)) * rho_max**2 / (two_s / 2.0)
    for got, want, atol in (
        (
            wick.expectation_I_position(spec, two_s, beta_tilde),
            dense_oracles.table_expectation_I_position(spec, two_s, beta_tilde),
            1e-13 * i_scale,
        ),
        (
            wick.expectation_I_monomials(spec, two_s, beta_tilde),
            dense_oracles.table_expectation_I_monomials(spec, two_s, beta_tilde),
            1e-13 * i_scale,
        ),
        (
            wick.hop_squared_moments(spec, beta_tilde),
            dense_oracles.table_hop_squared_moments(spec, beta_tilde),
            0.0,
        ),
        (
            # the oracle sums signed monomials; its rounding is relative to
            # their unsigned sum (the closed form matches mpmath, see below)
            wick.interaction_squared_bound(spec, two_s, beta_tilde),
            dense_oracles.table_interaction_squared_bound(spec, two_s, beta_tilde),
            1e-13
            * dense_oracles.table_interaction_squared_bound(
                spec, two_s, beta_tilde, unsigned=True
            ),
        ),
        (
            wick.remainder_bound(spec, two_s, beta_tilde),
            dense_oracles.table_remainder_bound(spec, two_s, beta_tilde),
            0.0,
        ),
        (
            wick.cross_term_bound(spec, two_s, beta_tilde).value,
            dense_oracles.table_cross_term_value(spec, two_s, beta_tilde),
            0.0,
        ),
    ):
        assert got == pytest.approx(want, rel=1e-13, abs=atol)


def test_single_site_box_has_no_bond_terms():
    spec = lattice.LatticeSpec(3, 1)
    assert wick.expectation_I_position(spec, 2, 1.0) == 0.0
    assert wick.hop_squared_moments(spec, 1.0) == 0.0
    assert wick.interaction_squared_bound(spec, 2, 1.0) == 0.0
    assert wick.remainder_bound(spec, 2, 1.0) == 0.0


def test_spectrum_and_bond_blocks_are_memoized_read_only():
    spec = lattice.LatticeSpec(2, 4)
    for fn in (dispersion._dirichlet_spectrum, wick._bond_blocks):

        def read_only_and_fresh(box):
            got, fresh = fn(box, 2.0), fn.__wrapped__(box, 2.0)
            for a, b in zip(got if isinstance(got, tuple) else (got,),
                            fresh if isinstance(fresh, tuple) else (fresh,)):
                assert not a.flags.writeable
                assert np.array_equal(a, b)
            return got

        got = read_only_and_fresh(spec)
        assert fn(lattice.LatticeSpec(2, 4), 2.0) is got
        assert fn(spec, 3.0) is not got
        # only the latest box is kept: going back to it after another box
        # recomputes the same read-only arrays
        for box in (spec, lattice.LatticeSpec(1, 3), spec):
            read_only_and_fresh(box)


def _mp_number_moment(block, a: int, b: int):
    """``<n_0^a n_1^b>`` of a two-site block by pairings, at mpmath's precision."""
    mono = dense_oracles.number_monomial(0, a) + dense_oracles.number_monomial(1, b)
    creators = [(pos, site) for pos, (site, c) in enumerate(mono) if c]
    annihil = [(pos, site) for pos, (site, c) in enumerate(mono) if not c]
    total = mpmath.mpf(0)
    for perm in itertools.permutations(annihil):
        prod = mpmath.mpf(1)
        for (cpos, csite), (apos, asite) in zip(creators, perm):
            prod *= block[asite][csite] + (1 if apos < cpos and asite == csite else 0)
        total += prod
    return total


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (a, b), u in p.items():
        for (c, e), v in q.items():
            out[(a + c, b + e)] = out.get((a + c, b + e), 0) + u * v
    return out


# per-pair polynomials {(a, b): coef} of n_x^a n_y^b, from their product forms
_HOP = _poly_mul({(1, 0): 1, (0, 0): 1}, {(0, 1): 1})  # (n_x + 1) n_y
_BASE = {(1, 0): 1, (0, 1): 1, (0, 0): -1}  # n_x + n_y - 1
_V = _poly_mul(_poly_mul(_BASE, _BASE), _HOP)
_D = {(2, 2): 1}  # n_x^2 n_y^2
_X_DROP = {(1, 0): 1, (0, 0): -1}  # n_x - 1
_R = _poly_mul({(1, 0): 1}, _poly_mul(_X_DROP, _X_DROP)) | {(1, 2): 1}  # + n_x n_y^2


def _mp_bounds(blocks, two_s: int):
    """Hop, interaction-squared and remainder bounds from the blocks, in 50 digits."""
    n_bonds = blocks.shape[2]
    with mpmath.workdps(50):
        sums = [mpmath.mpf(0)] * 4
        for b in range(n_bonds):
            r0, c, r1 = (mpmath.mpf(float(v)) for v in blocks[[0, 0, 1], [0, 1, 1], b])
            memo = {}

            def moment(a, e):
                if (a, e) not in memo:
                    memo[(a, e)] = _mp_number_moment([[r0, c], [c, r1]], a, e)
                return memo[(a, e)]

            # over both orders of the bond: <p(n_y, n_x)> reads the swapped powers
            sums = [
                total + sum(coef * (moment(a, e) + moment(e, a)) for (a, e), coef in poly.items())
                for total, poly in zip(sums, (_HOP, _V, _D, _R))
            ]
        hop, v, d, r = sums
        s = mpmath.mpf(two_s) / 2
        return (
            float(2 * n_bonds * hop),
            float((2 / s**2) * (2 * n_bonds * v / 16 + n_bonds * d / 8)),
            float(r / (8 * s**2)),
        )


def _closed_form_bounds(spec, two_s: int, beta_tilde: float):
    return (
        wick.hop_squared_moments(spec, beta_tilde),
        wick.interaction_squared_bound(spec, two_s, beta_tilde),
        wick.remainder_bound(spec, two_s, beta_tilde),
    )


@pytest.mark.parametrize("d, ell", BOXES)
@pytest.mark.parametrize("two_s, beta_tilde", [(1, 2.0), (3, 0.7), (4, 5.0)])
def test_closed_form_bounds_match_mpmath(d, ell, two_s, beta_tilde):
    spec = lattice.LatticeSpec(d, ell)
    want = _mp_bounds(wick._bond_blocks(spec, beta_tilde), two_s)
    for got, ref in zip(_closed_form_bounds(spec, two_s, beta_tilde), want):
        assert got == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("seed", [5, 6])
def test_closed_form_bounds_match_mpmath_on_random_blocks(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    n = 40
    diag = rng.uniform(0.0, 3.0, size=(2, n))
    off = rng.uniform(-1.0, 1.0, size=n) * np.sqrt(diag[0] * diag[1])
    blocks = np.array([[diag[0], off], [off, diag[1]]])
    monkeypatch.setattr(wick, "_bond_blocks", lambda spec, beta_tilde: blocks)
    want = _mp_bounds(blocks, 3)
    for got, ref in zip(_closed_form_bounds(lattice.LatticeSpec(1, 2), 3, 1.0), want):
        assert got == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("d, ell", BOXES + [(3, 8), (3, 12)])
def test_projector_deficit_is_the_per_site_sum(d, ell):
    spec = lattice.LatticeSpec(d, ell)
    for two_s, beta_tilde in ((1, 2.0), (3, 0.7), (4, 5.0)):
        occ = dispersion.two_point_diagonal(spec, beta_tilde)
        tails = [dispersion.occupation_tail_bound(float(r), two_s) for r in np.sort(occ)]
        got = wick.projector_deficit(spec, beta_tilde, two_s)
        assert got == pytest.approx(math.fsum(tails), rel=1e-15, abs=0.0)
        if (d, ell) in BOXES:
            # the ascending per-site loop drifts by about 1e-15 from ell = 8 on
            assert got == pytest.approx(sum(tails), rel=1e-15, abs=0.0)
