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
    table = dispersion.two_point(spec, beta_tilde)
    return spec, basis, gibbs, table


def monomial_operator(basis, monomial):
    dim = basis.dim
    op = np.eye(dim)
    for site, is_creator in monomial:
        a_dag, a, _ = fock.ladder_matrices(basis, site)
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
    got = wick.occupation_moment(rho, {0: 1, 1: 1})
    assert got == pytest.approx(nx * ny + rxy * rxy, rel=1e-14)
    assert wick.occupation_moment(rho, {0: 2}) == pytest.approx(
        2 * nx**2 + nx, rel=1e-14
    )
    assert wick.occupation_moment(rho, {0: 3}) == pytest.approx(
        6 * nx**3 + 6 * nx**2 + nx, rel=1e-14
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
    assert pos == pytest.approx(want, rel=1e-10)
    assert mono == pytest.approx(pos, rel=1e-12)


def test_exponential_moment():
    rho_val = 0.35
    table = np.array([[rho_val]])
    lam = 0.6
    got = wick.expectation_exp_lambda_n(0, lam, table)
    # brute-force geometric sum
    q = rho_val / (1.0 + rho_val)
    ns = np.arange(4000)
    want = float(np.sum((1.0 - q) * np.exp(ns * (lam + np.log(q)))))
    assert got == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValidationError):
        wick.expectation_exp_lambda_n(0, 5.0, table)


def test_projector_deficit_dominates_exact():
    spec = lattice.LatticeSpec(1, 2)
    two_s = 1
    for bt in (2.0, 4.0):
        exact = wick._one_minus_p_oracle(spec, two_s, bt, n_max=12)
        for form in ("exact", "simple"):
            bound = wick.projector_deficit(spec, bt, two_s, form=form)
            assert bound >= exact > 0.0
        # the exact-tail form is the sharper of the two
        assert wick.projector_deficit(spec, bt, two_s, form="exact") <= (
            wick.projector_deficit(spec, bt, two_s, form="simple")
        )


def test_hop_squared_exact_matches_dense():
    bt = 3.0
    spec, basis, gibbs, _ = two_site_state(bt)
    dim = basis.dim
    a_mat = np.zeros((dim, dim))
    for i, j in lattice.nn_pairs(spec):
        for x, y in ((i, j), (j, i)):
            a_mat += fock.monomial_matrix(basis, [x], [y])
    want = float(np.trace(a_mat @ a_mat @ gibbs))
    exact, projected = wick.hop_squared_moments(spec, bt)
    assert exact == pytest.approx(want, rel=1e-10)
    # the projected bound dominates <P A^2 P> with P at any spin cap
    p = fock.projector_P(basis, 1)
    pap = float(np.trace(p @ a_mat @ a_mat @ p @ gibbs))
    assert projected >= pap - 1e-13


def test_interaction_squared_bound_dominates_dense():
    bt = 2.0
    two_s = 1
    spec, basis, gibbs, _ = two_site_state(bt, n_max=14)
    quart = fock.quartic(basis, two_s)
    i2 = float(np.trace(quart @ quart @ gibbs))
    p = fock.projector_P(basis, two_s)
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
        + np.sqrt(2.0 * ctb.pt2p_bound + 2.0 * ctb.pi2p_bound)
        + np.sqrt(ctb.t2_exact)
    )
    assert ctb.value == pytest.approx(want, rel=1e-13)


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
