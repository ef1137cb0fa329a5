import numpy as np
import pytest

from magnon import dispersion, lattice
from magnon._errors import CapacityError, HypothesisError, ValidationError


def test_epsilon_trivial_values():
    assert dispersion.epsilon(np.zeros(3)) == 0.0
    assert abs(dispersion.epsilon(np.full(3, np.pi)) - 12.0) < 1e-14
    assert abs(dispersion.epsilon(np.array([np.pi / 2])) - 2.0) < 1e-14
    ks = np.random.default_rng(0).uniform(-np.pi, np.pi, size=(50, 2))
    eps = dispersion.epsilon(ks)
    assert eps.shape == (50,)
    assert np.all((eps >= 0) & (eps <= 8.0))
    # matches the plain cosine form where the latter is well conditioned
    assert np.allclose(eps, np.sum(2.0 - 2.0 * np.cos(ks), axis=-1), atol=1e-12)


def test_bose_factor():
    assert abs(dispersion.bose_from_energy(1.0, 1.0) - 1.0 / np.expm1(1.0)) < 1e-15
    with pytest.raises(ValidationError):
        dispersion.bose_from_energy(np.zeros(2), 1.0)
    # high energy, large beta: underflows gracefully to 0
    assert dispersion.bose_from_energy(12.0, 200.0) == pytest.approx(0.0, abs=1e-300)


@pytest.mark.parametrize("d,ell", [(1, 5), (2, 3), (3, 2)])
def test_two_point_against_direct_sum(d, ell):
    spec = lattice.LatticeSpec(d, ell)
    bt = 1.7
    table = dispersion.two_point(spec, bt)
    # naive dense route
    phi = lattice.eigenfunction_matrix(spec)
    f = dispersion.bose_from_energy(dispersion.epsilon(lattice.dirichlet_modes(spec)), bt)
    want = (phi * f) @ phi.T
    assert np.max(np.abs(table.values - want)) < 1e-14
    assert np.max(np.abs(table.values - table.values.T)) == 0.0
    assert abs(np.trace(table.values) - f.sum()) < 1e-12
    assert np.min(np.linalg.eigvalsh(table.values)) > -1e-13
    assert np.allclose(table.diagonal(), dispersion.two_point_diagonal(spec, bt), atol=1e-13)


def test_site_cap():
    with pytest.raises(CapacityError):
        dispersion.two_point(lattice.LatticeSpec(3, 13), 1.0)


def test_rho_bound_d3_value():
    # closed form (pi^{3/2}/8) zeta(3/2) beta^{-3/2} at beta = 4
    want = (np.pi**1.5 / 8.0) * 2.6123753486854883 * 4.0**-1.5
    got = dispersion.rho_upper_bound(3, 4.0, 8)
    assert abs(got - want) < 1e-12
    assert got == pytest.approx(0.22725, abs=5e-5)


def test_rho_bound_d2_value_and_window():
    got = dispersion.rho_upper_bound(2, 2.0, 8)
    assert abs(got - 4.0 * np.pi * 0.5 * np.log(8.0)) < 1e-12
    assert got == pytest.approx(13.064, abs=5e-3)
    with pytest.raises(HypothesisError):
        dispersion.rho_upper_bound(2, 0.4, 8)  # needs 2*beta > 1
    with pytest.raises(HypothesisError):
        dispersion.rho_upper_bound(2, 8.0, 8)  # needs ell + 1 > 2*beta


def test_rho_bounds_dominate_lattice(subtests=None):
    for d, bt, ell in [(3, 2.0, 6), (3, 8.0, 10), (2, 1.0, 8), (2, 3.0, 12)]:
        spec = lattice.LatticeSpec(d, ell)
        rho_max = float(np.max(dispersion.two_point_diagonal(spec, bt)))
        assert rho_max <= dispersion.rho_upper_bound(d, bt, ell)


def test_rho_small_beta_bound():
    assert abs(dispersion.rho_small_beta_bound(0.5) - 16.0 * np.pi) < 1e-12
    spec = lattice.LatticeSpec(3, 8)
    rho_max = float(np.max(dispersion.two_point_diagonal(spec, 0.5)))
    assert rho_max <= dispersion.rho_small_beta_bound(0.5)
    with pytest.raises(ValidationError):
        dispersion.rho_small_beta_bound(0.0)


def test_occupation_tail_exact_is_geometric_tail():
    # single-site reduced state of a quasi-free state is geometric, so the
    # exact tail is (rho/(1+rho))^{2S+1}; check against a brute sum
    for rho in (0.01, 0.3, 2.0):
        for two_s in (1, 2, 5):
            q = rho / (1.0 + rho)
            ns = np.arange(0, 4000)
            probs = (1 - q) * q**ns
            brute = float(probs[ns > two_s].sum())
            got = dispersion.occupation_tail_bound(rho, two_s, form="exact")
            assert got == pytest.approx(brute, rel=1e-10)
            simple = dispersion.occupation_tail_bound(rho, two_s, form="simple")
            assert simple >= got  # the cruder form always dominates
    with pytest.raises(ValidationError):
        dispersion.occupation_tail_bound(0.1, 1, form="bogus")


def test_one_minus_p_bound_example():
    # e * ell^d * (2S+1) * rho_bar^{2S} with the d=3 closed-form rho_bar
    got = dispersion.one_minus_p_bound(3, 4.0, 2, 1)
    want = np.e * 8 * 2 * dispersion.rho_upper_bound(3, 4.0, 2)
    assert abs(got - want) < 1e-12
    assert got == pytest.approx(9.88, abs=0.01)
    # explicit rho_bound override
    got2 = dispersion.one_minus_p_bound(3, 4.0, 2, 2, rho_bound=0.1)
    assert abs(got2 - np.e * 8 * 3 * 0.01) < 1e-12


def test_n_p_bounds():
    lo, hi = dispersion.n_p_bounds(3, 8.0, 4, 6)
    assert lo == 1.0
    w = dispersion.one_minus_p_bound(3, 8.0, 4, 6)
    assert abs(hi - (1.0 + 2.0 * w)) < 1e-12
    with pytest.raises(HypothesisError):
        dispersion.n_p_bounds(3, 1.0, 16, 1)  # weight far above 1/2
