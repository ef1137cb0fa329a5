import numpy as np
import pytest
from conftest import dense_expectation, dense_gibbs, dense_log_z, random_symmetric
from dense_oracles import gibbs_density, gibbs_expectation, gibbs_functional, gibbs_log_trace

from magnon import linalg
from magnon._errors import CapacityError, NumericalError, ValidationError


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_eigh_reconstructs(rng):
    m = random_symmetric(rng, 40)
    w, v = linalg.eigh(m)
    assert np.all(np.diff(w) >= -1e-12)
    assert np.allclose((v * w) @ v.T, m, atol=1e-10)


def test_symmetry_validation(rng):
    m = rng.standard_normal((8, 8))
    with pytest.raises(ValidationError):
        linalg.eigh(m)
    bad = random_symmetric(rng, 4)
    bad[0, 0] = np.nan
    with pytest.raises(NumericalError):
        linalg.eigh(bad)
    with pytest.raises(ValidationError):
        linalg.eigh(rng.standard_normal((3, 4)))


def test_symmetry_check_keeps_a_symmetric_matrix_and_its_messages(rng):
    m = random_symmetric(rng, 6)
    assert linalg._check_symmetric(m) is m
    near = m.copy()
    near[0, 1] += 1e-14
    got = linalg._check_symmetric(near)
    assert got is not near and np.array_equal(got, 0.5 * (near + near.T))
    far = m.copy()
    far[0, 1] += 1e-6
    message = r"^matrix is not symmetric \(max asymmetry 1\.000e-06\)$"
    with pytest.raises(ValidationError, match=message):
        linalg._check_symmetric(far)
    far[2, 3] = np.inf  # non-finite is reported before asymmetry
    with pytest.raises(NumericalError, match="^matrix contains non-finite entries$"):
        linalg._check_symmetric(far)
    empty = np.zeros((0, 0))
    assert linalg._check_symmetric(empty) is empty


def test_dense_cap():
    big = np.zeros((linalg.DENSE_DIM_CAP + 1, linalg.DENSE_DIM_CAP + 1))
    with pytest.raises(CapacityError):
        linalg.eigh(big)


def test_eigvalsh_matches_eigh_with_same_checks(rng):
    m = random_symmetric(rng, 40)
    w, _ = linalg.eigh(m)
    assert np.max(np.abs(linalg.eigvalsh(m) - w)) < 1e-12
    with pytest.raises(ValidationError):
        linalg.eigvalsh(rng.standard_normal((8, 8)))
    bad = random_symmetric(rng, 4)
    bad[0, 0] = np.inf
    with pytest.raises(NumericalError):
        linalg.eigvalsh(bad)
    with pytest.raises(ValidationError):
        linalg.eigvalsh(rng.standard_normal((3, 4)))
    with pytest.raises(CapacityError):
        linalg.eigvalsh(np.zeros((linalg.DENSE_DIM_CAP + 1, linalg.DENSE_DIM_CAP + 1)))


def test_gibbs_log_trace(rng):
    h = random_symmetric(rng, 30)
    for beta in (0.1, 1.0, 10.0, 200.0):
        assert abs(gibbs_log_trace(h, beta) - dense_log_z(h, beta)) < 1e-10
    # shift invariance: adding c*I moves log Z by -beta*c
    c = 3.7
    lhs = gibbs_log_trace(h + c * np.eye(30), 2.0)
    assert abs(lhs - (gibbs_log_trace(h, 2.0) - 2.0 * c)) < 1e-10


def test_gibbs_expectation(rng):
    h = random_symmetric(rng, 25)
    obs = rng.standard_normal((25, 25))  # need not be symmetric
    got = gibbs_expectation(h, 1.3, obs)
    assert abs(got - dense_expectation(h, 1.3, obs)) < 1e-10
    got_many = gibbs_expectation(h, 1.3, [obs, obs.T, np.eye(25)])
    assert np.allclose(got_many, [got, got, 1.0], atol=1e-10)
    with pytest.raises(ValidationError):
        gibbs_expectation(h, 1.3, rng.standard_normal((25, 24)))


def test_gibbs_density(rng):
    h = random_symmetric(rng, 20)
    gamma = gibbs_density(h, 0.8)
    assert abs(np.trace(gamma) - 1.0) < 1e-12
    assert np.allclose(gamma, dense_gibbs(h, 0.8), atol=1e-12)
    assert np.min(np.linalg.eigvalsh(gamma)) > -1e-14
    assert np.max(np.abs(gamma @ h - h @ gamma)) < 1e-10


def test_gibbs_functional_variational(rng):
    # tr(H G) + (1/beta) tr(G log G) is minimized exactly at the Gibbs state
    h = random_symmetric(rng, 12)
    beta = 1.7
    gamma = gibbs_density(h, beta)
    f_star = gibbs_functional(h, beta, gamma)
    assert abs(f_star - (-gibbs_log_trace(h, beta) / beta)) < 1e-9
    for _ in range(5):
        a = random_symmetric(rng, 12)
        rho = a @ a.T
        rho /= np.trace(rho)
        assert gibbs_functional(h, beta, rho) >= f_star - 1e-9


def test_gibbs_functional_validation(rng):
    h = random_symmetric(rng, 6)
    bad = np.eye(6)  # trace 6, not a state
    with pytest.raises(ValidationError):
        gibbs_functional(h, 1.0, bad)


def test_exactly_symmetric_input_is_solved_as_given(rng):
    m = random_symmetric(rng, 12)
    assert linalg._check_symmetric(m) is m
    # symmetric only to rounding: a symmetrized copy, the input left alone
    near = m.copy()
    near[0, 1] += 1e-14
    before = near.copy()
    got = linalg._check_symmetric(near)
    assert got is not near
    assert np.array_equal(near, before)
    assert np.array_equal(got, got.T)
    assert np.array_equal(got, 0.5 * (near + near.T))
    # both paths keep the cap, finiteness and asymmetry checks
    with pytest.raises(ValidationError):
        linalg._check_symmetric(m + np.triu(np.ones_like(m), 1) * 1e-6)
