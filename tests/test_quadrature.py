import numpy as np
import pytest
from conftest import richardson_extrapolate

from magnon import quadrature
from magnon._errors import ValidationError

# Frozen oracle values, derived once from an independent multiprecision
# evaluation (see also the mpmath cross-check below).
ZETA_3_HALF = 2.6123753486854883
ZETA_5_HALF = 1.3414872572509171

# Large-argument limits of the scaled integrals, in closed form.
LEAD_3_LIMIT = -np.pi**1.5 * ZETA_5_HALF / (2.0 * np.pi) ** 3
CORR_3_LIMIT = 1.5 * np.pi**1.5 * ZETA_5_HALF / (2.0 * np.pi) ** 3


def test_zeta_frozen_values():
    assert abs(quadrature.zeta(1.5) - ZETA_3_HALF) < 5e-13
    assert abs(quadrature.zeta(2.5) - ZETA_5_HALF) < 5e-13


def test_zeta_closed_forms():
    assert abs(quadrature.zeta(2.0) - np.pi**2 / 6.0) < 1e-12
    assert abs(quadrature.zeta(4.0) - np.pi**4 / 90.0) < 1e-12


def test_zeta_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for s in (1.1, 1.5, 2.5, 3.0, 6.0):
        assert abs(quadrature.zeta(s) - float(mpmath.zeta(s))) < 1e-12


def test_zeta_validation():
    with pytest.raises(ValidationError):
        quadrature.zeta(1.0)
    with pytest.raises(ValidationError):
        quadrature.zeta(0.5)


def test_tensor_integral_polynomials():
    for dim in (1, 2, 3):
        val, n_evals = quadrature.tensor_integral(
            lambda p: np.prod(p**2, axis=-1), dim, n_gl=12, depth=12
        )
        assert abs(val - (np.pi**3 / 3.0) ** dim) < 1e-10
        assert n_evals > 0


@pytest.mark.parametrize(
    "counts", [{"depth": -1}, {"depth": 2.5}, {"n_gl": True}, {"n_gl": 0}, {"n_gl": 2.5}]
)
def test_tensor_integral_refuses_bad_counts(counts):
    # depth=-1 once integrated over [0, 2 pi] and n_gl=True ran a one-point rule
    with pytest.raises(ValidationError, match="n_gl|depth"):
        quadrature.tensor_integral(lambda p: p[:, 0], 1, **counts)


def test_tensor_integral_log_singularity():
    # integral over [0, pi] of log(2 - 2cos x) dx = 0, a classical identity;
    # the integrand diverges at 0, stressing the graded mesh
    def fn(p):
        return np.log(4.0 * np.sin(0.5 * p[:, 0]) ** 2)

    val, _ = quadrature.tensor_integral(fn, 1, n_gl=24, depth=40)
    assert abs(val) < 1e-10


def test_leading_free_energy_asymptote():
    # beta^{5/2} * leading -> -pi^{3/2} zeta(5/2) / (2 pi)^3 as beta grows
    xs, ys = [], []
    for bt in (64.0, 128.0, 256.0, 512.0):
        res = quadrature.leading_free_energy(3, bt)
        assert res.value < 0
        assert res.error_estimate < 1e-12
        xs.append(1.0 / bt)
        ys.append(bt**2.5 * res.value)
    limit, _ = richardson_extrapolate(xs, ys, order=2)
    assert abs(limit - LEAD_3_LIMIT) < 1e-5 * abs(LEAD_3_LIMIT)


def test_correction_integral_asymptote():
    xs, ys = [], []
    for bt in (64.0, 128.0, 256.0, 512.0):
        res = quadrature.correction_integral(3, bt)
        assert res.value > 0
        xs.append(1.0 / bt)
        ys.append(bt**2.5 * res.value)
    limit, _ = richardson_extrapolate(xs, ys, order=2)
    assert abs(limit - CORR_3_LIMIT) < 1e-5 * CORR_3_LIMIT


def test_leading_free_energy_monotone_in_beta():
    vals = [quadrature.leading_free_energy(2, bt).value for bt in (1.0, 2.0, 4.0)]
    assert vals[0] < vals[1] < vals[2] < 0


def test_dyson_coefficient_frozen():
    assert abs(quadrature.dyson_coefficient() - 1.70038e-4) < 1e-9
    want = 3.0 * quadrature.zeta(2.5) ** 2 / (128.0 * (2.0 * np.pi) ** 3)
    assert abs(quadrature.dyson_coefficient() - want) < 1e-18


def test_richardson_polynomial_exact():
    xs = [0.4, 0.2, 0.1, 0.05]
    ys = [2.0 + 3.0 * x + 4.0 * x * x for x in xs]
    limit, err = richardson_extrapolate(xs, ys, order=2)
    assert abs(limit - 2.0) < 1e-12
    limit1, _ = richardson_extrapolate(xs, ys, order=1)
    # order-1 leaves the quadratic term: residual 4*x3*x4 = 0.02 exactly
    assert abs(limit1 - 2.0) == pytest.approx(0.02, abs=1e-9)


def test_richardson_validation():
    with pytest.raises(ValidationError):
        richardson_extrapolate([0.1], [1.0], order=1)
    with pytest.raises(ValidationError):
        richardson_extrapolate([0.1, 0.1, 0.2], [1, 2, 3], order=1)


def test_riemann_lower_sum_constant_function():
    # g = 1: lattice sum (pi/(ell+1))^n * ell^n underestimates pi^n; the
    # penalty with d1 = sup|g| = 1, d2 = 0 must absorb the gap
    for n in (1, 2, 3):
        for ell in (4, 9):
            res = quadrature.riemann_lower_sum_check(
                lambda p: np.ones(p.shape[0]), ell, n, d1=1.0, d2=0.0
            )
            assert res.margin >= 0.0
            assert abs(res.lattice_sum - (np.pi / (ell + 1)) ** n * ell**n) < 1e-12
            assert abs(res.integral - np.pi**n) < 1e-8


def test_riemann_lower_sum_thermal_integrand():
    # the actual use: g = eps * f at fixed beta; sup|g| <= 1/beta and the
    # gradient bound sqrt(n) (|h'| <= 1/2, |grad eps| <= 2 sqrt(n))
    bt = 2.0

    def g(pts):
        s = np.sin(0.5 * pts)
        eps = 4.0 * np.sum(s * s, axis=-1)
        return eps * np.exp(-bt * eps) / (-np.expm1(-bt * eps))

    for n in (1, 2):
        res = quadrature.riemann_lower_sum_check(g, 8, n, d1=1.0 / bt, d2=np.sqrt(n))
        assert res.margin >= 0.0
        assert res.rhs == pytest.approx(res.integral - res.penalty)
