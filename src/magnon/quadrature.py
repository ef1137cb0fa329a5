"""Deterministic quadrature for Brillouin-zone integrals, plus small numerics.

The integrands that matter here are smooth away from ``k = 0`` but have either
a logarithmic singularity (``log(1 - e^{-beta*eps})``) or a temperature-set
boundary layer (``eps * f``) at the origin.  Both are handled by one mesh: the
cube ``[0, pi]^dim`` is split into dyadic shells shrinking geometrically
toward the origin corner, and each shell box gets a tensor Gauss-Legendre
rule.  On such a mesh the rule converges geometrically because every box is
well separated from the origin relative to its own size.

Everything is deterministic: fixed node counts, fixed shell depth, fixed
summation order.  Error estimates come from re-running on a strictly finer
mesh and differencing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dispersion
from ._errors import ValidationError, integer, inverse_temperature

__all__ = [
    "QuadratureResult",
    "RiemannCheck",
    "zeta",
    "leading_free_energy",
    "correction_integral",
    "dyson_coefficient",
    "riemann_lower_sum_check",
    "tensor_integral",
]


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class RiemannCheck:
    """Outcome of the lattice-sum-versus-integral lower bound."""

    lattice_sum: float
    integral: float
    penalty: float
    rhs: float
    margin: float
    evaluations: int


# Bernoulli numbers B_2, B_4, ..., B_12 for the Euler-Maclaurin tail.
_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730)


def zeta(s: float) -> float:
    """Riemann zeta for real ``s > 1`` via Euler-Maclaurin summation.

    Direct sum to N = 64 plus integral, midpoint and six Bernoulli
    corrections; accurate to near machine precision for s >= 1.1.
    """
    s = float(s)
    if not s > 1.0:
        raise ValidationError(f"zeta(s) implemented for s > 1 only, got {s}")
    n_direct = 64
    total = sum(k ** (-s) for k in range(1, n_direct))
    n = float(n_direct)
    total += n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** (-s)
    # Tail: sum_j B_2j / (2j)! * (s)_(2j-1) * N^(-s-2j+1), rising factorial.
    poch = s
    fact = 2.0
    power = n ** (-s - 1.0)
    for j, b in enumerate(_BERNOULLI, start=1):
        total += b / fact * poch * power
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)
        power /= n * n
    return total


def _gauss_nodes(n_gl: int):
    x, w = np.polynomial.legendre.leggauss(n_gl)
    return 0.5 * (x + 1.0), 0.5 * w  # mapped to [0, 1]


def _shell_boxes(dim: int, depth: int):
    """Dyadic decomposition of [0, pi]^dim graded toward the origin corner.

    Yields (lo, hi) box corners. Shell j splits [0, pi*2^-j]^dim minus its
    inner half-cube into 2^dim - 1 boxes; a tiny core cube remains at the end.
    """
    for j in range(depth):
        h = np.pi * 0.5**j
        for mask in range(1, 2**dim):
            lo = np.array([(h / 2 if (mask >> a) & 1 else 0.0) for a in range(dim)])
            hi = np.array([(h if (mask >> a) & 1 else h / 2) for a in range(dim)])
            yield lo, hi
    core = np.pi * 0.5**depth
    yield np.zeros(dim), np.full(dim, core)


def tensor_integral(fn, dim: int, n_gl: int = 16, depth: int = 24):
    """Integral of ``fn`` over ``[0, pi]^dim`` on the graded dyadic mesh.

    ``fn`` maps an array of points with shape ``(m, dim)`` to values ``(m,)``.
    Each box gets an ``n_gl``-point rule per axis (``n_gl >= 1``), and the
    mesh has ``depth`` shells (``depth >= 0``) around its core cube.
    Returns ``(value, evaluations)``.  Boxes are summed in a fixed order with
    compensated accumulation.
    """
    integer(dim, "dim must be a positive integer")
    integer(n_gl, "n_gl must be a positive integer")
    integer(depth, "depth must be a nonnegative integer", 0)
    nodes, weights = _gauss_nodes(n_gl)
    total = 0.0
    comp = 0.0
    evals = 0
    for lo, hi in _shell_boxes(dim, depth):
        axes = [lo[a] + (hi[a] - lo[a]) * nodes for a in range(dim)]
        wts = [(hi[a] - lo[a]) * weights for a in range(dim)]
        pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
        w = wts[0]
        for a in range(1, dim):
            w = np.multiply.outer(w, wts[a])
        vals = fn(pts)
        evals += pts.shape[0]
        term = float(np.dot(w.ravel(), vals))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total, evals


def _zone_integral(d: int, integrand, scale: float) -> QuadratureResult:
    """``scale`` times the integral over ``[0, pi]^d``: fine-mesh value, coarse-mesh error."""
    integer(d, f"dimension must be 1, 2 or 3, got {d}", 1, 3)
    coarse, n1 = tensor_integral(integrand, d, n_gl=16, depth=24)
    fine, n2 = tensor_integral(integrand, d, n_gl=24, depth=30)
    return QuadratureResult(fine * scale, abs(fine - coarse) * scale, n1 + n2)


def leading_free_energy(d: int, beta_tilde: float) -> QuadratureResult:
    """Leading spin-wave free energy per site, in units of the spin.

    ``(1/beta) * integral over [-pi,pi]^d of log(1 - e^{-beta*eps(k)})``
    with measure ``dk/(2pi)^d``.  Negative; behaves like ``-c_d *
    beta^{-1-d/2}`` for large ``beta_tilde``.
    """
    bt = inverse_temperature(beta_tilde)

    def integrand(pts):
        # log(1 - e^-x) = log(-expm1(-x)), stable for all x > 0
        return np.log(-np.expm1(-bt * dispersion.epsilon(pts)))

    return _zone_integral(d, integrand, 1.0 / (bt * np.pi**d))


def _thermal_energy(pts, beta_tilde: float) -> np.ndarray:
    """Integrand ``eps(k) f(k)`` of ``correction_integral``, finite at every ``k != 0``."""
    eps = dispersion.epsilon(pts)
    x = beta_tilde * eps
    # eps/(e^x - 1) = eps e^-x / (1 - e^-x), overflow-free for large x
    return eps * np.exp(-x) / (-np.expm1(-x))


def correction_integral(d: int, beta_tilde: float) -> QuadratureResult:
    """Thermal kinetic-energy density ``integral eps(k) f(k) dk/(2pi)^d``.

    ``f`` is the Bose factor at inverse temperature ``beta_tilde``.  Positive;
    behaves like ``c_d * beta^{-1-d/2}`` for large ``beta_tilde``.  Where
    ``beta_tilde * eps`` falls below the smallest normal float the integrand
    is ``inf``, quietly: callers refuse results that are not finite.
    """
    bt = inverse_temperature(beta_tilde)
    with np.errstate(over="ignore", divide="ignore"):
        return _zone_integral(d, lambda pts: _thermal_energy(pts, bt), 1.0 / np.pi**d)


def dyson_coefficient() -> float:
    """Low-temperature limit of ``beta^5 * correction_integral(3)^2 / 12``.

    Equals ``3 * zeta(5/2)^2 / (128 * (2pi)^3)``, the classic second-order
    coefficient of the d=3 free-energy expansion.
    """
    return 3.0 * zeta(2.5) ** 2 / (128.0 * (2.0 * np.pi) ** 3)


def riemann_lower_sum_check(g, ell: int, n: int, d1: float, d2: float) -> RiemannCheck:
    """Check that the sine-grid Riemann sum dominates the integral minus a 1/ell penalty.

    For a nonnegative ``g`` with ``sup g <= d1`` and ``sup |grad g| <= d2``,
    the lattice sum ``(pi/(ell+1))^n * sum over the sine grid of g`` is at
    least ``integral over [0,pi]^n of g`` minus
    ``(n pi^n d1 + pi^(n+1) sqrt(n) d2) / (ell+1)``.  ``margin`` is lattice
    sum minus that right-hand side and should be nonnegative.
    """
    integer(n, "grid dimension must be 1, 2 or 3", 1, 3)
    integer(ell, "ell must be positive")
    step = np.pi / (ell + 1)
    axes = [step * np.arange(1, ell + 1)] * n
    pts = np.stack([g_.ravel() for g_ in np.meshgrid(*axes, indexing="ij")], axis=-1)
    lattice_sum = float(step**n * np.sum(np.sort(g(pts))))
    integral, evals = tensor_integral(g, n, n_gl=20, depth=26)
    penalty = (n * np.pi**n * d1 + np.pi ** (n + 1) * math.sqrt(n) * d2) / (ell + 1)
    rhs = integral - penalty
    return RiemannCheck(lattice_sum, integral, penalty, rhs, lattice_sum - rhs, evals)
