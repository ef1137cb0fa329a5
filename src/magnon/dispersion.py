"""Magnon dispersion, Bose occupations, and the two-point function of the
quasi-free reference state, plus the pointwise occupation bounds built on it.

The dispersion is ``eps(k) = sum_j 2(1 - cos k_j)``, taking values in
``[0, 4d]``.  In the quasi-free Gibbs state of the Dirichlet kinetic form at
inverse temperature ``beta_tilde``, each sine mode ``k`` is occupied with the
Bose factor ``f(k) = 1/(e^{beta*eps(k)} - 1)`` and the position two-point
function is ``rho(x, y) = sum_k phi_k(x) phi_k(y) f(k)``.

The reduced state of a single site in such a state is exactly geometric with
mean ``rho(x, x)``, which gives sharp tail bounds for the probability of a
site carrying more than ``2S`` bosons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lattice, quadrature
from ._errors import CapacityError, HypothesisError, ValidationError

__all__ = [
    "TwoPointTable",
    "epsilon",
    "bose_from_energy",
    "two_point",
    "two_point_diagonal",
    "rho_upper_bound",
    "rho_small_beta_bound",
    "occupation_tail_bound",
    "one_minus_p_bound",
    "n_p_bounds",
    "TABLE_SITE_CAP",
]

TABLE_SITE_CAP = 2048


def epsilon(k) -> np.ndarray:
    """Dispersion ``sum_j 2(1 - cos k_j)`` over the last axis of ``k``.

    Evaluated as ``4 sin^2(k_j/2)``, which avoids cancellation near zero.
    """
    k = np.asarray(k, dtype=np.float64)
    if k.ndim == 0:
        k = k[None]
    s = np.sin(0.5 * k)
    return 4.0 * np.sum(s * s, axis=-1)


def bose_from_energy(eps, beta_tilde: float):
    """Bose factor ``1/(e^{beta*eps} - 1)`` for strictly positive energies."""
    eps = np.asarray(eps, dtype=np.float64)
    if np.any(eps <= 1e-14):
        raise ValidationError("Bose factor diverges at zero energy (zero mode)")
    x = float(beta_tilde) * eps
    # e^-x/(1 - e^-x): overflow-free for large x, exact for small x
    return np.exp(-x) / (-np.expm1(-x))


@dataclass(frozen=True)
class TwoPointTable:
    """Dense two-point function ``rho[x, y]`` of the quasi-free state."""

    spec: lattice.LatticeSpec
    beta_tilde: float
    values: np.ndarray

    def diagonal(self) -> np.ndarray:
        return np.ascontiguousarray(np.diag(self.values))


def _mode_occupations(spec: lattice.LatticeSpec, beta_tilde: float) -> np.ndarray:
    modes = lattice.dirichlet_modes(spec)
    return bose_from_energy(epsilon(modes), beta_tilde)


def two_point(spec: lattice.LatticeSpec, beta_tilde: float) -> TwoPointTable:
    """Full two-point table ``rho(x, y) = sum_k phi_k(x) phi_k(y) f(k)``.

    Modes are accumulated in ascending index order in fixed-size chunks with
    compensated summation, so the result is deterministic.  Symmetric by
    construction; positive on the diagonal.
    """
    if spec.boundary is not lattice.Boundary.DIRICHLET:
        raise ValidationError("the two-point table is defined for Dirichlet boxes")
    n = spec.n_sites
    if n > TABLE_SITE_CAP:
        raise CapacityError(
            f"{n} sites exceeds the table cap {TABLE_SITE_CAP}; "
            "use two_point_diagonal for occupations"
        )
    phi = lattice.eigenfunction_matrix(spec)
    f = _mode_occupations(spec, beta_tilde)
    values = np.zeros((n, n))
    comp = np.zeros((n, n))
    for lo in range(0, n, 128):
        hi = min(lo + 128, n)
        part = (phi[:, lo:hi] * f[lo:hi]) @ phi[:, lo:hi].T
        y = part - comp
        t = values + y
        comp = (t - values) - y
        values = t
    values = 0.5 * (values + values.T)
    return TwoPointTable(spec, float(beta_tilde), values)


def two_point_diagonal(spec: lattice.LatticeSpec, beta_tilde: float) -> np.ndarray:
    """Site occupations ``rho(x, x)`` without building the full table."""
    if spec.boundary is not lattice.Boundary.DIRICHLET:
        raise ValidationError("the two-point table is defined for Dirichlet boxes")
    phi = lattice.eigenfunction_matrix(spec)
    f = _mode_occupations(spec, beta_tilde)
    return (phi**2) @ f


def rho_upper_bound(d: int, beta_tilde: float, ell: int) -> float:
    """Rigorous uniform bound on the site occupation ``rho(x, x)``.

    d=3: ``(pi^{3/2}/8) zeta(3/2) / beta^{3/2}``, valid for all box sizes.
    d=2: ``4 pi log(ell) / beta``, valid when ``2*beta > 1 > 2*beta/(ell+1)``;
    outside that window the bound does not apply and this raises.
    """
    bt = float(beta_tilde)
    if not bt > 0.0:
        raise ValidationError("beta_tilde must be positive")
    if d == 3:
        return (math.pi**1.5 / 8.0) * quadrature.zeta(1.5) * bt**-1.5
    if d == 2:
        if not (2.0 * bt > 1.0 and 1.0 > 2.0 * bt / (ell + 1)):
            raise HypothesisError(
                f"d=2 occupation bound needs 2*beta > 1 > 2*beta/(ell+1); "
                f"got beta_tilde={bt}, ell={ell}"
            )
        return 4.0 * math.pi * math.log(ell) / bt
    raise ValidationError("occupation bound is available for d=2 and d=3 only")


def rho_small_beta_bound(beta_tilde: float) -> float:
    """High-temperature d=3 occupation bound ``8 pi / beta``.

    Complements ``rho_upper_bound`` when ``beta_tilde`` is small (it stays
    valid without any low-temperature hypothesis).
    """
    bt = float(beta_tilde)
    if not bt > 0.0:
        raise ValidationError("beta_tilde must be positive")
    return 8.0 * math.pi / bt


def occupation_tail_bound(rho: float, two_s: int, form: str = "exact") -> float:
    """Per-site probability bound for more than ``2S`` bosons on one site.

    ``form="exact"``: the geometric tail ``(rho/(1+rho))^(2S+1)``, exact for
    the single-site marginal of the quasi-free state with mean ``rho``.
    ``form="simple"``: the looser Chernoff-style bound ``(2S+1) e rho^(2S)``
    used to compose the closed-form box bound; it dominates the exact form
    for every ``rho``.
    """
    rho = float(rho)
    if rho < 0.0:
        raise ValidationError("occupation must be nonnegative")
    if form == "exact":
        return (rho / (1.0 + rho)) ** (two_s + 1)
    if form == "simple":
        return (two_s + 1) * math.e * rho**two_s
    raise ValidationError(f"unknown tail-bound form {form!r}")


def one_minus_p_bound(
    d: int, beta_tilde: float, ell: int, two_s: int, rho_bound: float | None = None
) -> float:
    """Closed-form bound on the weight outside the low-occupation subspace.

    Union bound over sites with the simple per-site tail:
    ``e * ell^d * (2S+1) * rho_bar^(2S)`` where ``rho_bar`` is the uniform
    occupation bound (``rho_upper_bound`` unless an explicit ``rho_bound`` is
    supplied, e.g. the high-temperature one).
    """
    if two_s < 1:
        raise ValidationError("two_s must be a positive integer")
    rho_bar = rho_upper_bound(d, beta_tilde, ell) if rho_bound is None else float(rho_bound)
    return math.e * ell**d * (two_s + 1) * rho_bar**two_s


def n_p_bounds(
    d: int, beta_tilde: float, ell: int, two_s: int, rho_bound: float | None = None
):
    """Two-sided bounds on the trace ratio full/projected partition function.

    If ``w`` bounds the weight outside the projected subspace and ``w <= 1/2``
    then the ratio lies in ``[1, 1 + 2w]``.  When ``w > 1/2`` the estimate
    carries no information and this raises instead of returning a number.
    """
    w = one_minus_p_bound(d, beta_tilde, ell, two_s, rho_bound=rho_bound)
    if w > 0.5:
        raise HypothesisError(
            f"projected-trace bound needs outside weight <= 1/2, got {w:.3e}"
        )
    return 1.0, 1.0 + 2.0 * w
