"""Magnon dispersion, Bose occupations, and the two-point function of the
quasi-free reference state, plus the pointwise occupation bounds built on it.

The dispersion is ``eps(k) = sum_j 2(1 - cos k_j)``, taking values in
``[0, 4d]``.  In the quasi-free Gibbs state of the Dirichlet kinetic form at
inverse temperature ``beta_tilde``, each sine mode ``k`` is occupied with the
Bose factor ``f(k) = 1/(e^{beta*eps(k)} - 1)`` and the position two-point
function is ``rho(x, y) = sum_k phi_k(x) phi_k(y) f(k)``.

Every consumer of ``rho`` reads it on a site or on a bond only, so only those
values are computed: ``two_point_diagonal`` and ``two_point_bonds``.  Sine
modes factorize over the axes, so each is one contraction of the Bose factors
per axis, ``O(d * ell^{d+1})`` per bond direction, at any box size; the dense
``ell^d x ell^d`` table is never built.

The reduced state of a single site in such a state is exactly geometric with
mean ``rho(x, x)``, which gives sharp tail bounds for the probability of a
site carrying more than ``2S`` bosons.
"""

from __future__ import annotations

import math

import numpy as np

from . import lattice, quadrature
from ._errors import (
    HypothesisError, ValidationError, integer, inverse_temperature, overflow, spin,
)

__all__ = [
    "epsilon",
    "bose_from_energy",
    "two_point_diagonal",
    "two_point_bonds",
    "rho_upper_bound",
    "rho_small_beta_bound",
    "occupation_tail_bound",
    "one_minus_p_bound",
]


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
    """Bose factor ``1/(e^{beta*eps} - 1)`` for strictly positive energies.

    Energies at or below ``1e-14`` are refused as zero modes, so the zone
    integrand of ``quadrature.correction_integral``, whose nodes near
    ``k = 0`` sit below that guard, keeps its own ``eps * f`` form.
    """
    bt = inverse_temperature(beta_tilde)
    eps = np.asarray(eps, dtype=np.float64)
    if np.any(eps <= 1e-14):
        raise ValidationError("Bose factor diverges at zero energy (zero mode)")
    x = bt * eps
    # e^-x/(1 - e^-x): overflow-free for large x, exact for small x
    return np.exp(-x) / (-np.expm1(-x))


# one analytic report reads the same spectrum six times
@lattice._memoized
def _dirichlet_spectrum(spec: lattice.LatticeSpec, beta_tilde: float):
    """Energies and Bose factors of the sine modes, in ``dirichlet_modes`` order.

    Memoized for the latest ``(spec, beta_tilde)``; both arrays are read-only.
    Where ``beta_tilde * eps`` falls below the smallest normal float a Bose
    factor is ``inf``, quietly: callers refuse results that are not finite.
    """
    eps = epsilon(lattice.dirichlet_modes(spec))
    with np.errstate(over="ignore", divide="ignore"):
        return eps, bose_from_energy(eps, beta_tilde)


def _contract_axes(modes: np.ndarray, tables) -> np.ndarray:
    """Contract axis ``i`` of the mode array with ``tables[i]``.

    ``tables[i]`` has shape ``(rows, ell)``; axis ``i`` of the result runs
    over its rows.  One ``tensordot`` per axis, ``O(rows * ell^d)`` each.
    """
    out = modes
    with np.errstate(invalid="ignore"):  # inf Bose factors: NaN, which callers refuse
        for axis, table in enumerate(tables):
            out = np.moveaxis(np.tensordot(table, out, axes=(1, axis)), 0, axis)
    return out


def _sine_matrix(ell: int) -> np.ndarray:
    """Orthogonal 1d sine transform ``phi[x, k]``, sites and modes ``1..ell``."""
    grid = np.arange(1, ell + 1)
    return np.sqrt(2.0 / (ell + 1)) * np.sin(np.pi * np.outer(grid, grid) / (ell + 1))


def _sine_products(spec: lattice.LatticeSpec, beta_tilde: float):
    """Bose factors on the ``(ell,)*d`` mode grid and the 1d sine modes ``phi[x, k]``."""
    if spec.boundary is not lattice.Boundary.DIRICHLET:
        raise ValidationError("the two-point function is defined for Dirichlet boxes")
    _, f = _dirichlet_spectrum(spec, beta_tilde)
    return f.reshape((spec.ell,) * spec.d), _sine_matrix(spec.ell)


def two_point_diagonal(spec: lattice.LatticeSpec, beta_tilde: float) -> np.ndarray:
    """Site occupations ``rho(x, x)`` in ``sites`` order.

    The mode product ``phi_k(x)^2`` factorizes over axes, so the sum over
    modes is one contraction per axis, ``O(d * ell^{d+1})``.
    """
    f, phi = _sine_products(spec, beta_tilde)
    return _contract_axes(f, [phi * phi] * spec.d).ravel()


def two_point_bonds(spec: lattice.LatticeSpec, beta_tilde: float) -> np.ndarray:
    """Bond values ``rho(x, y)`` on every bond of ``lattice.nn_pairs``, in that order.

    On a bond along axis ``j`` the mode product is ``phi(x_j) phi(x_j + 1)``
    on axis ``j`` and ``phi(x_i)^2`` on every other axis; each direction is
    one contraction per axis, ``O(d^2 * ell^{d+1})`` in total.  No
    ``n_sites^2`` array is built, so the cost stays linear in the volume
    times ``ell``.
    """
    f, phi = _sine_products(spec, beta_tilde)
    square, step = phi * phi, phi[:-1] * phi[1:]
    return np.concatenate(
        [
            _contract_axes(f, [step if i == j else square for i in range(spec.d)]).ravel()
            for j in range(spec.d)
        ]
    )


def rho_upper_bound(d: int, beta_tilde: float, ell: int) -> float:
    """Rigorous uniform bound on the site occupation ``rho(x, x)``.

    d=3: ``(pi^{3/2}/8) zeta(3/2) / beta^{3/2}``, valid for all box sizes.
    d=2: ``4 pi log(ell) / beta``, valid when ``ell >= 2`` and
    ``2*beta > 1 > 2*beta/(ell+1)``; outside that window the bound does not
    apply and this raises (at ``ell = 1`` the form would give 0).
    """
    bt = inverse_temperature(beta_tilde)
    integer(d, "occupation bound is available for d=2 and d=3 only", 2, 3)
    integer(ell, "ell must be a positive integer")
    if d == 3:
        try:
            return (math.pi**1.5 / 8.0) * quadrature.zeta(1.5) * bt**-1.5
        except OverflowError:
            raise overflow("the occupation bound's beta_tilde**-1.5", bt) from None
    if not (2.0 * bt > 1.0 and 1.0 > 2.0 * bt / (ell + 1)):
        raise HypothesisError(
            f"d=2 occupation bound needs 2*beta > 1 > 2*beta/(ell+1); "
            f"got beta_tilde={bt}, ell={ell}"
        )
    if ell < 2:
        raise HypothesisError(f"d=2 occupation bound needs ell >= 2; got ell={ell}")
    return 4.0 * math.pi * math.log(ell) / bt


def rho_small_beta_bound(beta_tilde: float) -> float:
    """High-temperature d=3 occupation bound ``8 pi / beta``.

    Complements ``rho_upper_bound`` when ``beta_tilde`` is small (it stays
    valid without any low-temperature hypothesis).
    """
    bt = inverse_temperature(beta_tilde)
    return 8.0 * math.pi / bt


def occupation_tail_bound(rho, two_s: int):
    """Per-site probability of more than ``2S`` bosons on one site.

    The geometric tail ``(rho/(1+rho))^(2S+1)``, exact for the single-site
    marginal of the quasi-free state with mean ``rho``; one bound per entry
    of ``rho``.  An infinite occupation has tail 1, its limit.
    """
    spin(two_s)
    occ = np.asarray(rho, dtype=np.float64)
    if np.any(occ < 0.0):
        raise ValidationError("occupation must be nonnegative")
    with np.errstate(invalid="ignore"):  # inf / inf, whose tail is 1
        return np.fmin(occ / (1.0 + occ), 1.0) ** (two_s + 1)


def one_minus_p_bound(
    d: int, beta_tilde: float, ell: int, two_s: int, rho_bound: float | None = None
) -> float:
    """Closed-form bound on the weight outside the low-occupation subspace.

    Union bound over sites with the Chernoff-style per-site tail
    ``(2S+1) e rho^(2S)``, which dominates ``occupation_tail_bound`` for
    every ``rho``: ``e * ell^d * (2S+1) * rho_bar^(2S)`` where ``rho_bar`` is
    the uniform occupation bound (``rho_upper_bound`` unless an explicit
    ``rho_bound`` is supplied, e.g. the high-temperature one).  It is
    ``inf`` where that product overflows a float.
    """
    spin(two_s)
    integer(d, "dimension must be 1, 2 or 3", 1, 3)
    integer(ell, "ell must be a positive integer")
    rho_bar = rho_upper_bound(d, beta_tilde, ell) if rho_bound is None else float(rho_bound)
    if rho_bar < 0.0:
        raise ValidationError("occupation must be nonnegative")
    try:
        return ell**d * ((two_s + 1) * math.e * rho_bar**two_s)
    except OverflowError:  # past any float, so no weight is bounded
        return math.inf
