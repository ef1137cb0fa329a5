"""Wick's theorem on the quasi-free reference state, and bounds built from it.

A monomial is a sequence of ladder operators ``(site, is_creator)`` in left to
right operator order.  In a particle-number-conserving quasi-free state every
expectation reduces to a sum over pairings of creators with annihilators: a
creator left of its annihilator contributes ``rho(x, y)``, an annihilator
left of its creator contributes ``delta_{xy} + rho(x, y)``.  That pairing
engine, ``wick_expectation``, is kept as the independent route to ``<I>``
(``expectation_I_monomials``, run by ``wick-verify``) and as the tests' oracle.

The bounds the rigorous box bound assembles (hopping squared, interaction
squared, projector cross terms, square-root remainder) read the two-point
function only on a site or a bond.  Each states its per-bond occupation
polynomial in falling factorials with nonnegative coefficients, and the
falling-factorial moments of a two-site block have a closed form in
``(rho_xx, rho_yy, rho_xy^2)`` with nonnegative terms (``_moments``), so no
term cancels.  Each is evaluated once over the ``(2, 2, n_bonds)`` stack of
bond blocks built from ``dispersion.two_point_diagonal`` and
``dispersion.two_point_bonds``, which dominate the cost; no box size is
capped, and no ``n_sites^2`` array is built.  Each bound is paired with a
brute-force check against the capped boson oracle on small boxes.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import dispersion, fock, lattice
from ._errors import ValidationError, overflow, spin

__all__ = [
    "wick_expectation",
    "expectation_I_position",
    "expectation_I_monomials",
    "projector_deficit",
    "hop_squared_moments",
    "interaction_squared_bound",
    "CrossTermBound",
    "cross_term_bound",
    "remainder_bound",
    "cross_term_check",
    "remainder_check",
]

_MAX_PAIRS = 6


def wick_expectation(monomial, rho):
    """Quasi-free expectation of a ladder monomial via pairings.

    ``monomial`` is a sequence of ``(site_index, is_creator)`` in operator
    order.  ``rho`` is a symmetric two-point matrix ``rho[x, y]``, or a
    ``(2, 2, n)`` stack of two-point blocks on sites ``{0, 1}``, for which
    one value per block is returned.  Monomials with unequal creator and
    annihilator counts have zero expectation; that case is flagged with a
    warning since it usually indicates a typo in the caller.
    """
    rho = np.asarray(rho, dtype=np.float64)
    ops = [(int(s), bool(c)) for s, c in monomial]
    creators = [(pos, s) for pos, (s, c) in enumerate(ops) if c]
    annihil = [(pos, s) for pos, (s, c) in enumerate(ops) if not c]
    if len(creators) != len(annihil):
        warnings.warn("unbalanced ladder monomial has zero expectation", RuntimeWarning)
        return 0.0
    n = len(creators)
    if n == 0:
        return 1.0
    if n > _MAX_PAIRS:
        raise ValidationError(f"monomial degree {2 * n} exceeds pairing cap {2 * _MAX_PAIRS}")
    total = 0.0
    for perm in itertools.permutations(range(n)):
        prod = 1.0
        for ci, ai in zip(range(n), perm):
            cpos, csite = creators[ci]
            apos, asite = annihil[ai]
            # on a stack rho[asite, csite] is a view: never add to it in place
            val = rho[asite, csite]
            if apos < cpos and asite == csite:
                val = val + 1.0
            prod = prod * val
        total = total + prod
    return total


# one analytic report reads the same blocks three times; a 3-D box of side
# 64 takes 25 MB
@lattice._memoized
def _bond_blocks(spec, beta_tilde: float) -> np.ndarray:
    """Two-point blocks ``[[rho_xx, rho_xy], [rho_yx, rho_yy]]`` of every bond.

    Shape ``(2, 2, n_bonds)`` in ``lattice.nn_pairs`` order, site ``x`` as
    block index 0 and ``y`` as 1.  Memoized for the latest
    ``(spec, beta_tilde)`` and read-only.
    """
    pairs = lattice.nn_pairs(spec)
    diag = dispersion.two_point_diagonal(spec, beta_tilde)
    rxy = dispersion.two_point_bonds(spec, beta_tilde)
    return np.array([[diag[pairs[:, 0]], rxy], [rxy, diag[pairs[:, 1]]]])


def _moments(blocks: np.ndarray, poly: dict) -> np.ndarray:
    """Per-bond ``<p(n_x, n_y)> + <p(n_y, n_x)>``, ``poly`` in falling factorials.

    ``poly`` is ``{(i, j): coef}`` for ``sum coef n_x^(i) n_y^(j)`` with
    ``n^(i) = n (n - 1) ... (n - i + 1)``.  In a two-site block
    ``[[r0, c], [c, r1]]``, ``<n_0^(i) n_1^(j)> / (i! j!)`` is the coefficient
    of ``s0^i s1^j`` in ``1/((1 - r0 s0)(1 - r1 s1) - c^2 s0 s1)``:
    ``<n_0^(i) n_1^(j)> = i! j! sum_m C(i, m) C(j, m) r0^(i-m) r1^(j-m) c^(2m)``.
    Every term is nonnegative when every ``coef`` is, so none cancels.  A
    moment past float range (at ``beta_tilde`` near 0) is ``inf``, quietly:
    there the weight outside the projector is far past 1/2, which the
    analytic box bound refuses, and callers refuse results that are not finite.
    """
    (r0, c), (_, r1) = blocks
    total = np.zeros(blocks.shape[2])
    with np.errstate(over="ignore"):
        c2 = c * c
        for (i, j), coef in sorted(poly.items()):
            scale = coef * math.factorial(i) * math.factorial(j)
            for m in range(min(i, j) + 1):
                pair = r0 ** (i - m) * r1 ** (j - m) + r1 ** (i - m) * r0 ** (j - m)
                total += scale * math.comb(i, m) * math.comb(j, m) * pair * c2**m
    return total


def expectation_I_position(spec, two_s: int, beta_tilde: float) -> float:
    """Quartic correction ``<I>`` in position space (extensive, not per site).

    Per unordered bond, Wick contraction of the quartic term gives
    ``((rho_xx + rho_yy) rho_xy - rho_xx rho_yy - rho_xy^2) / S``.
    """
    s = spin(two_s)
    (rxx, rxy), (_, ryy) = _bond_blocks(spec, beta_tilde)
    return float(np.sum((rxx + ryy) * rxy - rxx * ryy - rxy**2)) / s


def _interaction_monomials(x: int, y: int):
    """The five ladder monomials of the quartic term on one bond, with signs."""
    return [
        (1.0, [(x, True), (x, True), (x, False), (y, False)]),
        (1.0, [(x, True), (y, True), (y, False), (y, False)]),
        (1.0, [(y, True), (x, True), (x, False), (x, False)]),
        (1.0, [(y, True), (y, True), (y, False), (x, False)]),
        (-4.0, [(x, True), (y, True), (x, False), (y, False)]),
    ]


def expectation_I_monomials(spec, two_s: int, beta_tilde: float) -> float:
    """``<I>`` summed monomial by monomial through the generic pairing engine.

    An independent route to ``expectation_I_position``, used by
    ``wick-verify`` and the tests.
    """
    s = spin(two_s)
    blocks = _bond_blocks(spec, beta_tilde)
    per_bond = sum(
        coef * wick_expectation(mono, blocks) for coef, mono in _interaction_monomials(0, 1)
    )
    return float(np.sum(per_bond)) / (4.0 * s)


def projector_deficit(spec, beta_tilde: float, two_s: int) -> float:
    """Wick-side bound on the weight outside the low-occupation subspace.

    Union bound over sites with the exact geometric per-site tail at the
    occupation ``rho(x, x)``; see ``dispersion.occupation_tail_bound``.
    """
    spin(two_s)
    occ = dispersion.two_point_diagonal(spec, beta_tilde)
    return float(np.sum(dispersion.occupation_tail_bound(occ, two_s)))


def hop_squared_moments(spec, beta_tilde: float) -> float:
    """Bound on ``<P A^2 P>`` for the pure hopping sum ``A = sum over ordered pairs a*_x a_y``.

    The term-count Cauchy-Schwarz inequality gives
    ``M * sum over ordered pairs <(n_x + 1) n_y>`` with ``M`` the number of
    ordered pairs; ``(n_x + 1) n_y = n_x n_y + n_y``.
    """
    blocks = _bond_blocks(spec, beta_tilde)
    per_bond = _moments(blocks, {(1, 1): 1, (0, 1): 1})
    return 2 * blocks.shape[2] * float(np.sum(per_bond))


def interaction_squared_bound(spec, two_s: int, beta_tilde: float) -> float:
    """Upper bound for both ``<I^2>`` and ``<P I^2 P>``.

    Splits ``S*I`` into a dressed hop ``V`` and a diagonal part ``D`` and
    applies the term-count Cauchy-Schwarz inequality to each; the per-term
    operators reduce to nonnegative diagonal occupation polynomials, which is
    also why the same number dominates the projected moment.
    """
    s = spin(two_s)
    blocks = _bond_blocks(spec, beta_tilde)
    n_bonds = blocks.shape[2]
    # V-part: per ordered pair a*_x ((n_x + n_y)/4) a_y; its square reduces to
    # (n_x + n_y - 1)^2 (n_x + 1) n_y / 16, counted 2 n_bonds times
    v_part = {(3, 1): 1, (2, 2): 2, (1, 3): 1, (2, 1): 4, (1, 2): 5, (1, 1): 2, (0, 3): 1,
              (0, 2): 1}
    # D-part: per bond n_x n_y / 2, squared n_x^2 n_y^2 / 4 = 1/8 per order,
    # counted n_bonds times
    d_part = {(2, 2): 1, (2, 1): 1, (1, 2): 1, (1, 1): 1}
    both = _moments(blocks, v_part) + _moments(blocks, d_part)
    return n_bonds * float(np.sum(both)) / (4.0 * s * s)


@dataclass(frozen=True)
class CrossTermBound:
    """Ingredients of the projector cross-term estimate (all extensive).

    ``i2_bound`` bounds both ``<I^2>`` and ``<P I^2 P>``.
    """

    one_minus_p: float
    t2_exact: float
    i2_bound: float
    pt2p_bound: float
    value: float


def _squared(x: float, quantity: str, beta_tilde: float) -> float:
    try:
        return x**2
    except OverflowError:
        raise overflow(f"the square of {quantity}", beta_tilde) from None


def cross_term_bound(spec, two_s: int, beta_tilde: float) -> CrossTermBound:
    """Rigorous bound on the three projector cross terms of the box estimate.

    ``value`` dominates ``|<(T+I)(1-P)>| + |<(1-P)(T+I)P>| + |<T(1-P)>|`` in
    the quasi-free Gibbs state, by Cauchy-Schwarz with the second-moment
    bounds assembled here (``T`` the Dirichlet kinetic form, ``I`` the
    quartic correction, ``P`` the low-occupation projector).  ``t2_exact``
    is ``<T^2>`` from the mode sums ``(sum eps f)^2 + sum eps^2 f (1+f)``.
    """
    w = projector_deficit(spec, beta_tilde, two_s)
    eps, f = dispersion._dirichlet_spectrum(spec, beta_tilde)
    energy2 = _squared(float(np.sum(eps * f)), "the thermal energy sum(eps f)", beta_tilde)
    number2 = _squared(float(np.sum(f)), "the boson number sum(f)", beta_tilde)
    t2 = energy2 + float(np.sum(eps * eps * f * (1.0 + f)))
    i2 = interaction_squared_bound(spec, two_s, beta_tilde)
    hop_proj = hop_squared_moments(spec, beta_tilde)
    # (T^D)^2 <= 2 A^2 + 2 N^2 with N = 2d * total number (degree plus frozen
    # multiplicity is 2d on every site)
    n2 = number2 + float(np.sum(f * (1.0 + f)))
    pt2p = 2.0 * hop_proj + 2.0 * (2.0 * spec.d) ** 2 * n2
    value = np.sqrt(w) * (
        np.sqrt(2.0 * t2 + 2.0 * i2) + np.sqrt(2.0 * pt2p + 2.0 * i2) + np.sqrt(t2)
    )
    return CrossTermBound(w, t2, i2, pt2p, float(value))


def remainder_bound(spec, two_s: int, beta_tilde: float) -> float:
    """Extensive Wick bound dominating ``|<R>_P| / N_P``.

    ``R`` is the square-root remainder beyond the quartic term.  Its dressed
    hopping kernel is sandwiched between nonnegative diagonal occupation
    polynomials, giving per ordered pair
    ``(< n_x (n_x - 1)^2 > + < n_x n_y^2 >) / (8 S^2)``; the projector then
    drops at the price of the (caller-supplied) trace-ratio factor.
    """
    s = spin(two_s)
    # n_x (n_x - 1)^2 + n_x n_y^2 in falling factorials
    poly = {(3, 0): 1, (2, 0): 1, (1, 2): 1, (1, 1): 1}
    per_bond = _moments(_bond_blocks(spec, beta_tilde), poly)
    return float(np.sum(per_bond)) / (8.0 * s * s)


def _cross_term_observables(sb, two_s):
    """``(T+I)(1-P)``, ``(1-P)(T+I)P`` and ``T(1-P)``, ``T`` the traced Dirichlet form."""
    td = fock.kinetic_dirichlet(sb)
    a = td + fock.quartic(sb, two_s)
    p = fock.projector_mask(sb, two_s).astype(np.float64)
    return [a * (1.0 - p), (1.0 - p)[:, None] * a * p, td * (1.0 - p)]


def _remainder_observables(sb, two_s):
    """``R``, zero outside the rows with occupations <= ``2S``, and ``P``."""
    return [fock.remainder(sb, two_s), fock.projector_mask(sb, two_s).astype(np.float64)]


def cross_term_check(spec, two_s: int, beta_tilde: float, n_max: int):
    """Brute-force lhs vs composed rhs for the projector cross terms.

    lhs evaluates ``|<(T+I)(1-P)>| + |<(1-P)(T+I)P>| + |<T(1-P)>|`` in the
    capped boson Gibbs state of the Dirichlet kinetic form; rhs is
    ``cross_term_bound(...).value``.  The inequality lhs <= rhs is exact, up
    to the per-site cap of the oracle (tests shrink it).  ``P`` is diagonal,
    so every observable is block diagonal in the total-number sectors.
    """
    spin(two_s)
    fock._check_dense_space(spec, n_max)
    vals, _ = fock.gibbs_expectation_truncated(
        spec, n_max, beta_tilde, (_cross_term_observables, two_s)
    )
    lhs = abs(vals[0]) + abs(vals[1]) + abs(vals[2])
    rhs = cross_term_bound(spec, two_s, beta_tilde).value
    return lhs, rhs


def remainder_check(spec, two_s: int, beta_tilde: float, n_max: int):
    """Brute-force ``|<R>_P|`` vs its Wick bound times the exact trace ratio.

    ``R`` only exists on the low-occupation subspace, so in each
    total-number sector of the capped space on which the Gibbs weight is
    computed, its matrix fills the rows and columns with every occupation
    at most ``2S`` (``fock.remainder``) and is zero elsewhere.
    """
    spin(two_s)
    if n_max < two_s:
        raise ValidationError("oracle cap must be at least 2S")
    fock._check_dense_space(spec, n_max)
    (r_mean, p_mean), _ = fock.gibbs_expectation_truncated(
        spec, n_max, beta_tilde, (_remainder_observables, two_s)
    )
    lhs = abs(r_mean) / p_mean
    n_p_exact = 1.0 / p_mean
    rhs = n_p_exact * remainder_bound(spec, two_s, beta_tilde)
    return lhs, rhs
