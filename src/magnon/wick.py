"""Wick's theorem on the quasi-free reference state, and bounds built from it.

A monomial is a sequence of ladder operators ``(site, is_creator)`` in left to
right operator order.  In a particle-number-conserving quasi-free state every
expectation reduces to a sum over pairings of creators with annihilators: a
creator left of its annihilator contributes ``rho(x, y)``, an annihilator
left of its creator contributes ``delta_{xy} + rho(x, y)``.

On top of the raw pairing engine this module provides the closed-form quartic
correction in position space, exponential occupation moments, and the
composed Cauchy-Schwarz bounds (hopping squared, interaction squared,
projector cross terms, square-root remainder) that the rigorous box bound
assembles.  Each bound is paired with a brute-force check against the capped
boson oracle on small boxes.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from . import dispersion, fock, lattice
from ._errors import ValidationError

__all__ = [
    "wick_expectation",
    "number_monomial",
    "occupation_moment",
    "expectation_I_position",
    "expectation_I_monomials",
    "expectation_exp_lambda_n",
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


def wick_expectation(monomial, table) -> float:
    """Quasi-free expectation of a ladder monomial via pairings.

    ``monomial`` is a sequence of ``(site_index, is_creator)`` in operator
    order; ``table`` is a two-point table or a dense symmetric matrix
    ``rho[x, y]``.  Monomials with unequal creator and annihilator counts
    have zero expectation; that case is flagged with a warning since it
    usually indicates a typo in the caller.
    """
    rho = table.values if hasattr(table, "values") else np.asarray(table, dtype=np.float64)
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
            val = rho[asite, csite]
            if apos < cpos and asite == csite:
                val += 1.0
            prod *= val
            if prod == 0.0:
                break
        total += prod
    return total


def number_monomial(site: int, power: int = 1):
    """Ladder sequence for ``n_site^power``."""
    return [(site, True), (site, False)] * power


def occupation_moment(table, powers: dict) -> float:
    """Mixed occupation moment ``< prod_x n_x^{p_x} >`` via pairings."""
    mono = []
    for site in sorted(powers):
        mono.extend(number_monomial(site, powers[site]))
    return wick_expectation(mono, table)


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = (ka[0] + kb[0], ka[1] + kb[1])
            out[key] = out.get(key, 0.0) + va * vb
    return out


def _poly_expectation(table, x: int, y: int, poly: dict) -> float:
    """Expectation of a polynomial in ``(n_x, n_y)`` given as {(a, b): coef}."""
    total = 0.0
    for (a, b), coef in sorted(poly.items()):
        if coef == 0.0:
            continue
        total += coef * occupation_moment(table, {x: a, y: b} if x != y else {x: a + b})
    return total


def _table_for(spec, beta_tilde, table):
    return dispersion.two_point(spec, beta_tilde) if table is None else table


def expectation_I_position(spec, two_s: int, beta_tilde: float, table=None) -> float:
    """Quartic correction ``<I>`` in position space (extensive, not per site).

    Per unordered bond, Wick contraction of the quartic term gives
    ``((rho_xx + rho_yy) rho_xy - rho_xx rho_yy - rho_xy^2) / S``.
    """
    t = _table_for(spec, beta_tilde, table)
    rho = t.values
    s = two_s / 2.0
    total = 0.0
    for i, j in lattice.nn_pairs(spec):
        total += (rho[i, i] + rho[j, j]) * rho[i, j] - rho[i, i] * rho[j, j] - rho[i, j] ** 2
    return total / s


def _interaction_monomials(x: int, y: int):
    """The five ladder monomials of the quartic term on one bond, with signs."""
    return [
        (1.0, [(x, True), (x, True), (x, False), (y, False)]),
        (1.0, [(x, True), (y, True), (y, False), (y, False)]),
        (1.0, [(y, True), (x, True), (x, False), (x, False)]),
        (1.0, [(y, True), (y, True), (y, False), (x, False)]),
        (-4.0, [(x, True), (y, True), (x, False), (y, False)]),
    ]


def expectation_I_monomials(spec, two_s: int, beta_tilde: float, table=None) -> float:
    """``<I>`` summed monomial by monomial through the generic pairing engine.

    Slower than the closed form; used as an independent route in tests.
    """
    t = _table_for(spec, beta_tilde, table)
    s = two_s / 2.0
    total = 0.0
    for i, j in lattice.nn_pairs(spec):
        for coef, mono in _interaction_monomials(int(i), int(j)):
            total += coef * wick_expectation(mono, t)
    return total / (4.0 * s)


def expectation_exp_lambda_n(site: int, lam: float, table) -> float:
    """``< e^{lambda n_x} > = 1 / (1 - (e^lambda - 1) rho(x, x))``.

    Diverges when ``(e^lambda - 1) rho >= 1``; that case raises.
    """
    rho = table.values if hasattr(table, "values") else np.asarray(table)
    r = float(rho[site, site])
    g = float(np.expm1(lam))
    if g * r >= 1.0:
        raise ValidationError(
            f"exponential moment diverges: (e^lambda - 1) * rho = {g * r:.3f} >= 1"
        )
    return 1.0 / (1.0 - g * r)


def projector_deficit(spec, beta_tilde: float, two_s: int, form: str = "exact") -> float:
    """Wick-side bound on the weight outside the low-occupation subspace.

    Union bound over sites with the per-site tail at the exact occupation
    ``rho(x, x)``; see ``dispersion.occupation_tail_bound`` for the forms.
    """
    occ = dispersion.two_point_diagonal(spec, beta_tilde)
    return float(
        sum(dispersion.occupation_tail_bound(r, two_s, form=form) for r in np.sort(occ))
    )


def hop_squared_moments(spec, beta_tilde: float, table=None):
    """Second moment of the pure hopping sum ``A = sum over ordered pairs a*_x a_y``.

    Returns ``(exact, projected_bound)`` where ``exact = (tr A rho)^2 +
    tr((A rho)^2) + tr(A^2 rho)`` with ``A`` the adjacency matrix, and
    ``projected_bound`` dominates ``<P A^2 P>`` via the term-count
    Cauchy-Schwarz inequality ``M * sum over ordered pairs <(n_x + 1) n_y>``.
    """
    t = _table_for(spec, beta_tilde, table)
    rho = t.values
    n = spec.n_sites
    adj = np.zeros((n, n))
    for i, j in lattice.nn_pairs(spec):
        adj[i, j] = 1.0
        adj[j, i] = 1.0
    arho = adj @ rho
    exact = float(np.trace(arho)) ** 2 + float(np.sum(arho * arho.T)) + float(
        np.sum((adj @ adj) * rho.T)
    )
    m_terms = int(adj.sum())
    per_pair = 0.0
    for i, j in lattice.nn_pairs(spec):
        for x, y in ((i, j), (j, i)):
            per_pair += _poly_expectation(t, int(x), int(y), {(0, 1): 1.0, (1, 1): 1.0})
    return exact, m_terms * per_pair


def interaction_squared_bound(spec, two_s: int, beta_tilde: float, table=None) -> float:
    """Upper bound for both ``<I^2>`` and ``<P I^2 P>``.

    Splits ``S*I`` into a dressed hop ``V`` and a diagonal part ``D`` and
    applies the term-count Cauchy-Schwarz inequality to each; the per-term
    operators reduce to nonnegative diagonal occupation polynomials, which is
    also why the same number dominates the projected moment.
    """
    t = _table_for(spec, beta_tilde, table)
    s = two_s / 2.0
    pairs = lattice.nn_pairs(spec)
    n_bonds = len(pairs)
    # V-part: per ordered pair a*_x ((n_x + n_y)/4) a_y; its square reduces to
    # ((n_x + n_y - 1)^2 / 16) (n_x + 1) n_y
    base = {(1, 0): 1.0, (0, 1): 1.0, (0, 0): -1.0}
    poly_v = _poly_mul(_poly_mul(base, base), {(1, 0): 1.0, (0, 0): 1.0})
    poly_v = _poly_mul(poly_v, {(0, 1): 1.0})
    v_sum = 0.0
    for i, j in pairs:
        for x, y in ((i, j), (j, i)):
            v_sum += _poly_expectation(t, int(x), int(y), poly_v) / 16.0
    v_bound = 2 * n_bonds * v_sum
    # D-part: per unordered bond n_x n_y / 2
    d_sum = 0.0
    for i, j in pairs:
        d_sum += _poly_expectation(t, int(i), int(j), {(2, 2): 0.25})
    d_bound = n_bonds * d_sum
    return (2.0 / (s * s)) * (v_bound + d_bound)


@dataclass(frozen=True)
class CrossTermBound:
    """Ingredients of the projector cross-term estimate (all extensive)."""

    one_minus_p: float
    t2_exact: float
    i2_bound: float
    pt2p_bound: float
    pi2p_bound: float
    value: float


def _t_squared_modes(spec, beta_tilde: float):
    modes = lattice.dirichlet_modes(spec)
    eps = dispersion.epsilon(modes)
    f = dispersion.bose_from_energy(eps, beta_tilde)
    first = float(np.sum(eps * f))
    second = first**2 + float(np.sum(eps * eps * f * (1.0 + f)))
    return first, second


def cross_term_bound(spec, two_s: int, beta_tilde: float, table=None) -> CrossTermBound:
    """Rigorous bound on the three projector cross terms of the box estimate.

    ``value`` dominates ``|<(T+I)(1-P)>| + |<(1-P)(T+I)P>| + |<T(1-P)>|`` in
    the quasi-free Gibbs state, by Cauchy-Schwarz with the second-moment
    bounds assembled here (``T`` the Dirichlet kinetic form, ``I`` the
    quartic correction, ``P`` the low-occupation projector).
    """
    t = _table_for(spec, beta_tilde, table)
    w = projector_deficit(spec, beta_tilde, two_s)
    _, t2 = _t_squared_modes(spec, beta_tilde)
    i2 = interaction_squared_bound(spec, two_s, beta_tilde, table=t)
    _, hop_proj = hop_squared_moments(spec, beta_tilde, table=t)
    # (T^D)^2 <= 2 A^2 + 2 N^2 with N = 2d * total number (degree plus frozen
    # multiplicity is 2d on every site)
    modes = lattice.dirichlet_modes(spec)
    f = dispersion.bose_from_energy(dispersion.epsilon(modes), beta_tilde)
    n2 = float(np.sum(f)) ** 2 + float(np.sum(f * (1.0 + f)))
    pt2p = 2.0 * hop_proj + 2.0 * (2.0 * spec.d) ** 2 * n2
    value = np.sqrt(w) * (
        np.sqrt(2.0 * t2 + 2.0 * i2) + np.sqrt(2.0 * pt2p + 2.0 * i2) + np.sqrt(t2)
    )
    return CrossTermBound(w, t2, i2, pt2p, i2, float(value))


def remainder_bound(spec, two_s: int, beta_tilde: float, table=None) -> float:
    """Extensive Wick bound dominating ``|<R>_P| / N_P``.

    ``R`` is the square-root remainder beyond the quartic term.  Its dressed
    hopping kernel is sandwiched between nonnegative diagonal occupation
    polynomials, giving per ordered pair
    ``(< n_x (n_x - 1)^2 > + < n_x n_y^2 >) / (8 S^2)``; the projector then
    drops at the price of the (caller-supplied) trace-ratio factor.
    """
    t = _table_for(spec, beta_tilde, table)
    s = two_s / 2.0
    total = 0.0
    for i, j in lattice.nn_pairs(spec):
        for x, y in ((i, j), (j, i)):
            rho = t.values[x, x]
            total += 6.0 * rho**3 + 2.0 * rho**2  # < n (n-1)^2 >
            total += _poly_expectation(t, int(x), int(y), {(1, 2): 1.0})
    return total / (8.0 * s * s)


def _one_minus_p_oracle(spec, two_s: int, beta_tilde: float, n_max: int):
    (w,), _ = fock.gibbs_expectation_truncated(
        spec,
        n_max,
        beta_tilde,
        lambda sb, h: [1.0 - fock.projector_mask(sb, two_s).astype(np.float64)],
    )
    return w


def cross_term_check(spec, two_s: int, beta_tilde: float, n_max: int):
    """Brute-force lhs vs composed rhs for the projector cross terms.

    lhs evaluates ``|<(T+I)(1-P)>| + |<(1-P)(T+I)P>| + |<T(1-P)>|`` in the
    capped boson Gibbs state of the Dirichlet kinetic form; rhs is
    ``cross_term_bound(...).value``.  The inequality lhs <= rhs is exact, up
    to the per-site cap of the oracle (tests shrink it).  ``P`` is diagonal,
    so every observable is block diagonal in the total-number sectors.
    """
    fock._check_dense((n_max + 1) ** spec.n_sites)

    def observables(sb, td):
        a = td + fock.quartic(sb, two_s)
        p = fock.projector_mask(sb, two_s).astype(np.float64)
        return [a * (1.0 - p), (1.0 - p)[:, None] * a * p, td * (1.0 - p)]

    vals, _ = fock.gibbs_expectation_truncated(spec, n_max, beta_tilde, observables)
    lhs = abs(vals[0]) + abs(vals[1]) + abs(vals[2])
    rhs = cross_term_bound(spec, two_s, beta_tilde).value
    return lhs, rhs


def remainder_check(spec, two_s: int, beta_tilde: float, n_max: int):
    """Brute-force ``|<R>_P|`` vs its Wick bound times the exact trace ratio.

    ``R`` only exists on the low-occupation subspace, so in each
    total-number sector its matrix is built on the ``n_max = 2S`` sector and
    embedded into the larger capped sector on which the Gibbs weight is
    computed.
    """
    if n_max < two_s:
        raise ValidationError("oracle cap must be at least 2S")
    fock._check_dense((n_max + 1) ** spec.n_sites)

    def observables(sb, td):
        small = fock.SectorBasis(spec, two_s, sb.n_total)
        idx = sb._locate(small.occupations)
        r_big = np.zeros((sb.dim, sb.dim))
        r_big[np.ix_(idx, idx)] = fock.remainder_after_quartic(
            small, two_s, fock.kinetic(small), fock.quartic(small, two_s)
        )
        return [r_big, fock.projector_mask(sb, two_s).astype(np.float64)]

    (r_mean, p_mean), _ = fock.gibbs_expectation_truncated(
        spec, n_max, beta_tilde, observables
    )
    lhs = abs(r_mean) / p_mean
    n_p_exact = 1.0 / p_mean
    rhs = n_p_exact * remainder_bound(spec, two_s, beta_tilde)
    return lhs, rhs
