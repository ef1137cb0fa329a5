"""Spin-wave free-energy upper bounds: box-level and thermodynamic.

The object bounded is ``f/S``, the free energy per site and per spin of the
ferromagnet at inverse temperature ``beta_tilde / S``.  Every report carries
the same decomposition::

    total_upper_bound = leading + correction + error_terms.total

with ``correction <= 0`` and every error component ``>= 0``.  The raw
lattice correction need not be negative: on d=1 Dirichlet chains it is
positive (``+4.43e-3/S`` on the chain of 3 at ``beta_tilde = 1``), and the
report moves a positive raw correction into ``variational_rest``.

Three modes produce reports.

``exact``      Variational bound on a Dirichlet box small enough for dense
               diagonalization: the Gibbs state of the compressed kinetic
               form on the low-occupation space is fed through the exact
               splitting ``H/S = T + I + R``, so the bound holds with no
               analytic inequality at all.  Every piece conserves the total
               boson number, so the traces are sector-blocked.

``analytic``   The rigorous chain at any box size: quasi-free reference
               state, Cauchy-Schwarz cross terms, square-root remainder
               bound, and two-sided trace-ratio control.  Requires the
               outside-projector weight to be below 1/2.  Every Wick
               estimate reads the two-point function on sites and bonds
               only, so the cost is ``O(d^2 ell^{d+1})`` plus the
               Brillouin-zone quadrature, with no cap on the box.

``asymptotic`` The thermodynamic-limit statement at box side
               ``round(beta^d S^2)``, with the dimension-dependent
               higher-order remainder supplied as an explicit budget entry.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import dispersion, fock, lattice, quadrature, wick
from ._errors import (
    CapacityError,
    HypothesisError,
    ValidationError,
    integer,
    inverse_temperature,
    overflow,
    spin,
)

__all__ = [
    "ErrorBudget",
    "BoundReport",
    "quartic_sine_sums",
    "quartic_sine_closed_forms",
    "free_energy_leading_discrete",
    "interaction_correction_lattice",
    "interaction_correction_bulk",
    "interaction_correction_continuum",
    "dirichlet_box_bound",
    "theorem_upper_bound",
]


@dataclass(frozen=True)
class ErrorBudget:
    """Nonnegative named error contributions, in units of ``f/S``."""

    components: dict

    def __post_init__(self):
        clean = {}
        for name, value in self.components.items():
            v = float(value)
            if v < -1e-12 or not np.isfinite(v):
                raise ValidationError(f"error component {name} = {v} must be nonnegative")
            clean[str(name)] = max(0.0, v)
        object.__setattr__(self, "components", clean)

    @property
    def total(self) -> float:
        return float(sum(self.components[k] for k in sorted(self.components)))


@dataclass(frozen=True)
class BoundReport:
    """An upper bound on ``f/S`` with its decomposition.

    The box routes (``mode`` ``"exact"`` or ``"analytic"``) bound the box's
    ``f/S``.  The asymptotic report (``mode="asymptotic"``) is not certified:
    its ``higher_order`` entry rests on the assumed ``remainder_constant``
    (1.0 by default), and its ``quadrature`` entry is the difference between
    a coarse and a finer mesh, an estimate rather than a bound.
    """

    d: int
    two_s: int
    beta_tilde: float
    ell: int
    boundary: str
    mode: str
    leading: float
    correction: float
    error_terms: ErrorBudget
    total_upper_bound: float
    hypothesis_ok: bool
    warnings: tuple = ()
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.correction > 1e-12:
            raise ValidationError(f"correction must be <= 0, got {self.correction}")
        recon = self.leading + self.correction + self.error_terms.total
        scale = max(1.0, abs(self.total_upper_bound))
        if abs(recon - self.total_upper_bound) > 1e-9 * scale:
            raise ValidationError("report pieces do not sum to the stated total")

    def as_dict(self) -> dict:
        out = asdict(self)
        out["error_terms"]["total"] = self.error_terms.total
        return out


def _grid_momentum_label(ell: int, k: float) -> int:
    m = k * (ell + 1) / math.pi
    r = round(m)
    if abs(m - r) > 1e-9 or not 1 <= r <= ell:
        raise ValidationError(f"momentum {k} is not on the sine grid of ell={ell}")
    return int(r)


def quartic_sine_sums(ell: int, k: float, kp: float):
    """Direct lattice sums of the four quartic sine-cosine products.

    Returns ``(s2s2, s2c2, scsc, mixed)`` where, with ``a = x*k`` and
    ``b = x*kp`` summed over ``x = 1..ell``::

        s2s2  = sum sin^2 a sin^2 b      s2c2 = sum sin^2 a cos^2 b
        scsc  = sum sin a cos a sin b cos b
        mixed = sum sin^2 a sin b cos b

    Computed by direct summation; the closed forms live in
    ``quartic_sine_closed_forms``.
    """
    _grid_momentum_label(ell, k)
    _grid_momentum_label(ell, kp)
    x = np.arange(1, ell + 1, dtype=np.float64)
    sa, ca = np.sin(x * k), np.cos(x * k)
    sb, cb = np.sin(x * kp), np.cos(x * kp)
    return (
        float(np.sum(sa * sa * sb * sb)),
        float(np.sum(sa * sa * cb * cb)),
        float(np.sum(sa * ca * sb * cb)),
        float(np.sum(sa * sa * sb * cb)),
    )


def quartic_sine_closed_forms(ell: int, k: float, kp: float):
    """Exact values of the four quartic sums on the sine grid.

    Only two resonances matter: equal momenta and momenta summing to pi.
    """
    m = _grid_momentum_label(ell, k)
    mp = _grid_momentum_label(ell, kp)
    d_eq = 1.0 if m == mp else 0.0
    d_pi = 1.0 if m + mp == ell + 1 else 0.0
    quarter = (ell + 1) / 4.0
    return (
        quarter * (1.0 + 0.5 * (d_eq + d_pi)),
        quarter * (1.0 - 0.5 * (d_eq + d_pi)),
        0.5 * quarter * (d_eq - d_pi),
        0.0,
    )


def free_energy_leading_discrete(spec: lattice.LatticeSpec, beta_tilde: float) -> float:
    """Free boson free energy per site ``(1/(beta ell^d)) sum_k log(1 - e^{-beta eps})``."""
    eps, _ = dispersion._dirichlet_spectrum(spec, beta_tilde)
    return float(np.sum(np.log(-np.expm1(-beta_tilde * eps)))) / (beta_tilde * spec.n_sites)


def _axis_tables(ell: int):
    """Per-axis mode-pair tables of the quartic correction's sine sums.

    Indices are 0-based mode labels; ``c`` is the cosine of the grid momenta.
    ``G`` collects the normalized spectator-axis sums, ``comb`` the active
    axis combination; resonances sit on the diagonal and antidiagonal.
    """
    c = np.cos(np.pi * np.arange(1, ell + 1) / (ell + 1))
    eye = np.eye(ell)
    anti = np.fliplr(eye)
    g = 0.5 + 0.25 * (eye + anti)
    comb = 0.5 * (2.0 * c[None, :] - c[:, None] * c[None, :] - 1.0)
    comb = comb + eye * (0.5 * (c - c**2))[:, None]
    comb = comb + anti * (-0.5 * (c**2 + c - 1.0))[:, None]
    return g, comb


def interaction_correction_lattice(
    spec: lattice.LatticeSpec, two_s: int, beta_tilde: float
) -> float:
    """Exact quartic correction per site ``<I> / ell^d`` in mode space.

    The double mode sum factorizes over axes into the tables of
    ``_axis_tables``, contracted against the Bose occupations; cost is
    ``O(d^2 ell^{d+1})`` instead of ``O(ell^{2d})``.  Agrees with the
    position-space Wick form to rounding error.  Past float range (at
    ``beta_tilde`` near 0) the sums overflow quietly and the value is not
    finite, which callers refuse.
    """
    if spec.boundary is not lattice.Boundary.DIRICHLET:
        raise ValidationError("the lattice correction is defined on Dirichlet boxes")
    ell, d = spec.ell, spec.d
    s = spin(two_s)
    _, f = dispersion._dirichlet_spectrum(spec, beta_tilde)
    f_t = f.reshape((ell,) * d)
    g, comb = _axis_tables(ell)
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for active in range(d):
            axes = [comb if axis == active else g for axis in range(d)]
            total += float(np.sum(f_t * dispersion._contract_axes(f_t, axes)))
    value = (1.0 / s) * (2.0 / (ell + 1)) ** d * total
    return value / spec.n_sites


def interaction_correction_bulk(
    spec: lattice.LatticeSpec, two_s: int, beta_tilde: float
) -> float:
    """Leading bulk part of the quartic correction per site.

    ``-(d/S) * ((ell+1)^{-d} sum_k f(k) (1 - cos k_1))^2``; keeps only the
    nonresonant part of the mode sums, which dominates for d in {2, 3}.
    """
    if spec.d == 1:
        raise ValidationError("the bulk form of the correction needs d in {2, 3}")
    s = spin(two_s)
    _, f = dispersion._dirichlet_spectrum(spec, beta_tilde)
    k1 = lattice.dirichlet_modes(spec)[:, 0]
    m1 = float(np.sum(f * (1.0 - np.cos(k1)))) / (spec.ell + 1) ** spec.d
    return -(spec.d / s) * m1 * m1


def interaction_correction_continuum(d: int, two_s: int, beta_tilde: float) -> float:
    """Thermodynamic limit of the quartic correction per site.

    ``-(1/(4 d S)) * (integral eps f dk/(2pi)^d)^2``.
    """
    integer(d, "the continuum correction needs d in {2, 3}", 2, 3)
    s = spin(two_s)
    c = quadrature.correction_integral(d, beta_tilde).value
    return -c * c / (4.0 * d * s)


def _report_from_pieces(
    spec, two_s, beta_tilde, mode, leading, raw_correction, budget, hypothesis_ok,
    warnings=(), info=None, rest=0.0,
):
    """Assemble a BoundReport honoring correction <= 0 and budget >= 0.

    ``rest`` is a signed catch-all: a positive rest becomes a named
    component, a negative rest is absorbed into the correction (keeping the
    stated total exact in both cases).
    """
    info = dict(info or {})
    correction = min(0.0, raw_correction)
    signed_rest = rest + max(0.0, raw_correction)
    if signed_rest >= 0.0:
        if signed_rest > 0.0:
            budget["variational_rest"] = budget.get("variational_rest", 0.0) + signed_rest
    else:
        correction += signed_rest
    err = ErrorBudget(budget)
    total = leading + correction + err.total
    return BoundReport(
        d=spec.d,
        two_s=two_s,
        beta_tilde=float(beta_tilde),
        ell=spec.ell,
        boundary=spec.boundary.value,
        mode=mode,
        leading=float(leading),
        correction=float(correction),
        error_terms=err,
        total_upper_bound=float(total),
        hypothesis_ok=hypothesis_ok,
        warnings=tuple(warnings),
        info=info,
    )


def _exact_observables(sb, two_s):
    """The quartic correction and the remainder beyond it on one sector."""
    return [fock.quartic(sb, two_s), fock.remainder(sb, two_s)]


def _box_bound_exact(spec, two_s, beta_tilde) -> BoundReport:
    dim = fock._check_dense_space(spec, two_s)
    (quart, rem), log_zp = fock.gibbs_expectation_truncated(
        spec, two_s, beta_tilde, (_exact_observables, two_s)
    )
    vol = spec.n_sites
    lead = -log_zp / (beta_tilde * vol)
    corr_raw = quart / vol
    rem_raw = rem / vol
    info = {
        "raw_correction": corr_raw,
        "raw_remainder": rem_raw,
        "basis_dim": dim,
    }
    return _report_from_pieces(
        spec, two_s, beta_tilde, "exact", lead, corr_raw, {}, True, info=info, rest=rem_raw
    )


def _box_bound_analytic(spec, two_s, beta_tilde) -> BoundReport:
    vol = spec.n_sites
    ctb = wick.cross_term_bound(spec, two_s, beta_tilde)
    w = ctb.one_minus_p
    if not w <= 0.5:  # NaN too
        raise HypothesisError(
            f"outside-projector weight bound {w:.3e} exceeds 1/2; "
            "the analytic chain does not apply at this size and temperature"
        )
    n_p_upper = 1.0 + 2.0 * w
    disc = free_energy_leading_discrete(spec, beta_tilde)
    cont = quadrature.leading_free_energy(spec.d, beta_tilde)
    i_bar = interaction_correction_lattice(spec, two_s, beta_tilde)
    rem = wick.remainder_bound(spec, two_s, beta_tilde)
    budget = {
        "finite_size_leading": max(0.0, disc - cont.value),
        "projector_cross": n_p_upper * ctb.value / vol,
        "sqrt_remainder": n_p_upper * rem / vol,
        "projector_entropy": math.log(n_p_upper) / (beta_tilde * vol),
        "quadrature": cont.error_estimate,
    }
    raw_corr = i_bar if i_bar <= 0.0 else n_p_upper * i_bar
    info = {
        "one_minus_p": w,
        "n_p_upper": n_p_upper,
        "leading_discrete": disc,
        "correction_lattice": i_bar,
        "cross_term_value": ctb.value,
        "remainder_wick": rem,
    }
    return _report_from_pieces(
        spec, two_s, beta_tilde, "analytic", cont.value, raw_corr, budget, True, info=info
    )


def dirichlet_box_bound(
    spec: lattice.LatticeSpec,
    two_s: int,
    beta_tilde: float,
    projector_stats: str = "auto",
) -> BoundReport:
    """Certified upper bound on ``f/S`` for one Dirichlet box.

    ``projector_stats`` picks the route: ``"exact"`` (dense variational,
    needs ``(2S+1)^{ell^d}`` within the dense cap), ``"analytic"`` (the
    rigorous chain at any box size, ``O(d^2 ell^{d+1})`` plus quadrature;
    raises when the low-occupation hypothesis fails), or ``"auto"`` (exact
    when it fits, else analytic).
    """
    if spec.boundary is not lattice.Boundary.DIRICHLET:
        raise ValidationError("box bounds are defined for Dirichlet boxes")
    inverse_temperature(beta_tilde)
    spin(two_s)
    if projector_stats not in ("auto", "exact", "analytic"):
        raise ValidationError(f"unknown projector_stats {projector_stats!r}")
    if projector_stats == "auto":
        try:
            fock._check_dense_space(spec, two_s)
            projector_stats = "exact"
        except CapacityError:
            projector_stats = "analytic"
    if projector_stats == "exact":
        return _box_bound_exact(spec, two_s, beta_tilde)
    return _box_bound_analytic(spec, two_s, beta_tilde)


def theorem_upper_bound(
    d: int,
    two_s: int,
    beta_tilde: float,
    remainder_constant: float = 1.0,
    preset: Optional[str] = None,
) -> BoundReport:
    """Thermodynamic-limit upper bound on ``f/S`` at large spin.

    The box side is tied to the parameters (``ell = round(beta^d S^2)``, or
    ``round(S^2)`` under ``preset="small-beta"``), the leading and correction
    terms are Brillouin-zone integrals, and the higher-order remainder enters
    as ``remainder_constant * beta^{-d} log(S beta)^{3(3-d)} / S^2``.  The
    report is asymptotic, not certified: ``remainder_constant`` (1.0 by
    default) is assumed, not proved, and the ``quadrature`` entry is a
    mesh-difference estimate of the leading integral's error.  When the
    low-occupation hypothesis fails at these parameters the report is still
    produced, flagged with ``hypothesis_ok=False``.
    """
    integer(d, "the asymptotic bound covers d in {2, 3}", 2, 3)
    if preset not in (None, "small-beta"):
        raise ValidationError(f"unknown preset {preset!r}")
    if preset == "small-beta" and d != 3:
        raise ValidationError("the small-beta preset is a d=3 statement")
    inverse_temperature(beta_tilde)
    s = spin(two_s)
    if not remainder_constant >= 0.0:
        raise ValidationError("remainder_constant must be nonnegative")
    warn = []
    try:
        ell_raw = s * s if preset == "small-beta" else beta_tilde**d * s * s
        ell = int(round(ell_raw))
    except OverflowError:
        raise overflow(f"the matched box side beta_tilde**{d} * S**2", beta_tilde) from None
    if ell < 2:
        ell = 2
        warn.append(f"matched box side {ell_raw:.3g} below 2; clamped to 2")
    hypothesis_ok = True
    w_formula = None
    try:
        rho_bar = (
            dispersion.rho_small_beta_bound(beta_tilde)
            if preset == "small-beta"
            else None
        )
        w_formula = dispersion.one_minus_p_bound(d, beta_tilde, ell, two_s, rho_bound=rho_bar)
        if w_formula > 0.5:
            hypothesis_ok = False
            warn.append(
                f"closed-form outside-projector weight {w_formula:.3e} exceeds 1/2"
            )
    except HypothesisError as exc:
        hypothesis_ok = False
        warn.append(str(exc))
    lead = quadrature.leading_free_energy(d, beta_tilde)
    corr = interaction_correction_continuum(d, two_s, beta_tilde)
    log_factor = max(0.0, math.log(s * beta_tilde))
    try:
        r_d = remainder_constant * beta_tilde**-d * log_factor ** (3 * (3 - d)) / (s * s)
    except OverflowError:
        raise overflow(f"the remainder's beta_tilde**-{d}", beta_tilde) from None
    budget = {"higher_order": r_d, "quadrature": lead.error_estimate}
    spec = lattice.LatticeSpec(d, ell, lattice.Boundary.DIRICHLET)
    info = {
        "matched_ell": ell_raw,
        "remainder_constant": remainder_constant,
        "preset": preset or "standard",
    }
    if w_formula is not None and math.isfinite(w_formula):
        info["one_minus_p_formula"] = w_formula
    return _report_from_pieces(
        spec, two_s, beta_tilde, "asymptotic", lead.value, corr, budget,
        hypothesis_ok, warnings=warn, info=info,
    )
