"""Full-space dense oracles for the sector-blocked Gibbs engine.

The package takes every thermal trace sector by sector in the conserved
total boson number (``fock.gibbs_expectation_truncated``).  The helpers here
take the same traces on the whole capped space, one dense eigendecomposition
each: the Gibbs functionals, the spin free energy, the exact box bound and
the two Wick brute-force checks, in the form they had before the sector
engine.  Tests compare the two routes.
"""

import numpy as np

from magnon import fock, linalg, spinwave, wick
from magnon._errors import ValidationError


def gibbs_log_trace(h: np.ndarray, beta: float) -> float:
    """``log tr e^{-beta*h}``, overflow-safe via spectral shift."""
    if not beta > 0.0:
        raise ValidationError("beta must be positive")
    w, _ = linalg.eigh(h)
    w0 = float(w[0])
    return -beta * w0 + float(np.log(np.sum(np.exp(-beta * (w - w0)))))


def gibbs_expectation(h: np.ndarray, beta: float, obs) -> float:
    """Thermal expectation ``tr(A e^{-beta*h}) / tr(e^{-beta*h})``.

    ``obs`` may be a single square matrix or a sequence of them (symmetry is
    not required of observables); the eigendecomposition of ``h`` is done
    once either way.
    """
    if not beta > 0.0:
        raise ValidationError("beta must be positive")
    w, v = linalg.eigh(h)
    p = np.exp(-beta * (w - w[0]))
    p /= p.sum()
    single = isinstance(obs, np.ndarray)
    mats = [obs] if single else list(obs)
    out = []
    for a in mats:
        a = np.asarray(a, dtype=np.float64)
        if a.shape != (w.size, w.size) or not np.isfinite(a).all():
            raise ValidationError("observable must be square, finite, same dim as h")
        diag = np.einsum("ij,ji->i", v.T @ a, v)
        out.append(float(np.dot(p, diag)))
    return out[0] if single else out


def gibbs_density(h: np.ndarray, beta: float) -> np.ndarray:
    """Normalized Gibbs state ``e^{-beta*h} / tr e^{-beta*h}`` as a matrix."""
    if not beta > 0.0:
        raise ValidationError("beta must be positive")
    w, v = linalg.eigh(h)
    p = np.exp(-beta * (w - w[0]))
    p /= p.sum()
    return (v * p) @ v.T


def gibbs_functional(h: np.ndarray, beta: float, gamma: np.ndarray) -> float:
    """Free-energy functional ``tr(h @ gamma) + (1/beta) tr(gamma log gamma)``.

    ``gamma`` must be a state: symmetric, positive semidefinite, unit trace
    (checked to 1e-10).  Zero eigenvalues contribute no entropy.  The Gibbs
    state minimizes this functional, with minimum ``-log tr e^{-beta h}/beta``.
    """
    if not beta > 0.0:
        raise ValidationError("beta must be positive")
    h = linalg._check_symmetric(h)
    gamma = linalg._check_symmetric(gamma, "state")
    tr = float(np.trace(gamma))
    if abs(tr - 1.0) > 1e-10:
        raise ValidationError(f"state must have unit trace, got {tr!r}")
    lam, _ = np.linalg.eigh(gamma)
    if lam[0] < -1e-10:
        raise ValidationError(f"state has negative eigenvalue {lam[0]:.3e}")
    lam = np.clip(lam, 0.0, None)
    nz = lam > 0.0
    entropy_term = float(np.sum(lam[nz] * np.log(lam[nz])))
    energy = float(np.einsum("ij,ji->", h, gamma))
    return energy + entropy_term / beta


def exact_free_energy(h: np.ndarray, beta: float, n_sites: int) -> float:
    """Free energy per site ``-log tr e^{-beta h} / (beta n_sites)``."""
    return -gibbs_log_trace(h, beta) / (beta * n_sites)


def box_bound_exact(spec, two_s: int, beta_tilde: float) -> spinwave.BoundReport:
    """The exact box bound from the full capped basis at ``n_max = 2S``."""
    basis = fock.FockBasis(spec, two_s)
    terms = fock.expansion_terms(basis, two_s)
    td = terms.kinetic_dirichlet
    vol = spec.n_sites
    log_zp = gibbs_log_trace(td, beta_tilde)
    gamma = gibbs_density(td, beta_tilde)
    lead = -log_zp / (beta_tilde * vol)
    corr_raw = float(np.einsum("ij,ji->", terms.quartic, gamma)) / vol
    rem_raw = float(np.einsum("ij,ji->", terms.remainder_after_quartic, gamma)) / vol
    info = {
        "raw_correction": corr_raw,
        "raw_remainder": rem_raw,
        "basis_dim": basis.dim,
    }
    return spinwave._report_from_pieces(
        spec, two_s, beta_tilde, "exact", lead, corr_raw, {None: rem_raw}, True, info=info
    )


def cross_term_check(spec, two_s: int, beta_tilde: float, n_max: int):
    """``wick.cross_term_check`` with one eigendecomposition of the full capped space."""
    basis = fock.FockBasis(spec, n_max)
    td = fock.kinetic_dirichlet(basis)
    quart = fock.quartic(basis, two_s)
    p = fock.projector_P(basis, two_s)
    one = np.eye(basis.dim)
    a = td + quart
    obs = [a @ (one - p), (one - p) @ a @ p, td @ (one - p)]
    vals = gibbs_expectation(td, beta_tilde, obs)
    lhs = abs(vals[0]) + abs(vals[1]) + abs(vals[2])
    rhs = wick.cross_term_bound(spec, two_s, beta_tilde).value
    return lhs, rhs


def remainder_check(spec, two_s: int, beta_tilde: float, n_max: int):
    """``wick.remainder_check`` with ``R`` embedded into the full capped space."""
    small = fock.FockBasis(spec, two_s)
    r_small = fock.expansion_terms(small, two_s).remainder_after_quartic
    big = fock.FockBasis(spec, n_max)
    idx = big._locate(small.occupations)
    r_big = np.zeros((big.dim, big.dim))
    r_big[np.ix_(idx, idx)] = r_small
    td = fock.kinetic_dirichlet(big)
    pmask = fock.projector_mask(big, two_s).astype(np.float64)
    w, v = linalg.eigh(td)
    boltz = np.exp(-beta_tilde * w)
    gibbs = (v * boltz) @ v.T
    z = float(boltz.sum())
    zp = float(np.dot(pmask, np.diag(gibbs)))
    lhs = abs(float(np.einsum("ij,ji->", r_big, gibbs))) / zp
    n_p_exact = z / zp
    rhs = n_p_exact * wick.remainder_bound(spec, two_s, beta_tilde)
    return lhs, rhs
