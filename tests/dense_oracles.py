"""Dense oracles for the sector-blocked Gibbs engine and the hop-table operators.

The package takes every thermal trace sector by sector in the conserved
total boson number (``fock.gibbs_expectation_truncated``).  The helpers here
take the same traces on the whole capped space, one dense eigendecomposition
each: the Gibbs functionals, the spin free energy, the exact box bound and
the two Wick brute-force checks, in the form they had before the sector
engine.  ``thermal_pass`` weighs a trace's spectra sector by sector, the
reference for the package's thermal pass.  The package sums over the whole
trace at once and so rounds apart from it; ``thermal_pass_error_ratio``
measures the two against the summation error bound instead of their bits.
The remainder beyond the quartic is the dense subtraction
``H/S - T - I`` here (``remainder_after_quartic``, and ``embedded_remainder``
on a sector), the reference for ``fock.remainder``.

The package builds every boson operator from one table of one-boson moves
(``fock._hop_table``).  The builders here scatter one normal-ordered
monomial at a time instead (``monomial_matrix``), with the sextic
correction, the ladder matrices, the projector, the trial state and the
one-particle hopping matrix that only tests use.  Tests compare the two
routes.

The package evaluates every Wick bound once over the two-point blocks of all
bonds (``wick._bond_blocks``).  The ``table_*`` oracles here build the dense
``ell^d x ell^d`` two-point table (``two_point``) from the dense sine-mode
matrix (``eigenfunction_matrix``) and loop over the bonds one by one through
``occupation_moment``, as the bounds did before.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from magnon import dispersion, fock, lattice, linalg, spinwave, wick
from magnon._errors import ValidationError, spin


def _site_counts(site_list: Sequence[int], n_sites: int) -> np.ndarray:
    counts = np.zeros(n_sites, dtype=np.int64)
    for s in site_list:
        if not 0 <= s < n_sites:
            raise ValidationError(f"site index {s} out of range")
        counts[s] += 1
    return counts


def monomial_matrix(basis, creators: Sequence[int], annihilators: Sequence[int]) -> np.ndarray:
    """Dense matrix of the normal-ordered monomial ``a*_{c1}..a*_{cp} a_{a1}..a_{aq}``.

    Moves leaving the capped space are dropped (that is the definition of the
    compressed operator on the truncated basis).
    """
    fock._check_dense(basis.dim)
    m = np.zeros((basis.dim, basis.dim))
    _add_monomial(m, basis, creators, annihilators)
    return m


def _add_monomial(m, basis, creators, annihilators, coef: float = 1.0) -> None:
    """Add ``coef`` times the monomial of ``monomial_matrix`` to ``m`` in place.

    The monomial shifts occupations by a fixed vector, so it has at most one
    entry per column and the scatter needs no accumulation.
    """
    occ = basis.occupations
    ann = _site_counts(annihilators, basis.n_sites)
    cre = _site_counts(creators, basis.n_sites)
    amp2 = np.ones(basis.dim)
    new = occ.copy()
    for s in np.nonzero(ann)[0]:
        for r in range(ann[s]):
            amp2 = amp2 * (new[:, s] - r)
        new[:, s] -= ann[s]
    valid = (new >= 0).all(axis=1)
    for s in np.nonzero(cre)[0]:
        for r in range(1, cre[s] + 1):
            amp2 = amp2 * (new[:, s] + r)
        new[:, s] += cre[s]
    tgt = basis._locate(new)
    valid &= tgt >= 0
    valid &= amp2 > 0
    src = np.nonzero(valid)[0]
    m[tgt[src], src] += coef * np.sqrt(amp2[src])


def ladder_matrices(basis, site: int):
    """Dense ``(a_dagger, a, n)`` for one site on the capped basis."""
    adag = monomial_matrix(basis, [site], [])
    num = np.diag(basis.occupations[:, site].astype(np.float64))
    return adag, adag.T.copy(), num


def one_particle_kinetic(spec) -> np.ndarray:
    """One-particle hopping matrix ``h[x,y]`` of the kinetic form.

    Each bond contributes +1 to both diagonal entries and -1 to the two
    off-diagonal entries; Dirichlet boxes additionally get the frozen-bond
    multiplicity on the diagonal.  For Dirichlet boundary conditions the
    eigenvalues are exactly ``{eps(k) : k on the sine grid}``.
    """
    n = spec.n_sites
    h = np.zeros((n, n))
    for i, j in lattice.nn_pairs(spec):
        h[i, i] += 1.0
        h[j, j] += 1.0
        h[i, j] -= 1.0
        h[j, i] -= 1.0
    if spec.boundary is lattice.Boundary.DIRICHLET:
        h[np.diag_indices(n)] += lattice.boundary_multiplicity(spec)
    return h


def kinetic(basis) -> np.ndarray:
    """``fock.kinetic`` summed monomial by monomial: per bond
    ``-a*_x a_y - a*_y a_x + a*_x a_x + a*_y a_y``."""
    fock._check_dense(basis.dim)
    m = np.zeros((basis.dim, basis.dim))
    for x, y in lattice.nn_pairs(basis.spec):
        _add_monomial(m, basis, [x], [y], -1.0)
        _add_monomial(m, basis, [y], [x], -1.0)
        _add_monomial(m, basis, [x], [x])
        _add_monomial(m, basis, [y], [y])
    return m


def kinetic_dirichlet(basis) -> np.ndarray:
    """``fock.kinetic_dirichlet``: the kinetic oracle plus ``m(x) a*_x a_x`` per site."""
    m = kinetic(basis)
    for x, mult in enumerate(lattice.boundary_multiplicity(basis.spec)):
        _add_monomial(m, basis, [x], [x], float(mult))
    return m


def quartic(basis, two_s: int) -> np.ndarray:
    """``fock.quartic`` summed monomial by monomial, the five of its docstring per bond."""
    fock._check_dense(basis.dim)
    s = two_s / 2.0
    m = np.zeros((basis.dim, basis.dim))
    for x, y in lattice.nn_pairs(basis.spec):
        _add_monomial(m, basis, [x, x], [x, y])
        _add_monomial(m, basis, [x, y], [y, y])
        _add_monomial(m, basis, [y, x], [x, x])
        _add_monomial(m, basis, [y, y], [y, x])
        _add_monomial(m, basis, [x, y], [x, y], -4.0)
    return m / (4.0 * s)


def hp_hamiltonian(basis, two_s: int) -> np.ndarray:
    """``fock.hp_hamiltonian`` from monomials: per bond ``S (a*_x a_x + a*_y a_y)
    - a*_x a*_y a_x a_y`` and, per orientation, ``-S a*_x a_y`` with each
    column dressed by ``g(n_x) g(n_y - 1)`` of its source row."""
    fock._check_dense(basis.dim)
    s = two_s / 2.0
    occ = basis.occupations.astype(np.float64)
    m = np.zeros((basis.dim, basis.dim))
    for i, j in lattice.nn_pairs(basis.spec):
        _add_monomial(m, basis, [i], [i], s)
        _add_monomial(m, basis, [j], [j], s)
        _add_monomial(m, basis, [i, j], [i, j], -1.0)
        for x, y in ((i, j), (j, i)):
            dress = np.sqrt((1.0 - occ[:, x] / two_s) * (1.0 - (occ[:, y] - 1.0) / two_s))
            m -= s * monomial_matrix(basis, [x], [y]) * dress[None, :]
    return m


def sextic(basis, two_s: int) -> np.ndarray:
    """Order-``1/S^2`` sextic correction, normal ordered.

    Per ordered pair ``(x, y)`` (each bond in both orientations):
    ``(a*_x a*_y a*_y a_y a_y a_y + a*_x a*_y a_y a_y
    - 2 a*_x a*_x a*_y a_x a_y a_y + a*_x a*_x a*_x a_x a_x a_y
    + a*_x a*_x a_x a_y) / (32 S^2)``.
    """
    fock._check_dense(basis.dim)
    s = two_s / 2.0
    m = np.zeros((basis.dim, basis.dim))
    for i, j in lattice.nn_pairs(basis.spec):
        for x, y in ((i, j), (j, i)):
            _add_monomial(m, basis, [x, y, y], [y, y, y])
            _add_monomial(m, basis, [x, y], [y, y])
            _add_monomial(m, basis, [x, x, y], [x, y, y], -2.0)
            _add_monomial(m, basis, [x, x, x], [x, x, y])
            _add_monomial(m, basis, [x, x], [x, y])
    return m / (32.0 * s * s)


@dataclass(frozen=True)
class ExpansionTerms:
    """Pieces of ``H/S = kinetic + quartic + sextic + remainder`` on the capped basis."""

    kinetic: np.ndarray
    kinetic_dirichlet: Optional[np.ndarray]
    quartic: np.ndarray
    sextic: np.ndarray
    remainder_after_quartic: np.ndarray
    remainder_after_sextic: np.ndarray


def expansion_terms(basis, two_s: int) -> ExpansionTerms:
    """All expansion pieces at once; remainders are exact subtractions."""
    t = fock.kinetic(basis)
    td = (
        fock.kinetic_dirichlet(basis)
        if basis.spec.boundary is lattice.Boundary.DIRICHLET
        else None
    )
    q = fock.quartic(basis, two_s)
    j6 = sextic(basis, two_s)
    r2 = remainder_after_quartic(basis, two_s, q)
    return ExpansionTerms(t, td, q, j6, r2, r2 - j6)


def remainder_after_quartic(basis, two_s: int, quart: np.ndarray) -> np.ndarray:
    """Remainder ``H/S - T - I`` given the quartic ``I`` on ``basis``, by dense subtraction.

    Needs ``n_max <= 2S`` like ``fock.hp_hamiltonian``.
    """
    return fock.hp_hamiltonian(basis, two_s) / spin(two_s) - fock.kinetic(basis) - quart


def embedded_remainder(sb, two_s: int) -> np.ndarray:
    """``R`` of the ``n_max = 2S`` sector, by dense subtraction, embedded into ``sb``."""
    small = fock.SectorBasis(sb.spec, two_s, sb.n_total)
    idx = sb._locate(small.occupations)
    r_big = np.zeros((sb.dim, sb.dim))
    quart = fock.quartic(small, two_s)
    r_big[np.ix_(idx, idx)] = remainder_after_quartic(small, two_s, quart)
    return r_big


def projector_P(basis, two_s: int) -> np.ndarray:
    fock._check_dense(basis.dim)
    return np.diag(fock.projector_mask(basis, two_s).astype(np.float64))


def trial_state(basis, two_s: int, beta_tilde: float) -> np.ndarray:
    """Low-occupation trial state ``P e^{-beta T^D} P / tr(e^{-beta T^D} P)``.

    ``T^D`` is the Dirichlet kinetic form compressed to the capped basis; the
    projector keeps at most ``2S`` bosons per site.  On a basis capped at
    ``n_max == 2S`` this is simply the Gibbs state of the compressed ``T^D``.
    """
    if not beta_tilde > 0.0:
        raise ValidationError("beta_tilde must be positive")
    td = fock.kinetic_dirichlet(basis)
    w, v = linalg.eigh(td)
    mask = fock.projector_mask(basis, two_s).astype(np.float64)
    boltz = np.exp(-beta_tilde * w)  # T^D >= 0, no overflow
    e_mat = (v * boltz) @ v.T
    norm = float(np.dot(mask, np.diag(e_mat)))
    if not norm > 0.0:
        raise ValidationError("projected trace vanished; trial state undefined")
    return (e_mat * mask[None, :]) * mask[:, None] / norm


def sector_spectra(spec, n_max: int, top: int, hamiltonian: tuple, observables):
    """``[(w, diagonals)]`` of the sectors ``0..top``, one list entry per sector.

    Each entry is ``fock._sector_spectrum`` on a new sector basis: the
    spectra of a trace before they are packed, with the same bits.
    """
    return [
        fock._sector_spectrum(
            fock.SectorBasis(spec, n_max, n), hamiltonian, observables, None, None
        )
        for n in range(top + 1)
    ]


def thermal_pass(spectra, beta_tilde: float):
    """``(values, log_z)`` of per-sector spectra, weighed one sector at a time.

    Each sector shifts, scales and exponentiates its own eigenvalues, then
    adds its pairwise sum of weights to ``Z`` and one BLAS ``ddot`` per
    observable, in sector order.  ``fock.gibbs_expectation_truncated``
    takes the same weights, bit for bit, but sums over the whole trace at
    once, so the two agree to the bound of ``thermal_pass_error_ratio`` and
    not bit for bit.
    """
    shift = min(float(w[0]) for w, _ in spectra)
    z = 0.0
    acc = np.zeros(len(spectra[0][1]))
    for w, diags in spectra:
        boltz = np.exp(-beta_tilde * (w - shift))
        z += float(boltz.sum())
        acc += [float(np.dot(boltz, diag)) for diag in diags]
    return [float(x) / z for x in acc], float(np.log(z)) - beta_tilde * shift


def thermal_pass_error_ratio(spectra, beta_tilde: float, got, want) -> float:
    """Largest difference of two thermal passes over its summation error bound.

    ``got`` and ``want`` are ``(values, log_z)`` of the trace ``spectra``
    (``sector_spectra``) at ``beta_tilde``.  With ``n`` the trace length,
    ``eps`` the machine epsilon, ``b_i`` the Boltzmann weights relative to
    the lowest eigenvalue, ``z`` their sum and ``d_ij`` the diagonal of
    observable ``j``, the bound is ``n eps sum_i b_i |d_ij| / z`` on value
    ``j`` and ``n eps`` on ``log Z``.  It is the recursive summation bound
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    section 4): a sum of ``n`` terms in any order errs by at most
    ``(n - 1) eps / 2`` times the sum of their magnitudes, so two orders
    differ by less than ``n eps`` times it.  It is applied to the quotients
    by ``z`` too, where numpy's pairwise sums and the blocked ``ddot`` keep
    far inside it.  A quantity whose bound is 0 must be equal in both, else
    its ratio is ``inf``.  Passes within the bound give at most 1.
    """
    shift = min(float(w[0]) for w, _ in spectra)
    boltz = np.exp(-beta_tilde * (np.concatenate([w for w, _ in spectra]) - shift))
    diags = np.concatenate([np.reshape(d, (len(d), w.size)) for w, d in spectra], axis=1)
    z = float(boltz.sum())
    n_eps = boltz.size * np.finfo(np.float64).eps
    pairs = list(zip(got[0], want[0], n_eps * (np.abs(diags) * boltz).sum(axis=1) / z))
    pairs.append((got[1], want[1], n_eps))
    ratios = [
        abs(a - b) / bound if bound > 0.0 else (0.0 if a == b else math.inf)
        for a, b, bound in pairs
    ]
    return float(max(ratios))


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
    terms = expansion_terms(basis, two_s)
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
        spec, two_s, beta_tilde, "exact", lead, corr_raw, {}, True, info=info, rest=rem_raw
    )


def cross_term_check(spec, two_s: int, beta_tilde: float, n_max: int):
    """``wick.cross_term_check`` with one eigendecomposition of the full capped space."""
    basis = fock.FockBasis(spec, n_max)
    td = fock.kinetic_dirichlet(basis)
    quart = fock.quartic(basis, two_s)
    p = projector_P(basis, two_s)
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
    r_small = expansion_terms(small, two_s).remainder_after_quartic
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


# ---------------------------------------------------------------------------
# sine modes, the dense two-point table and the bond-by-bond Wick bounds


def eigenfunction(spec, k, x) -> float:
    """Normalized sine mode ``phi_k(x) = (2/(ell+1))^(d/2) prod_j sin(x_j k_j)``.

    ``k`` must lie on the mode grid of the Dirichlet box.
    """
    k = np.atleast_1d(np.asarray(k, dtype=np.float64))
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if k.shape != (spec.d,) or x.shape != (spec.d,):
        raise ValidationError("k and x must both have one entry per dimension")
    labels = k * (spec.ell + 1) / np.pi
    rounded = np.rint(labels)
    if np.max(np.abs(labels - rounded)) > 1e-9 or np.any(rounded < 1) or np.any(rounded > spec.ell):
        raise ValidationError(f"momentum {k} is not on the mode grid of ell={spec.ell}")
    return float((2.0 / (spec.ell + 1)) ** (spec.d / 2.0) * np.prod(np.sin(x * k)))


def eigenfunction_matrix(spec) -> np.ndarray:
    """Orthogonal matrix ``Phi[site, mode]`` of all sine modes, ``ell^d x ell^d``.

    Built as a Kronecker product of the 1d sine transform, so rows follow the
    ``sites`` order and columns the ``dirichlet_modes`` order.
    """
    if spec.boundary is not lattice.Boundary.DIRICHLET:
        raise ValidationError("sine modes belong to Dirichlet boxes")
    grid = np.arange(1, spec.ell + 1)
    phi1 = np.sqrt(2.0 / (spec.ell + 1)) * np.sin(
        np.pi * np.outer(grid, grid) / (spec.ell + 1)
    )
    out = phi1
    for _ in range(spec.d - 1):
        out = np.kron(out, phi1)
    return out


def two_point(spec, beta_tilde: float) -> np.ndarray:
    """Dense two-point table ``rho[x, y] = sum_k phi_k(x) phi_k(y) f(k)``."""
    phi = eigenfunction_matrix(spec)
    f = dispersion.bose_from_energy(dispersion.epsilon(lattice.dirichlet_modes(spec)), beta_tilde)
    rho = (phi * f) @ phi.T
    return 0.5 * (rho + rho.T)


def number_monomial(site: int, power: int = 1):
    """Ladder sequence for ``n_site^power``."""
    return [(site, True), (site, False)] * power


def occupation_moment(rho, powers: dict) -> float:
    """Mixed occupation moment ``< prod_x n_x^{p_x} >`` via pairings."""
    mono = []
    for site in sorted(powers):
        mono.extend(number_monomial(site, powers[site]))
    return wick.wick_expectation(mono, rho)


def poly_expectation(rho, x: int, y: int, poly: dict) -> float:
    """Expectation of a polynomial in ``(n_x, n_y)`` given as {(a, b): coef}."""
    total = 0.0
    for (a, b), coef in sorted(poly.items()):
        total += coef * occupation_moment(rho, {x: a, y: b} if x != y else {x: a + b})
    return total


def _ordered_pairs(spec):
    for i, j in lattice.nn_pairs(spec):
        yield int(i), int(j)
        yield int(j), int(i)


def table_expectation_I_position(spec, two_s: int, beta_tilde: float) -> float:
    rho = two_point(spec, beta_tilde)
    total = 0.0
    for i, j in lattice.nn_pairs(spec):
        total += (rho[i, i] + rho[j, j]) * rho[i, j] - rho[i, i] * rho[j, j] - rho[i, j] ** 2
    return total / (two_s / 2.0)


def table_expectation_I_monomials(spec, two_s: int, beta_tilde: float) -> float:
    rho = two_point(spec, beta_tilde)
    total = 0.0
    for i, j in lattice.nn_pairs(spec):
        for coef, mono in wick._interaction_monomials(int(i), int(j)):
            total += coef * wick.wick_expectation(mono, rho)
    return total / (4.0 * (two_s / 2.0))


def table_hop_squared_moments(spec, beta_tilde: float) -> float:
    rho = two_point(spec, beta_tilde)
    pairs = list(_ordered_pairs(spec))
    per_pair = sum(poly_expectation(rho, x, y, {(0, 1): 1.0, (1, 1): 1.0}) for x, y in pairs)
    return len(pairs) * per_pair


def table_interaction_squared_bound(spec, two_s: int, beta_tilde: float, unsigned=False) -> float:
    """``wick.interaction_squared_bound`` from signed monomials of the dense table.

    With ``unsigned`` every monomial term enters with its absolute value: the
    scale of the rounding error of the signed sum.
    """
    rho = two_point(spec, beta_tilde)
    s = two_s / 2.0
    n_bonds = len(lattice.nn_pairs(spec))
    # ((n_x + n_y - 1)^2 / 16) (n_x + 1) n_y, expanded by hand
    square = {(2, 0): 1.0, (0, 2): 1.0, (0, 0): 1.0, (1, 1): 2.0, (1, 0): -2.0, (0, 1): -2.0}
    if unsigned:
        square = {key: abs(coef) for key, coef in square.items()}
    poly_v = {}
    for (a, b), coef in square.items():
        for key in ((a + 1, b + 1), (a, b + 1)):
            poly_v[key] = poly_v.get(key, 0.0) + coef
    v_sum = sum(poly_expectation(rho, x, y, poly_v) / 16.0 for x, y in _ordered_pairs(spec))
    d_sum = sum(
        poly_expectation(rho, int(i), int(j), {(2, 2): 0.25}) for i, j in lattice.nn_pairs(spec)
    )
    return (2.0 / (s * s)) * (2 * n_bonds * v_sum + n_bonds * d_sum)


def table_remainder_bound(spec, two_s: int, beta_tilde: float) -> float:
    rho = two_point(spec, beta_tilde)
    total = 0.0
    for x, y in _ordered_pairs(spec):
        total += 6.0 * rho[x, x] ** 3 + 2.0 * rho[x, x] ** 2
        total += poly_expectation(rho, x, y, {(1, 2): 1.0})
    return total / (8.0 * (two_s / 2.0) ** 2)


def table_cross_term_value(spec, two_s: int, beta_tilde: float) -> float:
    """``wick.cross_term_bound(...).value`` from the dense table and mode loops."""
    rho = two_point(spec, beta_tilde)
    w = sum(dispersion.occupation_tail_bound(r, two_s) for r in np.diag(rho))
    eps = dispersion.epsilon(lattice.dirichlet_modes(spec))
    f = dispersion.bose_from_energy(eps, beta_tilde)
    t2 = sum(eps * f) ** 2 + sum(eps * eps * f * (1.0 + f))
    n2 = sum(f) ** 2 + sum(f * (1.0 + f))
    i2 = table_interaction_squared_bound(spec, two_s, beta_tilde)
    pt2p = 2.0 * table_hop_squared_moments(spec, beta_tilde) + 2.0 * (2.0 * spec.d) ** 2 * n2
    return float(
        np.sqrt(w) * (np.sqrt(2 * t2 + 2 * i2) + np.sqrt(2 * pt2p + 2 * i2) + np.sqrt(t2))
    )
