"""Truncated bosonic Fock space on a finite box, and the spin-wave expansion.

States are occupation vectors with a per-site cap ``n_max``; the basis index
is mixed-radix with site 0 least significant, sites in lexicographic order.
The same convention is used for the spin basis, so the boson image of a spin
Hamiltonian can be compared entry by entry.

The physical Hamiltonian maps to bosons with hopping amplitudes dressed by
``sqrt(1 - n/2S)`` factors.  Expanding those square roots in ``1/S`` yields
the hierarchy implemented here: a quadratic kinetic form, a quartic
correction of order ``1/S``, a sextic correction of order ``1/S^2``, and
remainders defined by subtraction, so that the pieces resum exactly on the
capped space.

All dense matrices respect the global dimension cap.  Every thermal trace in
the package is sector-blocked: the Hamiltonians it traces conserve the total
number, so ``gibbs_expectation_truncated`` diagonalizes one fixed-total
sector (``SectorBasis``) at a time, which also reaches capped spaces far
beyond the cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import lattice, linalg
from ._errors import CapacityError, ValidationError

__all__ = [
    "BASIS_CAP",
    "FockBasis",
    "SectorBasis",
    "monomial_matrix",
    "ladder_matrices",
    "kinetic",
    "kinetic_dirichlet",
    "quartic",
    "sextic",
    "hp_hamiltonian",
    "remainder_after_quartic",
    "ExpansionTerms",
    "expansion_terms",
    "projector_mask",
    "projector_P",
    "trial_state",
    "gibbs_expectation_truncated",
]

BASIS_CAP = 2**20


class FockBasis:
    """Full occupation basis with per-site cap ``n_max``."""

    def __init__(self, spec: lattice.LatticeSpec, n_max: int):
        if not isinstance(n_max, int) or n_max < 1:
            raise ValidationError("n_max must be a positive integer")
        self.spec = spec
        self.n_max = n_max
        self.n_sites = spec.n_sites
        radix = n_max + 1
        dim = radix**self.n_sites
        if dim > BASIS_CAP:
            raise CapacityError(f"basis dimension {dim} exceeds cap {BASIS_CAP}")
        self.dim = dim
        self.strides = radix ** np.arange(self.n_sites, dtype=np.int64)
        idx = np.arange(dim, dtype=np.int64)
        self.occupations = (idx[:, None] // self.strides[None, :]) % radix

    def index_of(self, occ) -> int:
        occ = np.asarray(occ, dtype=np.int64)
        if occ.shape != (self.n_sites,) or occ.min() < 0 or occ.max() > self.n_max:
            raise ValidationError("occupation vector outside the basis")
        return int(np.dot(occ, self.strides))

    def _locate(self, occs: np.ndarray) -> np.ndarray:
        """Indices of occupation rows; -1 where out of the capped space."""
        ok = (occs >= 0).all(axis=1) & (occs <= self.n_max).all(axis=1)
        idx = occs @ self.strides
        return np.where(ok, idx, -1)


class SectorBasis:
    """Occupation basis restricted to a fixed total particle number.

    Rows are in lexicographic order with site 0 most significant, so a row's
    index is its combinatorial rank: the number of capped compositions of
    ``n_total`` that precede it.
    """

    def __init__(self, spec: lattice.LatticeSpec, n_max: int, n_total: int):
        if n_max < 1 or n_total < 0:
            raise ValidationError("need n_max >= 1 and n_total >= 0")
        self.spec = spec
        self.n_max = n_max
        self.n_sites = spec.n_sites
        self.n_total = n_total
        # counts[m, t]: compositions of t into m parts in [0, n_max]
        counts = np.zeros((self.n_sites + 1, n_total + 1), dtype=np.int64)
        counts[0, 0] = 1
        ones = np.ones(n_max + 1, dtype=np.int64)
        for m in range(1, self.n_sites + 1):
            counts[m] = np.convolve(counts[m - 1], ones)[: n_total + 1]
        # cum[m, t + 1] = sum of counts[m, :t + 1], so cum[m, 0] = 0
        self._cum = np.concatenate(
            [np.zeros((self.n_sites + 1, 1), np.int64), np.cumsum(counts, axis=1)], axis=1
        )
        rows = np.zeros((1, 0), dtype=np.int64)
        left = np.array([n_total], dtype=np.int64)
        for site in range(self.n_sites):
            lo = np.maximum(0, left - n_max * (self.n_sites - 1 - site))
            width = np.maximum(np.minimum(n_max, left) - lo + 1, 0)
            parent = np.repeat(np.arange(left.size), width)
            v = lo[parent] + np.arange(parent.size) - np.repeat(np.cumsum(width) - width, width)
            rows = np.column_stack([rows[parent], v])
            left = left[parent] - v
        self.occupations = rows
        self.dim = int(counts[self.n_sites, n_total])

    def _locate(self, occs: np.ndarray) -> np.ndarray:
        """Indices of occupation rows.

        -1 marks a row with the wrong total, a negative entry or an entry
        above ``n_max``.
        """
        occs = np.asarray(occs, dtype=np.int64)
        ok = (
            (occs >= 0).all(axis=1)
            & (occs <= self.n_max).all(axis=1)
            & (occs.sum(axis=1) == self.n_total)
        )
        valid = occs[ok]
        left = np.full(valid.shape[0], self.n_total, dtype=np.int64)
        rank = np.zeros(valid.shape[0], dtype=np.int64)
        for site in range(self.n_sites - 1):
            # rows with a smaller entry here and the same prefix come first
            cum = self._cum[self.n_sites - 1 - site]
            rank += cum[left + 1] - cum[left - valid[:, site] + 1]
            left -= valid[:, site]
        out = np.full(occs.shape[0], -1, dtype=np.int64)
        out[ok] = rank
        return out


def _site_counts(site_list: Sequence[int], n_sites: int) -> np.ndarray:
    counts = np.zeros(n_sites, dtype=np.int64)
    for s in site_list:
        if not 0 <= s < n_sites:
            raise ValidationError(f"site index {s} out of range")
        counts[s] += 1
    return counts


def _check_dense(dim: int):
    if dim > linalg.DENSE_DIM_CAP:
        raise CapacityError(f"dense operator of dimension {dim} exceeds cap")


def monomial_matrix(basis, creators: Sequence[int], annihilators: Sequence[int]) -> np.ndarray:
    """Dense matrix of the normal-ordered monomial ``a*_{c1}..a*_{cp} a_{a1}..a_{aq}``.

    Moves leaving the capped space are dropped (that is the definition of the
    compressed operator on the truncated basis).
    """
    _check_dense(basis.dim)
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


def _bond_diagonal(basis, weights_fn) -> np.ndarray:
    """Diagonal vector sum over bonds of a per-bond occupation function."""
    occ = basis.occupations
    diag = np.zeros(basis.dim)
    for i, j in lattice.nn_pairs(basis.spec):
        diag += weights_fn(occ[:, i], occ[:, j])
    return diag


def kinetic(basis) -> np.ndarray:
    """Quadratic hopping form: per bond ``-a*_x a_y - a*_y a_x + n_x + n_y``."""
    _check_dense(basis.dim)
    m = np.zeros((basis.dim, basis.dim))
    for i, j in lattice.nn_pairs(basis.spec):
        _add_monomial(m, basis, [i], [j], -1.0)
        _add_monomial(m, basis, [j], [i], -1.0)
    m[np.diag_indices(basis.dim)] += _bond_diagonal(basis, lambda ni, nj: ni + nj)
    return m


def kinetic_dirichlet(basis) -> np.ndarray:
    """Kinetic form plus the frozen-bond penalty ``sum_x m(x) n_x``."""
    mult = lattice.boundary_multiplicity(basis.spec)
    m = kinetic(basis)
    m[np.diag_indices(basis.dim)] += basis.occupations @ mult.astype(np.float64)
    return m


def quartic(basis, two_s: int) -> np.ndarray:
    """Order-``1/S`` quartic correction of the square-root expansion.

    Per unordered bond ``{x, y}``:
    ``(a*_x a*_x a_x a_y + a*_x a*_y a_y a_y + a*_y a*_x a_x a_x
    + a*_y a*_y a_y a_x - 4 a*_x a*_y a_x a_y) / (4S)``.
    """
    _check_dense(basis.dim)
    s = two_s / 2.0
    m = np.zeros((basis.dim, basis.dim))
    for x, y in lattice.nn_pairs(basis.spec):
        _add_monomial(m, basis, [x, x], [x, y])
        _add_monomial(m, basis, [x, y], [y, y])
        _add_monomial(m, basis, [y, x], [x, x])
        _add_monomial(m, basis, [y, y], [y, x])
    m /= 4.0 * s
    diag = _bond_diagonal(basis, lambda ni, nj: (ni * nj).astype(np.float64))
    m[np.diag_indices(basis.dim)] -= diag / s
    return m


def sextic(basis, two_s: int) -> np.ndarray:
    """Order-``1/S^2`` sextic correction, normal ordered.

    Per ordered pair ``(x, y)`` (each bond in both orientations):
    ``(a*_x a*_y a*_y a_y a_y a_y + a*_x a*_y a_y a_y
    - 2 a*_x a*_x a*_y a_x a_y a_y + a*_x a*_x a*_x a_x a_x a_y
    + a*_x a*_x a_x a_y) / (32 S^2)``.
    """
    _check_dense(basis.dim)
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


def hp_hamiltonian(basis, two_s: int) -> np.ndarray:
    """Boson image of the spin Hamiltonian on the capped basis, in units of 1.

    ``S * sum over bonds of (-a*_x g(n_x) g(n_y - 1) a_y - h.c. + n_x + n_y
    - n_x n_y / S)`` with ``g(n) = sqrt(1 - n/2S)``.  Requires
    ``n_max <= 2S`` so all square roots are real; with ``n_max == 2S`` the
    matrix equals the spin Hamiltonian exactly.
    """
    if basis.n_max > two_s:
        raise ValidationError("hp_hamiltonian needs n_max <= two_s for real amplitudes")
    _check_dense(basis.dim)
    s = two_s / 2.0
    occ = basis.occupations
    dim = basis.dim
    m = np.zeros((dim, dim))
    idx = np.arange(dim, dtype=np.int64)
    for i, j in lattice.nn_pairs(basis.spec):
        for x, y in ((i, j), (j, i)):
            nx, ny = occ[:, x], occ[:, y]
            ok = (ny >= 1) & (nx < basis.n_max)
            src = idx[ok]
            amp = -s * np.sqrt(
                (nx[ok] + 1.0)
                * ny[ok]
                * (1.0 - nx[ok] / two_s)
                * (1.0 - (ny[ok] - 1.0) / two_s)
            )
            tgt = basis._locate(
                occ[ok]
                + np.eye(basis.n_sites, dtype=np.int64)[x]
                - np.eye(basis.n_sites, dtype=np.int64)[y]
            )
            keep = tgt >= 0
            np.add.at(m, (tgt[keep], src[keep]), amp[keep])
    diag = _bond_diagonal(
        basis, lambda ni, nj: s * (ni + nj) - (ni * nj).astype(np.float64)
    )
    m[np.diag_indices(dim)] += diag
    return m


def remainder_after_quartic(basis, two_s: int, kin: np.ndarray, quart: np.ndarray) -> np.ndarray:
    """Remainder ``H/S - T - I`` given the kinetic form ``T`` and quartic ``I`` on ``basis``.

    Exact by subtraction; needs ``n_max <= 2S`` like ``hp_hamiltonian``.
    """
    return hp_hamiltonian(basis, two_s) / (two_s / 2.0) - kin - quart


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
    t = kinetic(basis)
    td = (
        kinetic_dirichlet(basis)
        if basis.spec.boundary is lattice.Boundary.DIRICHLET
        else None
    )
    q = quartic(basis, two_s)
    j6 = sextic(basis, two_s)
    r2 = remainder_after_quartic(basis, two_s, t, q)
    return ExpansionTerms(t, td, q, j6, r2, r2 - j6)


def projector_mask(basis, two_s: int) -> np.ndarray:
    """Boolean mask of states with every site occupation at most ``2S``."""
    return (basis.occupations <= two_s).all(axis=1)


def projector_P(basis, two_s: int) -> np.ndarray:
    _check_dense(basis.dim)
    return np.diag(projector_mask(basis, two_s).astype(np.float64))


def trial_state(basis, two_s: int, beta_tilde: float) -> np.ndarray:
    """Low-occupation trial state ``P e^{-beta T^D} P / tr(e^{-beta T^D} P)``.

    ``T^D`` is the Dirichlet kinetic form compressed to the capped basis; the
    projector keeps at most ``2S`` bosons per site.  On a basis capped at
    ``n_max == 2S`` this is simply the Gibbs state of the compressed ``T^D``.
    """
    if not beta_tilde > 0.0:
        raise ValidationError("beta_tilde must be positive")
    td = kinetic_dirichlet(basis)
    w, v = linalg.eigh(td)
    mask = projector_mask(basis, two_s).astype(np.float64)
    boltz = np.exp(-beta_tilde * w)  # T^D >= 0, no overflow
    e_mat = (v * boltz) @ v.T
    norm = float(np.dot(mask, np.diag(e_mat)))
    if not norm > 0.0:
        raise ValidationError("projected trace vanished; trial state undefined")
    return (e_mat * mask[None, :]) * mask[:, None] / norm


def gibbs_expectation_truncated(
    spec: lattice.LatticeSpec,
    n_max: int,
    beta_tilde: float,
    observables: Callable,
    hamiltonian: Optional[Callable] = None,
    max_total: Optional[int] = None,
):
    """Thermal expectations on the capped space via total-number sectors.

    The kinetic Hamiltonians, all expansion pieces and the spin Hamiltonian
    conserve total particle number, so ``tr(A e^{-beta H})`` splits over
    sectors; each sector is diagonalized densely.  ``hamiltonian(sb)``
    returns the dense Hamiltonian on a sector basis (default: the Dirichlet
    kinetic form), at inverse temperature ``beta_tilde`` in its own energy
    unit.  ``observables(sb, h)`` returns the list of observables on that
    sector, given its Hamiltonian: each a dense matrix or, for a diagonal
    observable, the vector of its diagonal.  Both are called once per sector,
    so pieces shared between observables are built once.  ``max_total``
    optionally caps the total number; with ground energies growing linearly
    in the sector number the neglected weight decays geometrically.

    Boltzmann weights are taken relative to the lowest eigenvalue seen so
    far, and earlier sums are rescaled when it drops, so nothing overflows
    however large ``beta_tilde`` is.

    Returns ``(values, log_z)``.
    """
    if not beta_tilde > 0.0:
        raise ValidationError("beta_tilde must be positive")
    ham = hamiltonian if hamiltonian is not None else kinetic_dirichlet
    top = spec.n_sites * n_max if max_total is None else min(max_total, spec.n_sites * n_max)
    shift = math.inf
    z = 0.0
    acc = 0.0  # becomes one sum per observable at the first sector
    for n_total in range(top + 1):
        sb = SectorBasis(spec, n_max, n_total)
        if sb.dim == 0:
            continue
        h = ham(sb)
        w, v = linalg.eigh(h)
        if w[0] < shift:
            rescale = math.exp(-beta_tilde * (shift - w[0]))
            z *= rescale
            acc = acc * rescale
            shift = float(w[0])
        boltz = np.exp(-beta_tilde * (w - shift))
        z += float(boltz.sum())
        sums = []
        for a in observables(sb, h):
            a = np.asarray(a, dtype=np.float64)
            if a.shape == (sb.dim,):
                diag = a @ (v * v)
            elif a.shape == (sb.dim, sb.dim):
                diag = np.einsum("ij,ji->i", v.T @ a, v)
            else:
                raise ValidationError("observable has wrong sector dimension")
            sums.append(float(np.dot(boltz, diag)))
        acc = acc + np.array(sums)
    if not z > 0.0:
        raise ValidationError("partition function vanished")
    return [float(x) / z for x in acc], float(np.log(z)) - beta_tilde * shift
