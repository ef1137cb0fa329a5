"""Exact diagonalization of the spin Hamiltonian on small boxes.

The spin basis on each site is ``|n>`` with ``n = S^3 + S`` running from 0 to
``2S``; multi-site states use the same mixed-radix, little-endian indexing as
the capped boson basis, so the boson image of the Hamiltonian can be compared
entry by entry.

ED is sector-blocked: H conserves total ``S^3``, so it is built on one
fixed-total sector of ``fock.SectorBasis`` (``n_max = 2S``) at a time, as
its diagonal (with the frozen-bond penalty on Dirichlet boxes) plus the spin
amplitude ``_hop_amplitude`` scattered over the sector's cached ``fock`` hop
table of one-unit moves along bonds.  It shares nothing of the boson
expansion.  The free energy traces every sector through
``fock.gibbs_expectation_truncated`` by eigenvalues alone, within the global
dimension cap on the whole space (spin 1/2 up to 12 sites, spin 1 up to 7
sites); the trace keeps those eigenvalues, so each box is diagonalized once
for all its temperatures.  The single-magnon check needs only the one-unit
sector, of dimension ``ell^d``.  The dense Kronecker builders
``heisenberg_hamiltonian`` and ``dirichlet_hamiltonian`` are the independent
check of the boson image; both embed their single-site operators through
one helper, ``_embed``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dispersion, fock, lattice
from ._errors import ValidationError, spin

__all__ = [
    "SpinMatrices",
    "spin_matrices",
    "heisenberg_hamiltonian",
    "dirichlet_hamiltonian",
    "free_energy_per_spin",
    "magnon_check",
    "hp_equivalence_check",
]


@dataclass(frozen=True)
class SpinMatrices:
    """Single-site ``S^3``, raising and lowering matrices in the ``|n>`` basis."""

    s3: np.ndarray
    s_plus: np.ndarray
    s_minus: np.ndarray


def spin_matrices(two_s: int) -> SpinMatrices:
    s = spin(two_s)
    n = np.arange(two_s + 1, dtype=np.float64)
    s3 = np.diag(n - s)
    sp = np.zeros((two_s + 1, two_s + 1))
    amp = np.sqrt((two_s - n[:-1]) * (n[:-1] + 1.0))
    sp[np.arange(1, two_s + 1), np.arange(two_s)] = amp
    return SpinMatrices(s3, sp, sp.T.copy())


def _embed(ops: dict, r: int, n_sites: int) -> np.ndarray:
    """Kronecker product of ``{site: op}`` with identities on every other site.

    Site 0 is the least significant factor, as in the ``fock`` bases.  The
    product grows on the right of each ``np.kron``, whose inner loop runs
    over its right factor.
    """
    eye = np.eye(r)
    m = ops.get(0, eye)
    for x in range(1, n_sites):
        m = np.kron(ops.get(x, eye), m)
    return m


def heisenberg_hamiltonian(spec: lattice.LatticeSpec, two_s: int) -> np.ndarray:
    """Dense ``sum over bonds of (S^2 - S_x . S_y)``, real symmetric, PSD."""
    s = spin(two_s)
    dim = fock._check_dense_space(spec, two_s)
    sm = spin_matrices(two_s)
    h = np.zeros((dim, dim))
    pairs = lattice.nn_pairs(spec).tolist()
    for i, j in pairs:
        h -= _embed({i: sm.s3, j: sm.s3}, two_s + 1, spec.n_sites)
        h -= 0.5 * _embed({i: sm.s_plus, j: sm.s_minus}, two_s + 1, spec.n_sites)
        h -= 0.5 * _embed({i: sm.s_minus, j: sm.s_plus}, two_s + 1, spec.n_sites)
    h[np.diag_indices(dim)] += len(pairs) * s * s
    return h


def dirichlet_hamiltonian(spec: lattice.LatticeSpec, two_s: int) -> np.ndarray:
    """Spin Hamiltonian with frozen aligned neighbors outside the box.

    Each frozen bond at site ``x`` adds ``S^2 + S*S^3_x``; the per-site count
    is the frozen-bond multiplicity.
    """
    s = spin(two_s)
    dim = fock._check_dense_space(spec, two_s)
    mult = lattice.boundary_multiplicity(spec)
    sm = spin_matrices(two_s)
    h = heisenberg_hamiltonian(spec, two_s)
    for x in np.nonzero(mult)[0].tolist():
        h += mult[x] * s * _embed({x: sm.s3}, two_s + 1, spec.n_sites)
    h[np.diag_indices(dim)] += float(np.sum(mult)) * s * s
    return h


def _diagonal(sb, two_s: int):
    """Diagonal of H on the rows of a sector basis: ``S^2 - S^3_x S^3_y`` per bond,
    plus ``S^2 + S*S^3_x`` per frozen bond on Dirichlet boxes."""
    s = spin(two_s)
    diag = fock._bond_diagonal(sb, lambda ni, nj: s * s - (ni - s) * (nj - s))
    if sb.spec.boundary is lattice.Boundary.DIRICHLET:
        mult = lattice.boundary_multiplicity(sb.spec)
        diag = diag + np.sum(mult * (s * s + s * (sb.occupations - s)), axis=1)
    return diag


def _hop_amplitude(two_s: int, n_x, n_y):
    """Amplitude of ``-(1/2) S^+_x S^-_y`` on a row holding ``n_x`` at ``x`` and ``n_y`` at ``y``.

    The term moves one unit from ``y`` to ``x``; the amplitude vanishes when
    ``n_x = 2S`` or ``n_y = 0``.
    """
    return -0.5 * np.sqrt((two_s - n_x) * (n_x + 1.0) * n_y * (two_s - n_y + 1.0))


def _sector_hamiltonian(sb, two_s: int) -> np.ndarray:
    """Dense H on one fixed-total-``S^3`` sector (a ``fock.SectorBasis`` with ``n_max = 2S``)."""
    return fock._hop_operator(
        sb,
        _diagonal(sb, two_s),
        lambda nx, ny: _hop_amplitude(two_s, nx, ny),
    )


def free_energy_per_spin(spec: lattice.LatticeSpec, two_s: int, beta_tilde: float) -> float:
    """Exact ``f/S`` of the box at spin-wave inverse temperature ``beta_tilde``.

    The physical inverse temperature is ``beta_tilde / S``.  The trace is
    taken sector by sector in total ``S^3``, which H conserves.  Dirichlet
    boxes carry the frozen-bond penalty.
    """
    s = spin(two_s)
    fock._check_dense_space(spec, two_s)
    beta = beta_tilde / s
    _, log_z = fock.gibbs_expectation_truncated(
        spec, two_s, beta, None, hamiltonian=(_sector_hamiltonian, two_s)
    )
    return -log_z / (beta * spec.n_sites) / s


def magnon_check(spec: lattice.LatticeSpec, two_s: int, k) -> float:
    """Residual of the single-magnon eigenvalue equation on the torus.

    Builds ``|k> = l^{-d/2} sum_x e^{ikx} S^+_x |ground> / sqrt(2S)`` and
    returns the relative residual of ``H |k> = S eps(k) |k>`` (real and
    imaginary parts separately).  H conserves total ``S^3``, so ``H |k>``
    stays in the one-unit sector and H restricted to that sector, of
    dimension ``ell^d``, gives the residual exactly.
    """
    s = spin(two_s)
    if spec.boundary is not lattice.Boundary.PERIODIC:
        raise ValidationError("the magnon check runs on periodic boxes")
    k = np.asarray(k, dtype=np.float64)
    if k.shape != (spec.d,):
        raise ValidationError("momentum must have one component per dimension")
    kmat = lattice.periodic_modes(spec)
    if not np.any(np.all(np.abs(kmat - k) < 1e-9, axis=1)):
        raise ValidationError(f"momentum {k} is not on the torus grid")
    fock._check_dense(spec.n_sites)  # before building the sector, one row per site
    sb = fock.SectorBasis(spec, two_s, 1)
    h = _sector_hamiltonian(sb, two_s)
    # row of the state with its single unit on site x
    rows = sb._locate(np.eye(spec.n_sites, dtype=np.int64))
    phase = lattice.sites(spec) @ k
    target = s * float(dispersion.epsilon(k))
    norm = spec.n_sites ** -0.5
    res2 = 0.0
    nrm2 = 0.0
    for part in (np.cos(phase), np.sin(phase)):
        v = np.zeros(sb.dim)
        v[rows] = norm * part
        res2 += float(np.sum((h @ v - target * v) ** 2))
        nrm2 += float(np.sum(v**2))
    if not nrm2 > 0.0:
        raise ValidationError("magnon vector vanished")
    return float(np.sqrt(res2 / nrm2))


def hp_equivalence_check(spec: lattice.LatticeSpec, two_s: int) -> float:
    """Max-norm difference between the spin Hamiltonian and its boson image.

    Uses the uncapped identification ``n_max = 2S``; the two matrices agree
    to rounding error.  Dirichlet boxes compare the penalized pair.
    """
    s = spin(two_s)
    basis = fock.FockBasis(spec, two_s)
    hp = fock.hp_hamiltonian(basis, two_s)
    if spec.boundary is lattice.Boundary.DIRICHLET:
        h_spin = dirichlet_hamiltonian(spec, two_s)
        mult = lattice.boundary_multiplicity(spec).astype(np.float64)
        hp = hp + np.diag(s * (basis.occupations @ mult))
    else:
        h_spin = heisenberg_hamiltonian(spec, two_s)
    return float(np.max(np.abs(h_spin - hp)))
