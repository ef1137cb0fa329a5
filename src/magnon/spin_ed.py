"""Exact diagonalization of the spin Hamiltonian on small boxes.

The spin basis on each site is ``|n>`` with ``n = S^3 + S`` running from 0 to
``2S``; multi-site states use the same mixed-radix, little-endian indexing as
the capped boson basis, so the boson image of the Hamiltonian can be compared
entry by entry.

The free energy is sector-blocked: H conserves total ``S^3``, so the trace
runs over the fixed-total sectors of ``fock.SectorBasis`` (``n_max = 2S``)
through ``fock.gibbs_expectation_truncated``, which needs only each sector's
eigenvalues.  ED shares the move geometry with the boson operators: each
``S^+_x S^-_y`` moves one unit along a bond, so a sector Hamiltonian is its
diagonal plus the spin amplitude ``_hop_amplitude`` scattered over the
sector's cached ``fock`` hop table.  It shares nothing of the boson
expansion: the amplitude is the spin one, written once and also used by
``apply_hamiltonian``.  The whole space still respects the global dimension
cap (spin 1/2 up to 12 sites, spin 1 up to 7 sites).  The dense Kronecker
builders ``heisenberg_hamiltonian`` and ``dirichlet_hamiltonian`` are the
independent check of the boson image.  The single-magnon check applies the
Hamiltonian matrix-free, which reaches millions of states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dispersion, fock, lattice, linalg
from ._errors import CapacityError, ValidationError

__all__ = [
    "SpinMatrices",
    "spin_matrices",
    "heisenberg_hamiltonian",
    "dirichlet_hamiltonian",
    "free_energy_per_spin",
    "apply_hamiltonian",
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
    if not isinstance(two_s, int) or two_s < 1:
        raise ValidationError("two_s must be a positive integer")
    s = two_s / 2.0
    n = np.arange(two_s + 1, dtype=np.float64)
    s3 = np.diag(n - s)
    sp = np.zeros((two_s + 1, two_s + 1))
    amp = np.sqrt((two_s - n[:-1]) * (n[:-1] + 1.0))
    sp[np.arange(1, two_s + 1), np.arange(two_s)] = amp
    return SpinMatrices(s3, sp, sp.T.copy())


def _embed_one(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    r = op.shape[0]
    m = op
    if site > 0:
        m = np.kron(m, np.eye(r**site))
    if site < n_sites - 1:
        m = np.kron(np.eye(r ** (n_sites - 1 - site)), m)
    return m


def _embed_two(op_a: np.ndarray, a: int, op_b: np.ndarray, b: int, n_sites: int) -> np.ndarray:
    """Embedding of a product of single-site operators on distinct sites."""
    if a == b:
        raise ValidationError("sites must be distinct")
    r = op_a.shape[0]
    lo, hi = (a, b) if a < b else (b, a)
    op_lo, op_hi = (op_a, op_b) if a < b else (op_b, op_a)
    m = op_hi
    if hi - lo - 1 > 0:
        m = np.kron(m, np.eye(r ** (hi - lo - 1)))
    m = np.kron(m, op_lo)
    if lo > 0:
        m = np.kron(m, np.eye(r**lo))
    if n_sites - 1 - hi > 0:
        m = np.kron(np.eye(r ** (n_sites - 1 - hi)), m)
    return m


def _check_dim(spec: lattice.LatticeSpec, two_s: int) -> int:
    dim = (two_s + 1) ** spec.n_sites
    if dim > linalg.DENSE_DIM_CAP:
        raise CapacityError(
            f"spin space dimension {dim} exceeds dense cap {linalg.DENSE_DIM_CAP}"
        )
    return dim


def heisenberg_hamiltonian(spec: lattice.LatticeSpec, two_s: int) -> np.ndarray:
    """Dense ``sum over bonds of (S^2 - S_x . S_y)``, real symmetric, PSD."""
    dim = _check_dim(spec, two_s)
    sm = spin_matrices(two_s)
    s = two_s / 2.0
    h = np.zeros((dim, dim))
    n_bonds = 0
    for i, j in lattice.nn_pairs(spec):
        h -= _embed_two(sm.s3, int(i), sm.s3, int(j), spec.n_sites)
        h -= 0.5 * _embed_two(sm.s_plus, int(i), sm.s_minus, int(j), spec.n_sites)
        h -= 0.5 * _embed_two(sm.s_minus, int(i), sm.s_plus, int(j), spec.n_sites)
        n_bonds += 1
    h[np.diag_indices(dim)] += n_bonds * s * s
    return h


def dirichlet_hamiltonian(spec: lattice.LatticeSpec, two_s: int) -> np.ndarray:
    """Spin Hamiltonian with frozen aligned neighbors outside the box.

    Each frozen bond at site ``x`` adds ``S^2 + S*S^3_x``; the per-site count
    is the frozen-bond multiplicity.
    """
    dim = _check_dim(spec, two_s)
    mult = lattice.boundary_multiplicity(spec)
    sm = spin_matrices(two_s)
    s = two_s / 2.0
    h = heisenberg_hamiltonian(spec, two_s)
    for x in np.nonzero(mult)[0]:
        h += mult[x] * s * _embed_one(sm.s3, int(x), spec.n_sites)
    h[np.diag_indices(dim)] += float(np.sum(mult)) * s * s
    return h


def _diagonal(spec: lattice.LatticeSpec, two_s: int, occ: np.ndarray, dirichlet: bool):
    """Diagonal of H on occupation rows ``occ``: ``S^2 - S^3_x S^3_y`` per bond,
    plus ``S^2 + S*S^3_x`` per frozen bond on Dirichlet boxes."""
    s = two_s / 2.0
    diag = np.zeros(occ.shape[0])
    for i, j in lattice.nn_pairs(spec):
        diag += s * s - (occ[:, i] - s) * (occ[:, j] - s)
    if dirichlet:
        mult = lattice.boundary_multiplicity(spec)
        for x in np.nonzero(mult)[0]:
            diag += mult[x] * (s * s + s * (occ[:, x] - s))
    return diag


def _hop_amplitude(two_s: int, n_x, n_y):
    """Amplitude of ``-(1/2) S^+_x S^-_y`` on a row holding ``n_x`` at ``x`` and ``n_y`` at ``y``.

    The term moves one unit from ``y`` to ``x``; the amplitude vanishes when
    ``n_x = 2S`` or ``n_y = 0``.
    """
    return -0.5 * np.sqrt((two_s - n_x) * (n_x + 1.0) * n_y * (two_s - n_y + 1.0))


def _sector_hamiltonian(sb, two_s: int, dirichlet: bool) -> np.ndarray:
    """Dense H on one fixed-total-``S^3`` sector (a ``fock.SectorBasis`` with ``n_max = 2S``)."""
    return fock._hop_operator(
        sb,
        _diagonal(sb.spec, two_s, sb.occupations, dirichlet),
        lambda nx, ny: _hop_amplitude(two_s, nx, ny),
    )


def free_energy_per_spin(
    spec: lattice.LatticeSpec, two_s: int, beta_tilde: float, dirichlet: bool = True
) -> float:
    """Exact ``f/S`` of the box at spin-wave inverse temperature ``beta_tilde``.

    The physical inverse temperature is ``beta_tilde / S``.  The trace is
    taken sector by sector in total ``S^3``, which H conserves.
    """
    _check_dim(spec, two_s)
    s = two_s / 2.0
    beta = beta_tilde / s
    _, log_z = fock.gibbs_expectation_truncated(
        spec,
        two_s,
        beta,
        None,
        hamiltonian=lambda sb: _sector_hamiltonian(sb, two_s, dirichlet),
    )
    return -log_z / (beta * spec.n_sites) / s


def apply_hamiltonian(
    spec: lattice.LatticeSpec, two_s: int, vec: np.ndarray, dirichlet: bool = False
) -> np.ndarray:
    """Matrix-free ``H @ vec`` in the mixed-radix spin basis.

    Memory stays at a few copies of the state vector per site, so boxes far
    beyond the dense cap are reachable.
    """
    r = two_s + 1
    dim = r**spec.n_sites
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (dim,):
        raise ValidationError(f"state vector must have length {dim}")
    idx = np.arange(dim, dtype=np.int64)
    strides = r ** np.arange(spec.n_sites, dtype=np.int64)
    occ = ((idx // strides[:, None]) % r).T
    out = _diagonal(spec, two_s, occ, dirichlet) * vec
    for i, j in lattice.nn_pairs(spec):
        for x, y in ((i, j), (j, i)):
            nx, ny = occ[:, x], occ[:, y]
            rows = np.nonzero((nx < two_s) & (ny > 0))[0]
            # one ordered bond moves distinct rows to distinct rows
            amp = _hop_amplitude(two_s, nx[rows], ny[rows])
            out[rows + strides[x] - strides[y]] += amp * vec[rows]
    return out


def magnon_check(spec: lattice.LatticeSpec, two_s: int, k) -> float:
    """Residual of the single-magnon eigenvalue equation on the torus.

    Builds ``|k> = l^{-d/2} sum_x e^{ikx} S^+_x |ground> / sqrt(2S)`` and
    returns the relative residual of ``H |k> = S eps(k) |k>``, applying the
    full many-body Hamiltonian matrix-free (real and imaginary parts
    separately).
    """
    if spec.boundary is not lattice.Boundary.PERIODIC:
        raise ValidationError("the magnon check runs on periodic boxes")
    k = np.asarray(k, dtype=np.float64)
    if k.shape != (spec.d,):
        raise ValidationError("momentum must have one component per dimension")
    kmat = lattice.periodic_modes(spec)
    if not np.any(np.all(np.abs(kmat - k) < 1e-9, axis=1)):
        raise ValidationError(f"momentum {k} is not on the torus grid")
    r = two_s + 1
    dim = r**spec.n_sites
    xs = lattice.sites(spec)
    phase = xs @ k
    s = two_s / 2.0
    target = s * float(dispersion.epsilon(k))
    vc = np.zeros(dim)
    vs = np.zeros(dim)
    # the state with a single unit on site x sits at index r**x
    one_boson = r ** np.arange(spec.n_sites, dtype=np.int64)
    norm = spec.n_sites ** -0.5
    vc[one_boson] = norm * np.cos(phase)
    vs[one_boson] = norm * np.sin(phase)
    res2 = 0.0
    nrm2 = 0.0
    for v in (vc, vs):
        hv = apply_hamiltonian(spec, two_s, v)
        res2 += float(np.sum((hv - target * v) ** 2))
        nrm2 += float(np.sum(v**2))
    if not nrm2 > 0.0:
        raise ValidationError("magnon vector vanished")
    return float(np.sqrt(res2 / nrm2))


def hp_equivalence_check(spec: lattice.LatticeSpec, two_s: int) -> float:
    """Max-norm difference between the spin Hamiltonian and its boson image.

    Uses the uncapped identification ``n_max = 2S``; the two matrices agree
    to rounding error.  Dirichlet boxes compare the penalized pair.
    """
    basis = fock.FockBasis(spec, two_s)
    hp = fock.hp_hamiltonian(basis, two_s)
    s = two_s / 2.0
    if spec.boundary is lattice.Boundary.DIRICHLET:
        h_spin = dirichlet_hamiltonian(spec, two_s)
        mult = lattice.boundary_multiplicity(spec).astype(np.float64)
        hp = hp + np.diag(s * (basis.occupations @ mult))
    else:
        h_spin = heisenberg_hamiltonian(spec, two_s)
    return float(np.max(np.abs(h_spin - hp)))
