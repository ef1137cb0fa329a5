"""Finite boxes, their bond structure, and the eigenmodes of the hopping matrix.

A Dirichlet box of side ``ell`` in ``d`` dimensions has sites ``{1..ell}^d``.
Freezing the spins just outside the box turns each bond that would leave it
into a diagonal penalty; ``boundary_multiplicity`` counts, per site, how many
such frozen bonds it has.  With that penalty included, the one-particle
hopping matrix is diagonalized by products of sines with momenta
``pi/(ell+1) * {1,...,ell}^d``.

A periodic box (torus) keeps all ``d*ell^d`` bonds and is diagonalized by
plane waves with momenta ``2*pi/ell * {0,...,ell-1}^d``, reported in
``(-pi, pi]``.

Sites and modes are both enumerated in lexicographic order of their integer
labels, and every function that returns per-site or per-mode arrays uses that
fixed order.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from ._errors import ValidationError

__all__ = [
    "Boundary",
    "LatticeSpec",
    "sites",
    "site_index",
    "nn_pairs",
    "boundary_multiplicity",
    "dirichlet_modes",
    "periodic_modes",
    "eigenfunction",
    "eigenfunction_matrix",
    "one_particle_kinetic",
]


class Boundary(str, enum.Enum):
    DIRICHLET = "dirichlet"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class LatticeSpec:
    """Box geometry: dimension ``d``, side length ``ell``, boundary condition.

    Dirichlet boxes allow ``ell >= 1`` (the single-site chain is a useful
    brute-force oracle); periodic boxes need ``ell >= 3`` so that the two
    neighbors of a site are distinct and no bond is double-counted.
    """

    d: int
    ell: int
    boundary: Boundary = Boundary.DIRICHLET

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d not in (1, 2, 3):
            raise ValidationError(f"dimension must be 1, 2 or 3, got {self.d!r}")
        if not isinstance(self.ell, int) or self.ell < 1:
            raise ValidationError(f"side length must be a positive integer, got {self.ell!r}")
        bc = Boundary(self.boundary)
        object.__setattr__(self, "boundary", bc)
        if bc is Boundary.PERIODIC and self.ell < 3:
            raise ValidationError("periodic boxes need ell >= 3 to avoid duplicate bonds")

    @property
    def n_sites(self) -> int:
        return self.ell**self.d


def sites(spec: LatticeSpec) -> np.ndarray:
    """Integer coordinates of all sites, shape ``(ell^d, d)``, lexicographic.

    Coordinates run from 1 to ``ell`` in each direction for both boundary
    conditions.
    """
    axes = [np.arange(1, spec.ell + 1)] * spec.d
    grid = np.array(list(itertools.product(*axes)), dtype=np.int64)
    return grid.reshape(spec.n_sites, spec.d)


def site_index(spec: LatticeSpec, x) -> int:
    """Index of coordinate tuple ``x`` in the ``sites`` ordering."""
    idx = 0
    for c in x:
        if not 1 <= c <= spec.ell:
            raise ValidationError(f"coordinate {x} outside the box")
        idx = idx * spec.ell + (int(c) - 1)
    return idx


def nn_pairs(spec: LatticeSpec) -> np.ndarray:
    """Unordered nearest-neighbor bonds as index pairs, shape ``(n_bonds, 2)``.

    Dirichlet: bonds ``(x, x+e_j)`` whenever the neighbor stays in the box,
    ``d * ell^(d-1) * (ell-1)`` in total.  Periodic: every site has a forward
    bond in each direction (wrapping around), ``d * ell^d`` in total.
    """
    xs = sites(spec)
    n = spec.n_sites
    stride = np.array([spec.ell ** (spec.d - 1 - j) for j in range(spec.d)], dtype=np.int64)
    pairs = []
    for j in range(spec.d):
        if spec.boundary is Boundary.DIRICHLET:
            mask = xs[:, j] < spec.ell
            src = np.nonzero(mask)[0]
            dst = src + stride[j]
        else:
            src = np.arange(n)
            wrap = xs[:, j] == spec.ell
            dst = np.where(wrap, src - (spec.ell - 1) * stride[j], src + stride[j])
        pairs.append(np.column_stack([src, dst]))
    return np.concatenate(pairs, axis=0)


def boundary_multiplicity(spec: LatticeSpec) -> np.ndarray:
    """Number of frozen outside bonds per site, shape ``(ell^d,)``.

    A coordinate equal to 1 and a coordinate equal to ``ell`` each contribute
    one frozen bond; for ``ell == 1`` both fire, giving ``2*d`` on the single
    site.  This per-bond count (rather than a 0/1 boundary indicator) is what
    makes the one-particle kinetic matrix exactly sine-diagonalizable.
    """
    if spec.boundary is not Boundary.DIRICHLET:
        raise ValidationError("boundary multiplicity is only defined for Dirichlet boxes")
    xs = sites(spec)
    return ((xs == 1).sum(axis=1) + (xs == spec.ell).sum(axis=1)).astype(np.int64)


def dirichlet_modes(spec: LatticeSpec) -> np.ndarray:
    """Sine-mode momenta ``pi/(ell+1) * {1..ell}^d``, shape ``(ell^d, d)``."""
    if spec.boundary is not Boundary.DIRICHLET:
        raise ValidationError("sine modes belong to Dirichlet boxes")
    labels = sites(spec).astype(np.float64)
    return labels * (np.pi / (spec.ell + 1))


def periodic_modes(spec: LatticeSpec) -> np.ndarray:
    """Plane-wave momenta ``2*pi*j/ell``, ``j in {0..ell-1}^d``, in ``(-pi, pi]``.

    Lexicographic in ``j``, so the zero mode sits at index 0.
    """
    if spec.boundary is not Boundary.PERIODIC:
        raise ValidationError("plane-wave modes belong to periodic boxes")
    labels = sites(spec).astype(np.float64) - 1.0
    k = labels * (2.0 * np.pi / spec.ell)
    k = np.where(k > np.pi, k - 2.0 * np.pi, k)
    return k


def eigenfunction(spec: LatticeSpec, k, x) -> float:
    """Normalized sine mode ``phi_k(x)`` of the Dirichlet box.

    ``phi_k(x) = (2/(ell+1))^(d/2) * prod_j sin(x_j k_j)``, orthonormal over
    the box.  ``k`` must lie on the mode grid.
    """
    if spec.boundary is not Boundary.DIRICHLET:
        raise ValidationError("sine modes belong to Dirichlet boxes")
    k = np.atleast_1d(np.asarray(k, dtype=np.float64))
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if k.shape != (spec.d,) or x.shape != (spec.d,):
        raise ValidationError("k and x must both have one entry per dimension")
    labels = k * (spec.ell + 1) / np.pi
    rounded = np.rint(labels)
    if np.max(np.abs(labels - rounded)) > 1e-9 or np.any(rounded < 1) or np.any(rounded > spec.ell):
        raise ValidationError(f"momentum {k} is not on the mode grid of ell={spec.ell}")
    return float((2.0 / (spec.ell + 1)) ** (spec.d / 2.0) * np.prod(np.sin(x * k)))


def eigenfunction_matrix(spec: LatticeSpec) -> np.ndarray:
    """Orthogonal matrix ``Phi[site, mode]`` of all sine modes.

    Built as a Kronecker product of the 1d sine transform, so rows follow the
    ``sites`` order and columns the ``dirichlet_modes`` order.
    """
    if spec.boundary is not Boundary.DIRICHLET:
        raise ValidationError("sine modes belong to Dirichlet boxes")
    grid = np.arange(1, spec.ell + 1)
    phi1 = np.sqrt(2.0 / (spec.ell + 1)) * np.sin(
        np.pi * np.outer(grid, grid) / (spec.ell + 1)
    )
    out = phi1
    for _ in range(spec.d - 1):
        out = np.kron(out, phi1)
    return out


def one_particle_kinetic(spec: LatticeSpec) -> np.ndarray:
    """One-particle hopping matrix ``h[x,y]`` of the kinetic form.

    Each bond contributes +1 to both diagonal entries and -1 to the two
    off-diagonal entries; Dirichlet boxes additionally get the frozen-bond
    multiplicity on the diagonal.  For Dirichlet boundary conditions the
    eigenvalues are exactly ``{eps(k) : k on the sine grid}``.
    """
    n = spec.n_sites
    h = np.zeros((n, n))
    for i, j in nn_pairs(spec):
        h[i, i] += 1.0
        h[j, j] += 1.0
        h[i, j] -= 1.0
        h[j, i] -= 1.0
    if spec.boundary is Boundary.DIRICHLET:
        h[np.diag_indices(n)] += boundary_multiplicity(spec)
    return h
