"""Finite boxes, their bonds, and the momenta that diagonalize the hopping matrix.

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

A box's geometry (``sites``, ``nn_pairs``, ``boundary_multiplicity``) is a
pure function of its frozen, hashable ``LatticeSpec``, so each is memoized
for the box asked about most recently (``_memoized``): calls that alternate
between boxes rebuild it, which costs little next to any work on a box.
The arrays are shared between callers and therefore read-only: writing into
one raises ``ValueError``.  Larger per-box data is held in memos of several
boxes at once, so that interleaved work on several boxes finds each box's
data; each carries its own float budget (``_Memo``).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from ._errors import ValidationError, integer

__all__ = [
    "Boundary",
    "LatticeSpec",
    "sites",
    "nn_pairs",
    "boundary_multiplicity",
    "dirichlet_modes",
    "periodic_modes",
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
        integer(self.d, f"dimension must be 1, 2 or 3, got {self.d!r}", 1, 3)
        integer(self.ell, f"side length must be a positive integer, got {self.ell!r}")
        try:
            bc = Boundary(self.boundary)
        except ValueError:
            raise ValidationError(f"unknown boundary {self.boundary!r}") from None
        object.__setattr__(self, "boundary", bc)
        if bc is Boundary.PERIODIC and self.ell < 3:
            raise ValidationError("periodic boxes need ell >= 3 to avoid duplicate bonds")

    @property
    def n_sites(self) -> int:
        return self.ell**self.d


def _memoized(fn):
    """Memoize a pure function of hashable arguments, keeping only its latest call.

    One entry catches the repeats of a run of calls on one box; calls that
    alternate between boxes miss every time, so it suits only results that
    are cheap to rebuild (use ``_Memo`` for the rest).  Callers share the
    arrays it returns (one array or a tuple of them), so they are made
    read-only; any other result is passed through as is.
    """

    @functools.lru_cache(maxsize=1)
    def cached(*args, **kwargs):
        out = fn(*args, **kwargs)
        for a in out if isinstance(out, tuple) else (out,):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        return out

    # a plain function in front of the cache, so the name still
    # introspects (and can be wrapped) like the function it memoizes
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return cached(*args, **kwargs)

    return wrapper


class _Memo(dict):
    """``{key: value}`` kept least recently used first, holding at most ``cap`` floats.

    Every memo of the package keeps this one rule.  It holds whole entries,
    stored by ``put`` as the most recent; past ``cap`` it drops the least
    recently used first, and an entry larger than ``cap`` alone is never
    stored and drops nothing.  ``get`` marks the entry it finds as the most
    recent and changes nothing else, so a caller calls ``put`` only for what
    it has just computed, and a caller that raises leaves the memo as it
    was.  Each entry's float count is kept beside it, so a store costs only
    the entries it drops.
    """

    def __init__(self, cap: int):
        super().__init__()
        self.cap = cap
        self._sizes = {}
        self.floats = 0  # held in all

    def get(self, key):
        """The value under ``key``, now the most recent, or ``None``."""
        if key not in self:
            return None
        value = self[key] = self.pop(key)
        return value

    def put(self, key, value, floats: int) -> None:
        """Store ``value``, which holds ``floats`` floats, as the most recent."""
        if floats > self.cap:
            return
        self.pop(key, None)
        self.floats += floats - self._sizes.pop(key, 0)
        self[key] = value
        self._sizes[key] = floats
        while self.floats > self.cap:
            oldest = next(iter(self))
            self.floats -= self._sizes.pop(oldest)
            del self[oldest]


@_memoized
def sites(spec: LatticeSpec) -> np.ndarray:
    """Integer coordinates of all sites, shape ``(ell^d, d)``, lexicographic.

    Coordinates run from 1 to ``ell`` in each direction for both boundary
    conditions.
    """
    return np.stack(np.indices((spec.ell,) * spec.d), axis=-1).reshape(-1, spec.d) + 1


@_memoized
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


@_memoized
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

