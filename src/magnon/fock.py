"""Truncated bosonic Fock space on a finite box, and the spin-wave expansion.

States are occupation vectors with a per-site cap ``n_max``; the basis index
is mixed-radix with site 0 least significant, sites in lexicographic order.
The same convention is used for the spin basis, so the boson image of a spin
Hamiltonian can be compared entry by entry.

The physical Hamiltonian maps to bosons with hopping amplitudes dressed by
``sqrt(1 - n/2S)`` factors.  Expanding those square roots in ``1/S`` yields
the hierarchy implemented here: a quadratic kinetic form, a quartic
correction of order ``1/S``, and the remainder defined by subtraction, so
that the pieces resum exactly on the capped space.

Every off-diagonal term of these operators moves one boson along a bond, and
so does the spin Hamiltonian's ``S^+_x S^-_y``.  A basis is therefore built
whole: its rows and the hop table ``hops`` of all such moves (``_hop_table``),
both read-only.  Each operator is its diagonal plus one scatter of an
amplitude ``amp(n_x, n_y)`` over the table.  All dense matrices, and
``FockBasis``, respect the global dimension cap.  Every thermal
trace in the package is sector-blocked: the Hamiltonians it traces conserve
the total number, so ``gibbs_expectation_truncated`` diagonalizes one
fixed-total sector (``SectorBasis``) at a time, which also reaches capped
spaces far beyond the cap.  The remainder ``R`` beyond the quartic is built
on the traced sector itself, on its rows with occupations at most ``2S``
(``remainder``), so it needs no basis of its own.

A trace takes its Hamiltonian and its observables in one shape, a tuple
``(fn, *params)`` with ``fn(sb, *params)`` called on each sector basis.  A
sector's eigenvalues and its observables' eigenbasis diagonals do not
depend on the temperature, so a trace seen before, at any temperature,
skips every eigensolve and gives the same bits.  The spectra are kept
packed, every sector's eigenvalues less the lowest in one array and the
diagonals in another, so a hit costs one ``exp`` over the whole trace and
two pairwise sums, with no loop over the sectors.  Their key holds the
observables' parameters, so a trace that should serve every spin leaves
the spin out of them: the CLI's quartic trace (``wick-verify``,
``verify``) is of ``quartic`` at ``2S = 2``, which is ``S I``, and divides
by ``S`` after the thermal pass.  Another observable set on a Hamiltonian
whose eigensystems are held (the Wick checks at each spin) runs no
eigensolve and builds no Hamiltonian; a log-Z-only trace
(``linalg.eigvalsh``, spin ED) neither reads nor fills the eigensystem
memo.  The traces of a box share its sector bases and hop tables, also
when traces of other boxes come in between.  Four memos hold what the
traces and the torus scans reuse, each a ``lattice._Memo``, whose docstring
states the one rule they all keep (the sector memo's cap counts the
entries of the bases' rows and hop tables, the others' floats):

===================== =================================== ============================ ====
memo                  key                                 value                        cap
===================== =================================== ============================ ====
``_sector_memo``      ``(spec, n_max)``                   ``{n_total: SectorBasis}``   2^17
``_eigensystem_memo`` ``(spec, n_max, top, hamiltonian)`` ``(w, v)`` of each sector    2^18
``_spectra_memo``     that key and ``observables``        ``(shift, gaps, diagonals)`` 2^20
``diagrams._tori``    ``ell``                             ``PeriodicGrid``             2^20
===================== =================================== ============================ ====
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from . import lattice, linalg
from ._errors import CapacityError, ValidationError, cutoff, integer, inverse_temperature, spin

__all__ = [
    "FockBasis",
    "SectorBasis",
    "kinetic",
    "kinetic_dirichlet",
    "quartic",
    "hp_hamiltonian",
    "remainder",
    "projector_mask",
    "gibbs_expectation_truncated",
]


def _max_sites(radix: int, cap: int) -> int:
    """The most sites whose space ``radix^sites`` fits under ``cap``.

    Found by integer multiplication, in at most ``log2(cap)`` steps, so a
    huge box is refused without its dimension ever being formed.
    """
    sites, dim = 0, radix
    while dim <= cap:
        sites, dim = sites + 1, dim * radix
    return sites


class FockBasis:
    """Full occupation basis with per-site cap ``n_max``, within the dense cap."""

    def __init__(self, spec: lattice.LatticeSpec, n_max: int):
        self.spec = spec
        self.n_max = cutoff(n_max)
        self.n_sites = spec.n_sites
        self.dim = dim = _check_dense_space(spec, n_max)
        radix = n_max + 1
        self.strides = radix ** np.arange(self.n_sites, dtype=np.int64)
        idx = np.arange(dim, dtype=np.int64)
        rows = (idx[:, None] // self.strides[None, :]) % radix
        rows.flags.writeable = False
        self.occupations = rows
        self.hops = _hop_table(self)

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
        self.spec = spec
        self.n_max = cutoff(n_max)
        self.n_total = integer(n_total, "n_total must be a nonnegative integer", 0)
        self.n_sites = spec.n_sites
        # counts[m, t]: compositions of t into m parts in [0, n_max]; every
        # total past n_sites * n_max has none, so the table stops there
        top = min(n_total, self.n_sites * n_max)
        counts = np.zeros((self.n_sites + 1, top + 1), dtype=np.int64)
        counts[0, 0] = 1
        ones = np.ones(n_max + 1, dtype=np.int64)
        for m in range(1, self.n_sites + 1):
            counts[m] = np.convolve(counts[m - 1], ones)[: top + 1]
        # cum[m, t + 1] = sum of counts[m, :t + 1], so cum[m, 0] = 0
        self._cum = np.concatenate(
            [np.zeros((self.n_sites + 1, 1), np.int64), np.cumsum(counts, axis=1)], axis=1
        )
        # grow the prefixes site by site, then fill the rows back through parents
        parents, entries = [], []
        left = np.array([n_total], dtype=np.int64)
        for site in range(self.n_sites):
            lo = np.maximum(0, left - n_max * (self.n_sites - 1 - site))
            width = np.maximum(np.minimum(n_max, left) - lo + 1, 0)
            parent = np.repeat(np.arange(left.size), width)
            v = lo[parent] + np.arange(parent.size) - np.repeat(np.cumsum(width) - width, width)
            parents.append(parent)
            entries.append(v)
            left = left[parent] - v
        rows = np.empty((left.size, self.n_sites), dtype=np.int64)
        node = np.arange(left.size)
        for site in range(self.n_sites - 1, -1, -1):
            rows[:, site] = entries[site][node]
            node = parents[site][node]
        rows.flags.writeable = False  # shared by every trace of the box
        self.occupations = rows
        self.dim = len(rows)
        self.hops = _hop_table(self)

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


def _check_dense(dim: int):
    if dim > linalg.DENSE_DIM_CAP:
        raise CapacityError(f"dense operator of dimension {dim} exceeds cap")


def _check_dense_space(spec: lattice.LatticeSpec, n_max: int) -> int:
    """Dimension ``(n_max + 1)^sites`` of a box's whole capped space.

    The one cap rule of every dense route over a whole space: above
    ``linalg.DENSE_DIM_CAP`` it raises ``CapacityError``.
    """
    n_max = cutoff(n_max)
    if spec.n_sites > _max_sites(n_max + 1, linalg.DENSE_DIM_CAP):
        # the power: a large box's dimension has more digits than Python prints
        raise CapacityError(
            f"space dimension {n_max + 1}^{spec.n_sites} exceeds dense cap "
            f"{linalg.DENSE_DIM_CAP}"
        )
    return (n_max + 1) ** spec.n_sites


def _hop_table(basis):
    """Every move of one boson along a bond, ``y -> x``, that stays in ``basis``.

    Returns ``(src, tgt, n_x, n_y)``: the move takes row ``src`` to row
    ``tgt``, and ``n_x``, ``n_y`` are the occupations of the receiving and
    the giving site in row ``src``.  Each ordered bond shifts a row by its own
    vector, so the ``(tgt, src)`` pairs are distinct and off the diagonal.
    All moves are located in one batched ``_locate``.  Each basis calls this
    once, as the last step of its construction, and keeps the read-only
    arrays as ``hops``, so every operator of a basis shares them.
    """
    occ = basis.occupations
    bonds = lattice.nn_pairs(basis.spec)
    ordered = np.concatenate([bonds, bonds[:, ::-1]])
    xs, ys = ordered[:, 0], ordered[:, 1]
    src, b = np.nonzero((occ[:, xs] < basis.n_max) & (occ[:, ys] > 0))
    x, y = xs[b], ys[b]
    moved = occ[src]
    k = np.arange(src.size)
    moved[k, x] += 1
    moved[k, y] -= 1
    table = (src, basis._locate(moved), occ[src, x], occ[src, y])
    for a in table:
        a.flags.writeable = False
    return table


def _hop_operator(
    basis, diag: np.ndarray, amplitude: Callable, keep: Optional[np.ndarray] = None
) -> np.ndarray:
    """Dense ``diag(diag)`` plus ``amplitude(n_x, n_y)`` on every move of the hop table.

    With a row mask ``keep``, only the rows and moves inside it are filled
    and every other entry is zero; ``amplitude`` then sees only those moves.
    """
    _check_dense(basis.dim)
    src, tgt, n_x, n_y = basis.hops
    if keep is not None:
        inside = keep[src] & keep[tgt]
        src, tgt, n_x, n_y = src[inside], tgt[inside], n_x[inside], n_y[inside]
        diag = np.where(keep, diag, 0.0)
    m = np.diag(diag)
    m[tgt, src] = amplitude(n_x, n_y)
    return m


def _bond_diagonal(basis, weights_fn) -> np.ndarray:
    """Diagonal vector sum over bonds of a per-bond occupation function.

    ``weights_fn`` gets the ``(dim, n_bonds)`` occupations of every bond's
    two sites at once.
    """
    occ = basis.occupations
    pairs = lattice.nn_pairs(basis.spec)
    per_bond = weights_fn(occ[:, pairs[:, 0]], occ[:, pairs[:, 1]])
    # weights on a grid of 1/4 (spin ED's are quarter-integers): every
    # summation order gives the same bits
    return np.sum(per_bond, axis=1, dtype=np.float64)


# Each operator below as its diagonal and its hop amplitude, so that
# ``remainder`` combines the very same floats.


def _kinetic_terms(basis):
    return (
        _bond_diagonal(basis, lambda ni, nj: ni + nj),
        lambda nx, ny: -np.sqrt((nx + 1) * ny),
    )


def _quartic_terms(basis, s: float):
    return (
        -_bond_diagonal(basis, lambda ni, nj: (ni * nj).astype(np.float64)) / s,
        lambda nx, ny: np.sqrt((nx + 1) * ny) * (nx + ny - 1) / (4.0 * s),
    )


def _hp_terms(basis, two_s: int, s: float):
    return (
        _bond_diagonal(basis, lambda ni, nj: s * (ni + nj) - (ni * nj).astype(np.float64)),
        lambda nx, ny: -s
        * np.sqrt((nx + 1.0) * ny * (1.0 - nx / two_s) * (1.0 - (ny - 1.0) / two_s)),
    )


def kinetic(basis) -> np.ndarray:
    """Quadratic hopping form: per bond ``-a*_x a_y - a*_y a_x + n_x + n_y``."""
    return _hop_operator(basis, *_kinetic_terms(basis))


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
    + a*_y a*_y a_y a_x - 4 a*_x a*_y a_x a_y) / (4S)``.  The first two
    monomials move a boson ``y -> x`` with amplitudes ``n_x sqrt((n_x+1) n_y)``
    and ``(n_y-1) sqrt((n_x+1) n_y)``, the next two ``x -> y``; the last one
    is diagonal.
    """
    return _hop_operator(basis, *_quartic_terms(basis, spin(two_s)))


def hp_hamiltonian(basis, two_s: int) -> np.ndarray:
    """Boson image of the spin Hamiltonian on the capped basis, in units of 1.

    ``S * sum over bonds of (-a*_x g(n_x) g(n_y - 1) a_y - h.c. + n_x + n_y
    - n_x n_y / S)`` with ``g(n) = sqrt(1 - n/2S)``.  Requires
    ``n_max <= 2S`` so all square roots are real; with ``n_max == 2S`` the
    matrix equals the spin Hamiltonian exactly.
    """
    s = spin(two_s)
    if basis.n_max > two_s:
        raise ValidationError("hp_hamiltonian needs n_max <= two_s for real amplitudes")
    return _hop_operator(basis, *_hp_terms(basis, two_s, s))


def remainder(basis, two_s: int) -> np.ndarray:
    """Remainder ``R = H/S - T - I`` beyond the quartic, zero off the rows of ``projector_mask``.

    ``R`` exists only where no site holds more than ``2S`` bosons.  Its
    entries are ``hp_hamiltonian / S - kinetic - quartic`` from those
    operators' own diagonals and hop amplitudes, so they have the bits of
    that dense subtraction on the ``n_max = 2S`` basis.
    """
    s = spin(two_s)
    (hd, ha), (kd, ka), (qd, qa) = (
        _hp_terms(basis, two_s, s), _kinetic_terms(basis), _quartic_terms(basis, s)
    )
    return _hop_operator(
        basis,
        hd / s - kd - qd,
        lambda nx, ny: ha(nx, ny) / s - ka(nx, ny) - qa(nx, ny),
        projector_mask(basis, two_s),
    )


def projector_mask(basis, two_s: int) -> np.ndarray:
    """Boolean mask of states with every site occupation at most ``2S``."""
    spin(two_s)
    return (basis.occupations <= two_s).all(axis=1)


# the memos of the module docstring's table
_sector_memo = lattice._Memo(2**17)
_spectra_memo = lattice._Memo(2**20)
_eigensystem_memo = lattice._Memo(2**18)


def _spectra_floats(spectra) -> int:
    _, gaps, diagonals = spectra
    return gaps.size + diagonals.size


def _sector_floats(sectors: dict) -> int:
    """Entries of the sector bases' rows and of the hop tables they carry."""
    return sum(
        sb.occupations.size + sum(a.size for a in sb.hops) for sb in sectors.values()
    )


def _sector_spectrum(sb, hamiltonian: tuple, observables: Optional[tuple], held, kept):
    """Eigenvalues ``w`` of one sector and each observable's eigenbasis diagonal.

    The eigensystem ``(w, v)`` is ``held`` when that is not ``None``, else
    it comes from ``linalg.eigh``, and it is appended, read-only, to the
    list ``kept`` unless that is ``None``; ``observables=None`` runs
    ``linalg.eigvalsh`` alone.  The sector's Hamiltonian is built only for a
    solve.  It, the eigenvectors and the observables are dropped on return,
    before the next sector is built, unless ``kept`` holds them.
    """
    fn, *params = hamiltonian
    if observables is None:
        return linalg.eigvalsh(fn(sb, *params)), []
    h = None if held else fn(sb, *params)  # kept to the return: freed early, it raised peak RSS
    w, v = held or linalg.eigh(h)
    if kept is not None:
        w.flags.writeable = v.flags.writeable = False
        kept.append((w, v))
    fn, *params = observables
    diags = []
    for a in fn(sb, *params):
        a = np.asarray(a, dtype=np.float64)
        if a.shape == (sb.dim,):
            diags.append(a @ (v * v))
        elif a.shape == (sb.dim, sb.dim):
            diags.append(np.einsum("ij,ji->i", v.T @ a, v))
        else:
            raise ValidationError("observable has wrong sector dimension")
    return w, diags


def _spectral_pass(spec, n_max: int, top: int, hamiltonian: tuple, observables: Optional[tuple]):
    """The sectors ``0..top`` of a trace, one ``_sector_spectrum`` each, packed.

    Returns ``(shift, gaps, diagonals)``: ``shift`` is the lowest eigenvalue
    of all sectors, ``gaps`` every sector's eigenvalues minus ``shift`` in
    one array, sector after sector, and ``diagonals`` the ``(k,
    len(gaps))`` array of the ``k`` observables' eigenbasis diagonals in the
    same order.

    The pass works on a copy of its box's table in ``_sector_memo``, and
    stores the copy at the end only if it built a sector basis there.  The
    trace's eigensystems come from ``_eigensystem_memo`` if held there, else
    from ``eigh``; a trace not held keeps them only while they and the next
    sector's fit that memo's ``cap``, and stores them at the end.
    """
    held_sectors = _sector_memo.get((spec, n_max)) or {}
    sectors = dict(held_sectors)
    key = (spec, n_max, top, hamiltonian)
    held = None if observables is None else _eigensystem_memo.get(key)
    kept = None if observables is None or held else []
    floats = 0
    ws, diags = [], []
    for n_total in range(top + 1):
        sb = sectors.get(n_total)
        if sb is None:
            sb = sectors[n_total] = SectorBasis(spec, n_max, n_total)
        floats += sb.dim * (sb.dim + 1)
        if floats > _eigensystem_memo.cap:
            kept = None  # dropped before the solve that would overflow it
        w, d = _sector_spectrum(sb, hamiltonian, observables, held and held[n_total], kept)
        ws.append(w)
        diags.append(np.reshape(d, (len(d), w.size)))
    if len(sectors) > len(held_sectors):
        _sector_memo.put((spec, n_max), sectors, _sector_floats(sectors))
    if kept is not None:
        _eigensystem_memo.put(key, tuple(kept), floats)
    shift = min(float(w[0]) for w in ws)
    return shift, np.concatenate(ws) - shift, np.concatenate(diags, axis=1)


def gibbs_expectation_truncated(
    spec: lattice.LatticeSpec,
    n_max: int,
    beta_tilde: float,
    observables: Optional[tuple],
    hamiltonian: Optional[tuple] = None,
    max_total: Optional[int] = None,
):
    """Thermal expectations on the capped space via total-number sectors.

    The kinetic Hamiltonians, all expansion pieces and the spin Hamiltonian
    conserve total particle number, so ``tr(A e^{-beta H})`` splits over
    sectors; each sector is diagonalized densely.  ``hamiltonian`` and
    ``observables`` take one shape, a tuple ``(fn, *params)`` whose
    ``fn(sb, *params)`` is called on a sector basis.  The Hamiltonian's
    ``fn`` returns the sector's dense Hamiltonian (default: the Dirichlet
    kinetic form), at inverse temperature ``beta_tilde`` in its own energy
    unit, and is called only for a sector that must be diagonalized.  The
    observables' ``fn`` returns their list on the sector, each a dense
    matrix or, for a diagonal observable, the vector of its diagonal, and is
    called once per sector, so pieces shared between observables are built
    once.  With ``observables=None`` only ``log Z`` is wanted, and each
    sector needs its eigenvalues alone (``linalg.eigvalsh``).  ``max_total``
    optionally caps the total number; with ground energies growing linearly
    in the sector number the neglected weight decays geometrically.

    The trace runs in two passes.  The spectral pass, free of the
    temperature, keeps each sector's eigenvalues and each observable's
    diagonal in the eigenbasis.  It is memoized by ``(spec, n_max, top
    sector, hamiltonian, observables)``, so the functions must be pure and
    their parameters hashable: a trace seen before, at any temperature,
    skips every eigensolve.  Each parameter splits the key: an observable
    built at each spin gets one spectral pass per spin, so a caller that can
    scale the spin out after the thermal pass traces the spin-free operator
    (the CLI's quartic trace is ``S I``, keyed without the spin).  The
    spectra are stored in ``_spectra_memo``.  The thermal pass weighs them at
    ``beta_tilde``; a hit runs the same thermal pass over the same arrays as
    a miss, so both give the same bits.

    The spectra are stored packed (``_spectral_pass``): the gaps of all
    sectors' eigenvalues above the lowest one in one array, and the ``k``
    observables' diagonals in one ``(k, len(gaps))`` array.  A hit costs one
    ``exp`` and two pairwise sums over the whole trace, ``Z`` and the
    weighted diagonals, with no loop over the sectors; a log-Z-only trace
    has ``k = 0``.  Summed over the trace at once, they round apart from
    weighing the sectors one at a time, within ``len(gaps)`` roundoffs
    times the sum of the terms' magnitudes (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., section 4).  They are numpy's sums,
    not a BLAS product whose threads could split a long sum by core count.

    A spectral miss reads the sectors' eigensystems ``(w, v)`` from
    ``_eigensystem_memo``, keyed by the trace without its observables: a
    held trace builds its observables but no Hamiltonian and runs no
    eigensolve.  A held eigensystem is the array pair ``linalg.eigh``
    returned, read-only, so the diagonals have the bits of a cold trace.  A
    trace not held solves every sector and stores its eigensystems as one
    entry after its last sector, if they fit that memo's ``cap``.  It drops
    those it collected before the first sector that would not fit is
    solved, so it never holds more than ``cap`` floats of them.
    ``observables=None`` neither reads nor fills that memo, since
    ``eigvalsh`` rounds apart from ``eigh``.

    The sector bases, read-only with their hop tables, are shared by every
    spectral pass of the same ``(spec, n_max)`` box, through
    ``_sector_memo``: the spin-ED trace and the box bound build them once.

    Boltzmann weights are taken relative to the lowest eigenvalue of all
    the stored spectra, so each is at most 1 and nothing overflows however
    large ``beta_tilde`` is.

    Returns ``(values, log_z)``.
    """
    beta_tilde = inverse_temperature(beta_tilde)
    # integers, so that a hit never answers where a miss would refuse
    cutoff(n_max)
    if max_total is not None:
        integer(max_total, "max_total must be a nonnegative integer", 0)
    ham = hamiltonian if hamiltonian is not None else (kinetic_dirichlet,)
    for arg in (ham,) if observables is None else (ham, observables):
        if not (isinstance(arg, tuple) and arg and callable(arg[0])):
            raise ValidationError("hamiltonian and observables are (function, *params) tuples")
    top = spec.n_sites * n_max if max_total is None else min(max_total, spec.n_sites * n_max)
    key = (spec, n_max, top, ham, observables)
    spectra = _spectra_memo.get(key)
    if spectra is None:
        spectra = _spectral_pass(spec, n_max, top, ham, observables)
        _spectra_memo.put(key, spectra, _spectra_floats(spectra))
    shift, gaps, diagonals = spectra
    boltz = np.exp(-beta_tilde * gaps)
    z = float(boltz.sum())
    values = (diagonals * boltz).sum(axis=1) / z
    return values.tolist(), float(np.log(z)) - beta_tilde * shift
