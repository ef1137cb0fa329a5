"""Second-order diagrams of the large-spin expansion on the d=3 torus.

Everything here works on the plane-wave grid ``(2pi/ell) {0..ell-1}^3`` with
the zero mode excluded from every occupation sum (its Bose factor diverges;
the zero-mode policy is fixed to "exclude" and enforced upstream).  A torus
is one ``PeriodicGrid``, whose left kernel is summed from index tables for
``k_i + k_j`` and ``k_i - k_j`` that live only while it is built.

The objects computed:

* the sextic correction ``<J>/ell^3``, which separates into per-axis sums;
* its leading piece (the "biggest error term"), carrying the slowest decay;
* the left second-order diagram, a Duhamel double sum that its
  ``(12) <-> (34)`` symmetry turns into temperature-free ratios
  ``nu^2/delta`` off the degenerate shell plus the shell itself, weighted
  by Bose factors that are constant on each cubic orbit; its summand
  is invariant under the 48-element cubic group (axis permutations and
  per-axis sign flips) acting on all momenta at once and symmetric under
  ``k1 <-> k2``, so the ``(k1, k2)`` sum runs over orbits of the pair: one
  ``k1`` per cubic orbit (34 orbits for the 511 nonzero modes at
  ``ell = 8``) and, for each, one ``k2`` per orbit of its stabilizer, kept
  only when the cubic orbit of ``k2`` is not below that of ``k1`` (3694
  ``k2`` rows in all at ``ell = 8``, where full blocks would hold 17374;
  811 for 4085 at ``ell = 6``, 12681 for 54945 at ``ell = 10``), and those
  sums are aggregated once per grid into a kernel over the orbits (9, 19,
  19, 34 and 55 at ``ell`` 5, 6, 7, 8 and 10), which each temperature
  contracts with the orbits' Bose factors;
* the right second-order diagram in closed form, its inner sum being
  proportional to the dispersion;
* the scan that adds the leading piece to the reduced left diagram and
  measures how the sum decays, with a bound, over every momentum pair, on
  the residual of the exact lattice identity that makes the leading parts
  cancel.  Scanned grids are kept per ``ell`` in a bounded memo, so
  scanning a torus again, at any temperatures, costs only the thermal
  passes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import dispersion, lattice
from ._errors import (
    CapacityError,
    NumericalError,
    ValidationError,
    integer,
    inverse_temperature,
    spin,
)

__all__ = [
    "ELL_CAP",
    "PeriodicGrid",
    "DiagramValue",
    "ScanResult",
    "occupations",
    "expectation_J",
    "biggest_error_term",
    "left_diagram",
    "right_diagram",
    "fit_loglog_slope",
    "cancellation_scan",
]

ELL_CAP = 10

_DEGENERACY_TOL = 1e-12


def _check_ell(ell, allow_large: bool) -> None:
    integer(ell, "the torus grid needs an integer ell >= 3", 3)
    if ell > ELL_CAP and not allow_large:
        raise CapacityError(
            f"ell={ell} exceeds the diagram grid cap {ELL_CAP}; "
            "override with allow_large (--force on the command line)"
        )


def _cubic_orbits(labels: np.ndarray, ell: int):
    """Cubic orbits of the modes and the left diagram's pair rows, for ``PeriodicGrid``.

    Its ``orbit_reps``, ``orbit_weights``, ``orbit_of``, ``pair_rows`` and
    ``pair_weights``; a call apart, so the search's arrays die before the kernel build.
    """
    n = ell**3
    # Orbits of the nonzero modes under the cubic group (axis permutations
    # and per-axis sign flips): the smallest flat label among a mode's 48
    # images is its canonical label, itself a member of the orbit.
    perms = np.array(list(itertools.permutations(range(3))))
    signs = np.array(list(itertools.product((1, -1), repeat=3)))
    moved = labels[:, perms][:, :, None, :] * signs[None, None, :, :] % ell
    images = (moved @ np.array([ell * ell, ell, 1])).reshape(n, 48).T
    canon = images.min(axis=0)
    reps, weights = np.unique(canon[1:], return_counts=True)
    # each mode's orbit index; the zero mode, in no orbit, gets -1
    orbit_of = np.searchsorted(reps, canon)
    orbit_of[0] = -1
    # Rows of the left diagram's (k1, k2) sum: per representative r, one
    # k2 per orbit of the stabilizer of r (keyed by its smallest image
    # under that stabilizer), kept only when the cubic orbit of k2 is not
    # below r's; the 1 <-> 2 exchange counts the others twice.
    keys = np.stack([images[images[:, r] == r].min(axis=0) for r in reps])
    keys += np.arange(reps.size)[:, None] * n
    keep = canon[None, :] >= reps[:, None]
    pairs, mult = np.unique(keys[keep], return_counts=True)
    rep_of, k2 = np.divmod(pairs, n)
    row_weights = mult * np.where(canon[k2] > reps[rep_of], 2.0, 1.0)
    cuts = np.flatnonzero(np.diff(rep_of)) + 1
    return reps, weights, orbit_of, np.split(k2, cuts), np.split(row_weights, cuts)


class PeriodicGrid:
    """The d=3 torus, built whole: modes, cubic orbits, pair rows and left kernel.

    ``left_kernel`` is the left diagram's temperature-free kernel and
    ``k3_residual`` the ``k3`` bound of the table it was summed from; the
    ``ell^6`` pair tables (``_pair_tables``) live only while it is built.
    """

    def __init__(self, ell: int, allow_large: bool = False):
        _check_ell(ell, allow_large)
        self.ell = ell
        self.n_modes = ell**3
        spec = lattice.LatticeSpec(3, ell, lattice.Boundary.PERIODIC)
        self.labels = lattice.sites(spec) - 1
        self.kvecs = lattice.periodic_modes(spec)
        self.eps = dispersion.epsilon(self.kvecs)
        (self.orbit_reps, self.orbit_weights, self.orbit_of, self.pair_rows,
         self.pair_weights) = _cubic_orbits(self.labels, ell)
        self.left_kernel, self.k3_residual = _left_kernel(self)


def occupations(grid: PeriodicGrid, beta_tilde: float) -> np.ndarray:
    """Bose factors on the grid with the zero mode set to 0 (excluded)."""
    f = np.zeros(grid.n_modes)
    f[1:] = dispersion.bose_from_energy(grid.eps[1:], beta_tilde)
    return f


@dataclass(frozen=True)
class DiagramValue:
    value: float
    extras: dict = field(default_factory=dict)


def _mean_occupation(grid, f):
    return float(f.sum()) / grid.n_modes


def _axis_means(grid, f):
    cos = np.cos(grid.kvecs)
    return (f @ cos) / grid.n_modes


def expectation_J(grid: PeriodicGrid, beta_tilde: float, two_s: int) -> DiagramValue:
    """Sextic correction per site ``<J>/ell^3`` in the quasi-free torus state.

    The triple momentum sum factorizes by parity:
    ``(1/4S^2) * sum over axes of ((rho + rho^2) m_i - m_i^3)`` with
    ``rho`` the mean occupation and ``m_i`` the cosine-weighted mean.
    """
    s = spin(two_s)
    f = occupations(grid, beta_tilde)
    rho = _mean_occupation(grid, f)
    m = _axis_means(grid, f)
    return DiagramValue(float(np.sum((rho + rho * rho) * m - m**3)) / (4.0 * s * s))


def biggest_error_term(grid: PeriodicGrid, beta_tilde: float, two_s: int) -> DiagramValue:
    """Slowest-decaying piece of the sextic correction, ``(rho/4S^2) sum_i m_i``.

    It equals the double momentum sum
    ``(1/(16 S^2 ell^6)) sum_{k1,k2 != 0} f1 f2 (12 - eps1 - eps2)``, the
    shape in which it cancels against the left diagram.
    """
    s = spin(two_s)
    f = occupations(grid, beta_tilde)
    rho = _mean_occupation(grid, f)
    m = _axis_means(grid, f)
    return DiagramValue(rho * float(np.sum(m)) / (4.0 * s * s))


@dataclass(frozen=True)
class _LeftKernel:
    """The left diagram's temperature-free sums, indexed by cubic orbits of the modes.

    Every weight of the pair-orbit sum is folded in.  ``f1f2f3[o1, o2, o3]``
    sums ``R = nu^2/delta``, zero on the degenerate shell, over the ``(k1,
    k2, k3)`` in the orbits ``o1, o2, o3``, and ``f1f2`` is its sum over
    ``o3``.  Column ``j`` of ``shell`` holds the orbits ``o1, o2, o3`` of
    the shell terms (``delta = 0``) that they label, no two columns alike,
    and the orbit ``o4`` of one of their ``k4``: on the shell every such
    ``k4`` has the energy ``eps1 + eps2 - eps3``, hence the same Bose
    factor.  ``shell_weight[j]`` is the sum of those terms' ``nu^2``.
    """

    f1f2: np.ndarray
    f1f2f3: np.ndarray
    shell: np.ndarray
    shell_weight: np.ndarray


def _pair_tables(grid: PeriodicGrid):
    """The ``(k_a, k_b)`` tables the left kernel reads, ``ell^6`` entries each.

    The flat labels ``(l0 ell + l1) ell + l2`` of ``k_a + k_b`` and ``k_a -
    k_b`` (``int32``), ``eps(k_a - k_b)``, and the ``k1``-free parts of
    ``delta`` and ``nu - delta`` with ``k2`` down the rows and ``k3`` along
    the columns (both nonzero).
    """
    ell, n = grid.ell, grid.n_modes
    # the per-axis ell x ell table enters once per axis, broadcast over the
    # six axes [a0, a1, a2, b0, b1, b2]
    axis = np.arange(ell, dtype=np.int32)

    def pair_table(per_axis):
        t = per_axis % ell
        return (
            (t * ell * ell)[:, None, None, :, None, None]
            + (t * ell)[None, :, None, None, :, None]
            + t[None, None, :, None, None, :]
        ).reshape(n, n)

    sum_idx = pair_table(axis[:, None] + axis[None, :])
    diff_idx = pair_table(axis[:, None] - axis[None, :])
    eps_diff = grid.eps[diff_idx]
    e = grid.eps[1:]
    delta_23 = e[:, None] - e[None, :]
    nu_23 = 2.0 * eps_diff[1:, 1:] - 2.0 * e[:, None]
    return sum_idx, diff_idx, eps_diff, delta_23, nu_23


def _left_kernel(grid: PeriodicGrid):
    """The left kernel, summed one ``k1`` orbit at a time, and the ``k3`` bound.

    Both read ``_pair_tables``, which are dropped on return.  For nonzero
    ``k1, k2`` the sum over all ``k3`` of ``12 + 3 eps3 + 3 eps4 - 4 eps(k2-k3)
    - 4 eps(k1-k3)`` (``k4 = k1 + k2 - k3``) is zero, since every row sum
    ``R_q`` of the ``eps(k_a - k_b)`` table is ``E = sum eps = 6 n`` (``n =
    ell^3``).  From the table, a pair's residual over ``12 n`` is ``|12 n + 3E
    + 3 R[k1+k2] - 4 R[k1] - 4 R[k2]| / 12 n``; the bound ``(|12 n - 2E| + 11
    max_q |R_q - E|) / 12 n`` holds for every pair at once.
    """
    sum_idx, diff_idx, eps_diff, delta_23, nu_23 = _pair_tables(grid)
    n_orb = grid.orbit_reps.size
    orbit_of = grid.orbit_of
    # (k3, o3) indicator over the nonzero modes: one product sums a block's
    # columns by orbit, and its rows at k2 pick out the orbit of k2
    one_hot = (orbit_of[1:, None] == np.arange(n_orb)).astype(np.float64)
    f1f2f3 = np.empty((n_orb, n_orb, n_orb))
    shell_sums = np.empty((n_orb, n_orb * n_orb))
    shell_o4 = np.zeros((n_orb, n_orb * n_orb), dtype=np.intp)
    pair_sums = zip(grid.orbit_reps.tolist(), grid.orbit_weights.tolist(), grid.pair_rows,
                    grid.pair_weights)
    for o1, (i1, weight, k2, w2) in enumerate(pair_sums):
        e1 = grid.eps[i1]
        k12 = sum_idx[i1, k2]
        delta = eps_diff[k12, 1:]  # eps4 for k4 = k1 + k2 - k3
        np.subtract(e1, delta, out=delta)
        delta += delta_23[k2 - 1]
        nu = delta + nu_23[k2 - 1]
        nu += 2.0 * (eps_diff[i1, 1:] - e1)
        # k4 = 0 where k3 = k1 + k2; an infinite delta drops it from both sets
        rows = np.flatnonzero(k12)
        delta[rows, k12[rows] - 1] = np.inf
        i2, i3 = np.divmod(np.flatnonzero(np.abs(delta) <= _DEGENERACY_TOL), delta.shape[1])
        i4 = diff_idx[k12[i2], i3 + 1]
        o23 = orbit_of[k2[i2]] * n_orb + orbit_of[i3 + 1]
        shell_sums[o1] = weight * np.bincount(o23, nu[i2, i3] ** 2 * w2[i2], n_orb * n_orb)
        # any k4 of an (o1, o2, o3) stands for all: they share one energy
        shell_o4[o1, o23] = orbit_of[i4]
        delta[i2, i3] = np.inf
        np.square(nu, out=nu)
        nu /= delta
        f1f2f3[o1] = (one_hot[k2 - 1].T * (weight * w2)) @ (nu @ one_hot)
    at = np.flatnonzero(shell_sums)
    shell = np.array([*np.unravel_index(at, f1f2f3.shape), shell_o4.reshape(-1)[at]])
    kernel = _LeftKernel(f1f2f3.sum(axis=2), f1f2f3, shell, shell_sums.reshape(-1)[at])
    n = grid.n_modes
    e_sum = float(grid.eps.sum())
    row_dev = float(np.max(np.abs(eps_diff.sum(axis=1) - e_sum)))
    return kernel, (abs(12.0 * n - 2.0 * e_sum) + 11.0 * row_dev) / (12.0 * n)


def left_diagram(grid: PeriodicGrid, beta_tilde: float, two_s: int) -> DiagramValue:
    """Left second-order diagram, summed through its ``(12) <-> (34)`` identity.

    The diagram is the Duhamel double sum ``-(1/(16 beta S^2 ell^9)) * sum
    over k1,k2,k3 (k4 = k1+k2-k3, all four nonzero) of nu^2 B(delta) p`` with
    ``p = f1 f2 (1+f3)(1+f4)``, ``delta = eps1 + eps2 - eps3 - eps4`` and
    ``B(delta) = (e^{beta delta} - 1 - beta delta)/delta^2``.

    It is computed without ``B``.  The map ``(12) <-> (34)`` keeps ``nu``,
    flips ``delta`` and sends ``p`` to ``q = (1+f1)(1+f2) f3 f4 = e^{beta
    delta} p``, so each ``delta != 0`` term pairs with its image into
    ``B(delta) p + B(-delta) q = beta (q - p)/delta``.  Expanding ``q - p``
    and relabelling with the ``1 <-> 2`` and ``3 <-> 4`` symmetries leaves
    ``-beta sum nu^2 f1 f2 (1 + 2 f3)/delta`` over ``delta != 0``; on the
    degenerate shell ``delta = 0``, ``B(0) = beta^2/2``.  Hence ``value`` is
    exactly the sum of the three extras: the reduced pieces
    ``reduced_f1f2`` (the part that cancels the biggest error term) and
    ``reduced_f1f2f3``, supported on ``|delta| > 1e-12``, and the shell term
    ``degenerate_delta0``.

    After the ``k3`` sum the summand ``F(k1, k2)`` is invariant under the
    48-element cubic group acting on all momenta at once, and symmetric under
    ``k1 <-> k2`` (so are ``delta`` and ``nu``).  The outer sum therefore runs
    over one ``k1`` per orbit (``grid.orbit_reps``), weighted by its orbit
    size, and the ``k2`` sum over the rows ``grid.pair_rows``: one ``k2`` per
    orbit of the stabilizer of ``k1``, only where the cubic orbit of ``k2`` is
    not below that of ``k1``, each weighted (``grid.pair_weights``) by its
    stabilizer orbit size, times 2 when its cubic orbit is above ``k1``'s.

    The temperature enters only through the Bose factors, which depend on
    ``eps`` alone and so are constant on each cubic orbit.  The sums are
    therefore split in two.  ``grid.left_kernel`` (``_LeftKernel``), built
    with the grid, contracts each ``k1`` orbit's temperature-free block
    ``R = nu^2/delta`` over its rows and all ``k3``, zero off the
    nondegenerate set, with the orbit indicator of ``k3`` in one matrix
    product and sums its rows by the orbit of ``k2``; the shell entries are
    summed by the orbits of ``k1, k2, k3``, which fix the energy of ``k4``.
    The thermal pass, run here, contracts that kernel with the Bose factor
    of each orbit: ``reduced_f1f2 = sum K0[o1,o2] f f``, ``reduced_f1f2f3 =
    2 sum K1[o1,o2,o3] f f f`` and the shell ``sum S[o1..o4] f f (1+f)(1+f)``.
    Its cost is independent of the number of pair rows.
    """
    s = spin(two_s)
    f = occupations(grid, beta_tilde)[grid.orbit_reps]
    g = 1.0 + f
    kernel = grid.left_kernel
    o1, o2, o3, o4 = kernel.shell
    degenerate = float(np.dot(kernel.shell_weight, f[o1] * f[o2] * g[o3] * g[o4]))
    norm = 16.0 * s * s * grid.ell**9
    extras = {
        "reduced_f1f2": float(f @ kernel.f1f2 @ f) / norm,
        "reduced_f1f2f3": 2.0 * float(f @ (kernel.f1f2f3 @ f) @ f) / norm,
        "degenerate_delta0": -beta_tilde * degenerate / (2.0 * norm),
    }
    value = extras["reduced_f1f2"] + extras["reduced_f1f2f3"] + extras["degenerate_delta0"]
    return DiagramValue(value, extras)


def right_diagram(grid: PeriodicGrid, beta_tilde: float, two_s: int) -> DiagramValue:
    """Right second-order diagram in closed form.

    ``-(beta/(2 S^2 ell^9)) sum_{k2 != 0} f2 (1+f2) G(k2)^2`` with
    ``G(k2) = sum_{k != 0} (eps(k2-k) - eps(k) - eps(k2)) f(k)``.  Since
    ``f`` is even and cubic-symmetric, ``G(k2) = -(F - C) eps(k2)`` with
    ``F = sum f`` and ``C = sum f cos k_x``, so the value is
    ``-beta (F-C)^2 sum f (1+f) eps^2 / (2 S^2 ell^9)``.  ``F - C`` is
    evaluated as ``sum f eps / 6``, which is equal by the same symmetry and
    free of cancellation.
    """
    s = spin(two_s)
    f = occupations(grid, beta_tilde)
    eps = grid.eps
    fc = float(np.dot(f, eps)) / 6.0
    value = -beta_tilde * fc * fc * float(np.sum(f * (1.0 + f) * eps * eps))
    return DiagramValue(value / (2.0 * s * s * grid.ell**9))


def fit_loglog_slope(xs, ys):
    """Least-squares slope and r^2 of ``log|y|`` against ``log x``."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.abs(np.asarray(ys, dtype=np.float64))
    if xs.size != ys.size or xs.size < 2:
        raise ValidationError("need at least two points to fit a slope")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValidationError("log-log fit needs positive abscissas and nonzero values")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


@dataclass(frozen=True)
class ScanResult:
    ell: int
    two_s: int
    rows: tuple
    slopes: dict
    k3_residual_max: float
    zero_mode_policy: str = "exclude"


def _grid_floats(grid: PeriodicGrid) -> int:
    kernel = grid.left_kernel
    arrays = (grid.labels, grid.kvecs, grid.eps, grid.orbit_reps, grid.orbit_weights,
              grid.orbit_of, *grid.pair_rows, *grid.pair_weights, kernel.f1f2, kernel.f1f2f3,
              kernel.shell, kernel.shell_weight)
    return sum(a.size for a in arrays)


# ``{ell: PeriodicGrid}`` of the tori scanned
_tori = lattice._Memo(2**20)


def cancellation_scan(ell: int, two_s: int, beta_tildes, allow_large: bool = False) -> ScanResult:
    """Scan ``beta_tilde`` and measure the decay of the cancelling combination.

    For each temperature the row records the biggest error term, the reduced
    ``f1 f2`` part of the left diagram, their sum (the combination the exact
    ``k3`` identity nearly cancels), the right diagram, and the subleading
    remainder of the sextic correction.  With at least four temperatures the
    log-log slopes of the decaying columns are fitted.  ``k3_residual_max``
    is the grid's ``k3_residual``, a bound over every nonzero momentum pair.

    Everything a scan reads of the torus is free of the temperature, so the
    ``PeriodicGrid`` is kept per ``ell`` in ``_tori`` (``lattice._Memo``,
    ``2^20`` floats).  The inputs are checked before it is read, so a warm
    memo refuses whatever a cold one refuses.  Each temperature is then one
    thermal pass, the same for a hit as for a miss, so a row's bits do not
    depend on the other temperatures of the scan or on the scans before it.
    A row value that is not finite (a temperature so high that the Bose
    factors overflow) raises ``NumericalError``.
    """
    bts = [inverse_temperature(b) for b in beta_tildes]
    if not bts:
        raise ValidationError("beta_tildes must be nonempty")
    if sorted(set(bts)) != sorted(bts):
        raise ValidationError("beta_tildes must be distinct")
    spin(two_s)
    _check_ell(ell, allow_large)
    grid = _tori.get(ell)
    if grid is None:
        grid = PeriodicGrid(ell, allow_large=allow_large)
        _tori.put(ell, grid, _grid_floats(grid))
    rows = []
    for bt in bts:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            big = biggest_error_term(grid, bt, two_s)
            left = left_diagram(grid, bt, two_s)
            right = right_diagram(grid, bt, two_s)
            sext = expectation_J(grid, bt, two_s)
        left_f1f2 = left.extras["reduced_f1f2"]
        rows.append(
            {
                "beta_tilde": bt,
                "biggest_error": big.value,
                "left_f1f2": left_f1f2,
                "combined": big.value + left_f1f2,
                "right_diagram": right.value,
                "j_remainder": sext.value - big.value,
                "left_full": left.value,
            }
        )
        if not all(math.isfinite(v) for v in rows[-1].values()):
            raise NumericalError(f"diagram values are not finite at beta_tilde={bt!r}")
    slopes = {}
    if len(bts) >= 4:
        xs = [r["beta_tilde"] for r in rows]
        for col in ("biggest_error", "combined", "right_diagram", "j_remainder"):
            ys = [r[col] for r in rows]
            if all(abs(y) > 0.0 for y in ys):
                slope, r2 = fit_loglog_slope(xs, ys)
                slopes[col] = {"slope": slope, "r_squared": r2}
    return ScanResult(ell, two_s, tuple(rows), slopes, grid.k3_residual)
