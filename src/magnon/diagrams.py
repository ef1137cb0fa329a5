"""Second-order diagrams of the large-spin expansion on the d=3 torus.

Everything here works on the plane-wave grid ``(2pi/ell) {0..ell-1}^3`` with
the zero mode excluded from every occupation sum (its Bose factor diverges;
the zero-mode policy is fixed to "exclude" and enforced upstream).  Index
tables for ``k_i + k_j`` and ``k_i - k_j`` make all energy lookups O(1), so
the triple-momentum sums run as vectorized gathers.

The objects computed:

* the sextic correction ``<J>/ell^3``, which separates into per-axis sums;
* its leading piece (the "biggest error term"), carrying the slowest decay;
* the left second-order diagram as a full Duhamel double sum, numerically
  stable for any ``beta_tilde`` via a three-branch evaluation of
  ``(e^x - 1 - x)/x^2``; its summand is invariant under the 48-element
  cubic group (axis permutations and per-axis sign flips) acting on all
  momenta at once, so the outer ``k1`` sum runs over one representative per
  orbit, weighted by the orbit size (34 orbits for the 511 nonzero modes at
  ``ell = 8``);
* the right second-order diagram via its separable inner sum;
* the scan that adds the leading piece to the reduced left diagram and
  measures how the sum decays, including the exact lattice identity that
  makes the leading parts cancel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dispersion, lattice
from ._errors import CapacityError, ValidationError

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
    "k3_identity_residual",
    "duhamel_kernel",
    "fit_loglog_slope",
    "cancellation_scan",
]

ELL_CAP = 10

_DEGENERACY_TOL = 1e-12


class PeriodicGrid:
    """Geometry of the d=3 torus momentum grid with O(1) sum/difference lookups."""

    def __init__(self, ell: int, allow_large: bool = False):
        if not isinstance(ell, int) or ell < 3:
            raise ValidationError("the torus grid needs an integer ell >= 3")
        if ell > ELL_CAP and not allow_large:
            raise CapacityError(
                f"ell={ell} exceeds the diagram grid cap {ELL_CAP}; "
                "override with allow_large (--force on the command line)"
            )
        self.ell = ell
        self.n_modes = ell**3
        spec = lattice.LatticeSpec(3, ell, lattice.Boundary.PERIODIC)
        labels = lattice.sites(spec) - 1
        self.labels = labels
        self.kvecs = lattice.periodic_modes(spec)
        self.eps = dispersion.epsilon(self.kvecs)
        self.zero_index = 0
        flat = lambda l: ((l[..., 0] * ell) + l[..., 1]) * ell + l[..., 2]
        la = labels[:, None, :]
        lb = labels[None, :, :]
        self.sum_idx = flat((la + lb) % ell).astype(np.int32)
        self.diff_idx = flat((la - lb) % ell).astype(np.int32)
        # Orbits of the nonzero modes under the cubic group (axis permutations
        # and per-axis sign flips): folding n -> min(n, ell-n) and sorting the
        # axes gives a canonical label, itself a member of the orbit.
        canon = flat(np.sort(np.minimum(labels, ell - labels), axis=1))
        self.orbit_reps, self.orbit_weights = np.unique(canon[1:], return_counts=True)

    def nonzero(self) -> np.ndarray:
        return np.arange(1, self.n_modes, dtype=np.int64)


def occupations(grid: PeriodicGrid, beta_tilde: float) -> np.ndarray:
    """Bose factors on the grid with the zero mode set to 0 (excluded)."""
    if not beta_tilde > 0.0:
        raise ValidationError("beta_tilde must be positive")
    f = np.zeros(grid.n_modes)
    f[1:] = dispersion.bose_from_energy(grid.eps[1:], beta_tilde)
    return f


@dataclass(frozen=True)
class DiagramValue:
    tag: str
    value: float
    beta_tilde: float
    ell: int
    two_s: int
    zero_mode_policy: str = "exclude"
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
    s = two_s / 2.0
    f = occupations(grid, beta_tilde)
    rho = _mean_occupation(grid, f)
    m = _axis_means(grid, f)
    value = float(np.sum((rho + rho * rho) * m - m**3)) / (4.0 * s * s)
    extras = {"rho": rho, "axis_means": [float(x) for x in m]}
    return DiagramValue("sextic_correction", value, beta_tilde, grid.ell, two_s, extras=extras)


def biggest_error_term(grid: PeriodicGrid, beta_tilde: float, two_s: int) -> DiagramValue:
    """Slowest-decaying piece of the sextic correction, ``(rho/4S^2) sum_i m_i``.

    Also reported through its equivalent double-momentum-sum form
    ``(1/(16 S^2 ell^6)) sum_{k1,k2 != 0} f1 f2 (12 - eps1 - eps2)``, the
    shape in which it cancels against the left diagram.
    """
    s = two_s / 2.0
    f = occupations(grid, beta_tilde)
    rho = _mean_occupation(grid, f)
    m = _axis_means(grid, f)
    value = rho * float(np.sum(m)) / (4.0 * s * s)
    sf = float(f.sum())
    sef = float(np.dot(f, grid.eps))
    double_form = (12.0 * sf * sf - 2.0 * sf * sef) / (16.0 * s * s * grid.ell**6)
    extras = {"double_sum_form": double_form, "rho": rho}
    return DiagramValue("biggest_error", value, beta_tilde, grid.ell, two_s, extras=extras)


def duhamel_kernel(delta: np.ndarray, beta_tilde: float, p12: np.ndarray, q: np.ndarray):
    """Stable ``B(delta) * p12`` with ``B = (e^{beta*delta} - 1 - beta*delta)/delta^2``.

    ``p12`` is the occupation product ``f1 f2 (1+f3)(1+f4)`` and ``q`` the
    exact identity ``e^{beta*delta} * p12 = (1+f1)(1+f2) f3 f4``, which keeps
    the large-argument branch overflow-free.  Three branches: Taylor below
    1e-4, expm1 up to |x| = 30, the product identity beyond.
    """
    x = beta_tilde * delta
    ax = np.abs(x)
    out = np.empty_like(x)
    tiny = ax < 1e-4
    big = ax > 30.0
    mid = ~tiny & ~big
    bt2 = beta_tilde * beta_tilde
    xt = x[tiny]
    out[tiny] = p12[tiny] * bt2 * (0.5 + xt / 6.0 + xt * xt / 24.0 + xt**3 / 120.0)
    xm = x[mid]
    with np.errstate(over="ignore"):
        out[mid] = p12[mid] * (np.expm1(xm) - xm) / (delta[mid] * delta[mid])
    xb = x[big]
    out[big] = (q[big] - (1.0 + xb) * p12[big]) / (delta[big] * delta[big])
    return out


def left_diagram(grid: PeriodicGrid, beta_tilde: float, two_s: int) -> DiagramValue:
    """Left second-order diagram as the full Duhamel double sum.

    ``-(1/(16 beta S^2 ell^9)) * sum over k1,k2,k3 (k4 = k1+k2-k3, all four
    nonzero) of nu^2 B(delta) f1 f2 (1+f3)(1+f4)`` with
    ``delta = eps1 + eps2 - eps3 - eps4``.  Extras carry the reduced pieces
    supported on the nondegenerate set ``delta != 0`` (the ``f1 f2`` part is
    the one that cancels the biggest error term) and the degenerate-shell
    contribution, so the split can be audited.

    The dispersion, and with it every factor of the summand, is invariant
    under the 48-element cubic group acting on all four momenta at once, so
    the inner sum over ``k2, k3`` depends only on the orbit of ``k1``.  The
    outer sum therefore runs over one representative per orbit
    (``grid.orbit_reps``), each weighted by its orbit size.
    """
    s = two_s / 2.0
    f = occupations(grid, beta_tilde)
    g = 1.0 + f
    g[grid.zero_index] = 0.0
    eps = grid.eps
    nz = grid.nonzero()
    e2 = eps[nz][:, None]
    e3 = eps[nz][None, :]
    e23 = eps[grid.diff_idx[nz[:, None], nz[None, :]]]
    f2 = f[nz][:, None]
    f3 = f[nz][None, :]
    g2 = g[nz][:, None]
    g3 = g[nz][None, :]
    full = 0.0
    red_f1f2 = 0.0
    red_f1f2f3 = 0.0
    degenerate = 0.0
    for i1, weight in zip(grid.orbit_reps.tolist(), grid.orbit_weights.tolist()):
        i4 = grid.diff_idx[grid.sum_idx[i1, nz][:, None], nz[None, :]]
        ok = i4 != grid.zero_index
        e1 = eps[i1]
        e4 = eps[i4]
        e13 = eps[grid.diff_idx[i1, nz]][None, :]
        nu = 2.0 * e13 + 2.0 * e23 - e1 - e2 - e3 - e4
        delta = e1 + e2 - e3 - e4
        f12 = f[i1] * f2
        p12 = f12 * g3 * g[i4]
        q = (1.0 + f[i1]) * g2 * f3 * f[i4]
        p12 = np.where(ok, p12, 0.0)
        q = np.where(ok, q, 0.0)
        nu2 = nu * nu
        full += weight * float(np.sum(nu2 * duhamel_kernel(delta, beta_tilde, p12, q)))
        nondeg = ok & (np.abs(delta) > _DEGENERACY_TOL)
        ratio = np.where(nondeg, nu2 / np.where(nondeg, delta, 1.0), 0.0)
        red_f1f2 += weight * float(np.sum(ratio * np.where(nondeg, f12, 0.0)))
        f123 = f12 * f3
        red_f1f2f3 += weight * float(np.sum(ratio * 2.0 * np.where(nondeg, f123, 0.0)))
        deg = ok & ~nondeg
        degenerate += weight * float(np.sum(np.where(deg, nu2 * p12, 0.0)))
    norm = 16.0 * s * s * grid.ell**9
    value = -full / (beta_tilde * norm)
    extras = {
        "reduced_f1f2": red_f1f2 / norm,
        "reduced_f1f2f3": red_f1f2f3 / norm,
        "degenerate_delta0": -beta_tilde * degenerate / (2.0 * norm),
    }
    return DiagramValue("left_diagram", value, beta_tilde, grid.ell, two_s, extras=extras)


def right_diagram(grid: PeriodicGrid, beta_tilde: float, two_s: int) -> DiagramValue:
    """Right second-order diagram via its separable inner sum.

    ``-(beta/(2 S^2 ell^9)) sum_{k2 != 0} f2 (1+f2) G(k2)^2`` with
    ``G(k2) = sum_{k != 0} (eps(k2-k) - eps(k) - eps(k2)) f(k)``.
    """
    s = two_s / 2.0
    f = occupations(grid, beta_tilde)
    nz = grid.nonzero()
    eps = grid.eps
    e2k = eps[grid.diff_idx[nz[:, None], nz[None, :]]]
    inner = e2k - eps[nz][None, :] - eps[nz][:, None]
    g_vec = inner @ f[nz]
    value = -beta_tilde * float(np.sum(f[nz] * (1.0 + f[nz]) * g_vec * g_vec))
    value /= 2.0 * s * s * grid.ell**9
    extras = {"g_max": float(np.max(np.abs(g_vec)))}
    return DiagramValue("right_diagram", value, beta_tilde, grid.ell, two_s, extras=extras)


def k3_identity_residual(grid: PeriodicGrid, i1: int, i2: int) -> float:
    """Relative residual of the exact lattice identity behind the cancellation.

    For fixed nonzero ``k1, k2``, summing ``12 + 3 eps3 + 3 eps4 - 4
    eps(k2-k3) - 4 eps(k1-k3)`` over the full ``k3`` grid gives zero exactly;
    the residual is normalized by ``12 ell^3``.
    """
    if i1 == grid.zero_index or i2 == grid.zero_index:
        raise ValidationError("the identity is used with nonzero k1, k2")
    allk = np.arange(grid.n_modes)
    i4 = grid.diff_idx[grid.sum_idx[i1, i2], allk]
    total = float(
        np.sum(
            12.0
            + 3.0 * grid.eps[allk]
            + 3.0 * grid.eps[i4]
            - 4.0 * grid.eps[grid.diff_idx[i2, allk]]
            - 4.0 * grid.eps[grid.diff_idx[i1, allk]]
        )
    )
    return abs(total) / (12.0 * grid.n_modes)


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


def cancellation_scan(
    ell: int,
    two_s: int,
    beta_tildes,
    allow_large: bool = False,
    k3_samples: int = 100,
    seed: int = 0,
) -> ScanResult:
    """Scan ``beta_tilde`` and measure the decay of the cancelling combination.

    For each temperature the row records the biggest error term, the reduced
    ``f1 f2`` part of the left diagram, their sum (the combination the exact
    ``k3`` identity nearly cancels), the right diagram, and the subleading
    remainder of the sextic correction.  With at least four temperatures the
    log-log slopes of the decaying columns are fitted; ``k3`` identity
    residuals are checked on a seeded sample of momentum pairs.
    """
    bts = [float(b) for b in beta_tildes]
    if any(b <= 0 for b in bts) or len(bts) == 0:
        raise ValidationError("beta_tildes must be positive and nonempty")
    if sorted(set(bts)) != sorted(bts):
        raise ValidationError("beta_tildes must be distinct")
    grid = PeriodicGrid(ell, allow_large=allow_large)
    rows = []
    for bt in bts:
        big = biggest_error_term(grid, bt, two_s)
        left = left_diagram(grid, bt, two_s)
        right = right_diagram(grid, bt, two_s)
        sext = expectation_J(grid, bt, two_s)
        left_f1f2 = left.extras["reduced_f1f2"]
        s = two_s / 2.0
        rho = sext.extras["rho"]
        m_sum = float(np.sum(sext.extras["axis_means"]))
        j_remainder = sext.value - rho * m_sum / (4.0 * s * s)
        rows.append(
            {
                "beta_tilde": bt,
                "biggest_error": big.value,
                "left_f1f2": left_f1f2,
                "combined": big.value + left_f1f2,
                "right_diagram": right.value,
                "j_remainder": j_remainder,
                "left_full": left.value,
            }
        )
    slopes = {}
    if len(bts) >= 4:
        xs = [r["beta_tilde"] for r in rows]
        for col in ("biggest_error", "combined", "right_diagram", "j_remainder"):
            ys = [r[col] for r in rows]
            if all(abs(y) > 0.0 for y in ys):
                slope, r2 = fit_loglog_slope(xs, ys)
                slopes[col] = {"slope": slope, "r_squared": r2}
    rng = np.random.default_rng(seed)
    nz = grid.nonzero()
    res = 0.0
    for _ in range(k3_samples):
        i1 = int(rng.choice(nz))
        i2 = int(rng.choice(nz))
        res = max(res, k3_identity_residual(grid, i1, i2))
    return ScanResult(ell, two_s, tuple(rows), slopes, res)
