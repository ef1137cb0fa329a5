import itertools

import mpmath as mp
import numpy as np
import pytest

from magnon import diagrams, dispersion, fock, lattice, wick
from magnon._errors import CapacityError, NumericalError, ValidationError


def flat_label(l1, l2, l3, ell):
    return (l1 * ell + l2) * ell + l3


def nonzero(grid):
    """Labels of the nonzero modes; the zero mode is label 0."""
    return np.arange(1, grid.n_modes)


def vertex_nu(k1, k2, k3, k4):
    """Quartic interaction vertex for momenta with ``k1 + k2 = k3 + k4``.

    ``eps(k4-k2) - eps(k4) - eps(k1) + eps(k4-k1) - eps(k2) + eps(k3-k2)
    + eps(k3-k1) - eps(k3)``; symmetric under ``1 <-> 2``, ``3 <-> 4`` and
    ``(12) <-> (34)`` on the conservation shell.
    """
    e = dispersion.epsilon
    k1, k2, k3, k4 = (np.asarray(k) for k in (k1, k2, k3, k4))
    return (
        e(k4 - k2) - e(k4) - e(k1) + e(k4 - k1) - e(k2) + e(k3 - k2) + e(k3 - k1) - e(k3)
    )


def test_grid_validation():
    with pytest.raises(ValidationError):
        diagrams.PeriodicGrid(2)
    with pytest.raises(ValidationError):
        diagrams.PeriodicGrid(4.0)
    with pytest.raises(CapacityError):
        diagrams.PeriodicGrid(12)
    grid = diagrams.PeriodicGrid(11, allow_large=True)
    assert grid.n_modes == 11**3


def test_grid_geometry():
    grid = diagrams.PeriodicGrid(4)
    assert np.array_equal(grid.labels[0], [0, 0, 0])  # label 0 is the zero mode
    assert np.all(grid.kvecs > -np.pi) and np.all(grid.kvecs <= np.pi)
    assert np.allclose(grid.kvecs[0], 0.0)
    # epsilon agrees with the dispersion evaluated on the mapped vectors
    assert np.allclose(grid.eps, dispersion.epsilon(grid.kvecs), atol=1e-14)


def test_sum_diff_tables():
    for ell in range(3, 9):
        grid = diagrams.PeriodicGrid(ell)
        sum_idx, diff_idx, eps_diff, _, _ = diagrams._pair_tables(grid)
        la = grid.labels[:, None, :]
        lb = grid.labels[None, :, :]
        want_sum = flat_label(*np.moveaxis((la + lb) % ell, -1, 0), ell)
        want_diff = flat_label(*np.moveaxis((la - lb) % ell, -1, 0), ell)
        assert sum_idx.dtype == diff_idx.dtype == np.int32
        assert np.array_equal(sum_idx, want_sum)
        assert np.array_equal(diff_idx, want_diff)
        assert np.array_equal(eps_diff, grid.eps[want_diff])
    # epsilon through the tables equals epsilon of the vector arithmetic
    rng = np.random.default_rng(3)
    ks = grid.kvecs
    idx = rng.integers(0, grid.n_modes, size=(50, 2))
    via_table = grid.eps[diff_idx[idx[:, 0], idx[:, 1]]]
    direct = dispersion.epsilon(ks[idx[:, 0]] - ks[idx[:, 1]])
    assert np.allclose(via_table, direct, atol=1e-12)


def test_occupations():
    grid = diagrams.PeriodicGrid(4)
    f = diagrams.occupations(grid, 2.0)
    assert f[0] == 0.0
    nz = nonzero(grid)
    want = 1.0 / np.expm1(2.0 * grid.eps[nz])
    assert np.allclose(f[nz], want, rtol=1e-14)
    with pytest.raises(ValidationError):
        diagrams.occupations(grid, 0.0)


def test_vertex_symmetries_on_shell():
    ell = 5
    grid = diagrams.PeriodicGrid(ell)
    sum_idx, diff_idx, _, _, _ = diagrams._pair_tables(grid)
    rng = np.random.default_rng(11)
    for _ in range(100):
        i1, i2, i3 = rng.integers(1, grid.n_modes, size=3)
        i4 = diff_idx[sum_idx[i1, i2], i3]
        k1, k2, k3, k4 = (grid.kvecs[i] for i in (i1, i2, i3, i4))
        nu = vertex_nu(k1, k2, k3, k4)
        assert vertex_nu(k2, k1, k3, k4) == pytest.approx(nu, abs=1e-11)
        assert vertex_nu(k1, k2, k4, k3) == pytest.approx(nu, abs=1e-11)
        assert vertex_nu(k3, k4, k1, k2) == pytest.approx(nu, abs=1e-11)
        # equivalent 6-term shape used inside the double sum
        e = dispersion.epsilon
        alt = (
            2.0 * e(k1 - k3)
            + 2.0 * e(k2 - k3)
            - e(k1)
            - e(k2)
            - e(k3)
            - e(k4)
        )
        assert nu == pytest.approx(alt, abs=1e-11)


def test_expectation_j_matches_position_wick():
    # the factorized mode sum against a position-space pairing evaluation of
    # the same five normal-ordered monomials, on the full 3-torus
    ell, bt, two_s = 3, 1.5, 2
    grid = diagrams.PeriodicGrid(ell)
    f = diagrams.occupations(grid, bt)
    spec = lattice.LatticeSpec(3, ell, boundary=lattice.Boundary.PERIODIC)
    xs = lattice.sites(spec)
    phases = xs @ grid.kvecs.T
    table = (np.cos(phases) * f) @ np.cos(phases.T) + (np.sin(phases) * f) @ np.sin(
        phases.T
    )
    table /= grid.n_modes
    s = two_s / 2.0
    total = 0.0
    for i, j in lattice.nn_pairs(spec):
        for x, y in ((i, j), (j, i)):
            c, a = True, False
            t1 = wick.wick_expectation(
                [(x, c), (y, c), (y, c), (y, a), (y, a), (y, a)], table
            )
            t2 = wick.wick_expectation([(x, c), (y, c), (y, a), (y, a)], table)
            t3 = wick.wick_expectation(
                [(x, c), (x, c), (y, c), (x, a), (y, a), (y, a)], table
            )
            t4 = wick.wick_expectation(
                [(x, c), (x, c), (x, c), (x, a), (x, a), (y, a)], table
            )
            t5 = wick.wick_expectation([(x, c), (x, c), (x, a), (y, a)], table)
            total += t1 + t2 - 2.0 * t3 + t4 + t5
    want = total / (32.0 * s * s) / spec.n_sites
    got = diagrams.expectation_J(grid, bt, two_s)
    assert got.value == pytest.approx(want, rel=1e-10, abs=0.0)


def test_biggest_error_dual_forms():
    grid = diagrams.PeriodicGrid(4)
    bt, two_s = 1.3, 2
    val = diagrams.biggest_error_term(grid, bt, two_s)
    f = diagrams.occupations(grid, bt)
    s = two_s / 2.0
    # the double sum factorized over k1 and k2
    sf, sef = float(f.sum()), float(np.dot(f, grid.eps))
    double_form = (12.0 * sf * sf - 2.0 * sf * sef) / (16.0 * s * s * grid.ell**6)
    assert val.value == pytest.approx(double_form, rel=1e-12, abs=0.0)
    # brute double momentum sum
    acc = 0.0
    for i1 in nonzero(grid):
        for i2 in nonzero(grid):
            acc += f[i1] * f[i2] * (12.0 - grid.eps[i1] - grid.eps[i2])
    want = acc / (16.0 * s * s * grid.ell**6)
    assert val.value == pytest.approx(want, rel=1e-11, abs=0.0)


def duhamel_kernel(delta, beta_tilde, p12, q):
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


def mp_duhamel(delta, beta_tilde, p12):
    x = mp.mpf(beta_tilde) * mp.mpf(delta)
    if x == 0:
        return mp.mpf(p12) * mp.mpf(beta_tilde) ** 2 / 2
    return mp.mpf(p12) * (mp.e**x - 1 - x) / mp.mpf(delta) ** 2


def test_duhamel_kernel_branches():
    mp.mp.dps = 50
    bt = 2.0
    rng = np.random.default_rng(5)
    # deltas straddling both branch seams, plus sign flips
    mags = np.array([1e-6, 4.9e-5, 5.1e-5, 1e-3, 1.0, 14.9, 15.1, 40.0])
    deltas = np.concatenate([mags, -mags])
    p12 = rng.uniform(0.1, 2.0, size=deltas.size)
    q = np.exp(bt * deltas) * p12  # exact product identity
    got = duhamel_kernel(deltas, bt, p12, q)
    for d, p, g in zip(deltas, p12, got):
        want = float(mp_duhamel(d, bt, p))
        assert g == pytest.approx(want, rel=1e-10, abs=0.0)


def brute_left(grid, beta_tilde, two_s):
    """Triple label loop with independent modular arithmetic and mp kernel."""
    mp.mp.dps = 40
    ell = grid.ell
    f = diagrams.occupations(grid, beta_tilde)
    eps = grid.eps
    labels = [tuple(l) for l in grid.labels]
    full = mp.mpf(0)
    red_f1f2 = 0.0
    nzl = list(range(1, ell**3))
    for i1 in nzl:
        l1 = labels[i1]
        for i2 in nzl:
            l2 = labels[i2]
            l12 = tuple((l1[m] + l2[m]) % ell for m in range(3))
            for i3 in nzl:
                l3 = labels[i3]
                l4 = tuple((l12[m] - l3[m]) % ell for m in range(3))
                i4 = flat_label(*l4, ell)
                if i4 == 0:
                    continue
                l13 = flat_label(*(((l1[m] - l3[m]) % ell) for m in range(3)), ell)
                l23 = flat_label(*(((l2[m] - l3[m]) % ell) for m in range(3)), ell)
                nu = (
                    2.0 * eps[l13]
                    + 2.0 * eps[l23]
                    - eps[i1]
                    - eps[i2]
                    - eps[i3]
                    - eps[i4]
                )
                delta = eps[i1] + eps[i2] - eps[i3] - eps[i4]
                p12 = f[i1] * f[i2] * (1.0 + f[i3]) * (1.0 + f[i4])
                full += mp.mpf(nu) ** 2 * mp_duhamel(delta, beta_tilde, p12)
                if abs(delta) > 1e-12:
                    red_f1f2 += nu * nu / delta * f[i1] * f[i2]
    s = two_s / 2.0
    norm = 16.0 * s * s * ell**9
    return -float(full) / (beta_tilde * norm), red_f1f2 / norm


def test_left_diagram_matches_brute():
    grid = diagrams.PeriodicGrid(3)
    bt, two_s = 2.0, 2
    got = diagrams.left_diagram(grid, bt, two_s)
    want_full, want_red = brute_left(grid, bt, two_s)
    assert got.value == pytest.approx(want_full, rel=1e-11, abs=0.0)
    assert got.extras["reduced_f1f2"] == pytest.approx(want_red, rel=1e-11, abs=0.0)
    assert got.value < 0.0


def left_all_k1(grid, beta_tilde, two_s):
    """The left diagram with the outer sum over every nonzero ``k1``."""
    s = two_s / 2.0
    f = diagrams.occupations(grid, beta_tilde)
    g = 1.0 + f
    g[0] = 0.0
    eps = grid.eps
    nz = nonzero(grid)
    sum_idx, diff_idx, _, _, _ = diagrams._pair_tables(grid)
    full = 0.0
    red_f1f2 = 0.0
    red_f1f2f3 = 0.0
    degenerate = 0.0
    for i1 in nz:
        i4 = diff_idx[sum_idx[i1, nz][:, None], nz[None, :]]
        ok = i4 != 0
        e1 = eps[i1]
        e2 = eps[nz][:, None]
        e3 = eps[nz][None, :]
        e4 = eps[i4]
        e13 = eps[diff_idx[i1, nz]][None, :]
        e23 = eps[diff_idx[nz[:, None], nz[None, :]]]
        nu = 2.0 * e13 + 2.0 * e23 - e1 - e2 - e3 - e4
        delta = e1 + e2 - e3 - e4
        f12 = f[i1] * f[nz][:, None]
        p12 = f12 * g[nz][None, :] * g[i4]
        q = (1.0 + f[i1]) * g[nz][:, None] * f[nz][None, :] * f[i4]
        p12 = np.where(ok, p12, 0.0)
        q = np.where(ok, q, 0.0)
        nu2 = nu * nu
        full += float(np.sum(nu2 * duhamel_kernel(delta, beta_tilde, p12, q)))
        nondeg = ok & (np.abs(delta) > 1e-12)
        ratio = np.where(nondeg, nu2 / np.where(nondeg, delta, 1.0), 0.0)
        red_f1f2 += float(np.sum(ratio * np.where(nondeg, f12, 0.0)))
        f123 = f12 * f[nz][None, :]
        red_f1f2f3 += float(np.sum(ratio * 2.0 * np.where(nondeg, f123, 0.0)))
        deg = ok & ~nondeg
        degenerate += float(np.sum(np.where(deg, nu2 * p12, 0.0)))
    norm = 16.0 * s * s * grid.ell**9
    extras = {
        "reduced_f1f2": red_f1f2 / norm,
        "reduced_f1f2f3": red_f1f2f3 / norm,
        "degenerate_delta0": -beta_tilde * degenerate / (2.0 * norm),
    }
    return -full / (beta_tilde * norm), extras


@pytest.mark.parametrize("beta_tilde", [0.25, 1.0, 4.0, 16.0, 32.0])
@pytest.mark.parametrize("ell", [3, 4, 5, 6, 7])
def test_left_diagram_orbit_sum_matches_all_k1(ell, beta_tilde):
    # odd and even ell: for even ell the label n = ell/2 folds onto itself;
    # at ell = 3 every mode has a stabilizer of order at least 2
    grid = diagrams.PeriodicGrid(ell)
    got = diagrams.left_diagram(grid, beta_tilde, 2)
    want_value, want_extras = left_all_k1(grid, beta_tilde, 2)
    # the (12) <-> (34) identity on the oracle's own Duhamel sum
    assert sum(want_extras.values()) == pytest.approx(want_value, rel=1e-12, abs=0.0)
    assert got.value == pytest.approx(want_value, rel=1e-12, abs=0.0)
    assert set(got.extras) == set(want_extras)
    for key, want in want_extras.items():
        assert got.extras[key] == pytest.approx(want, rel=1e-12, abs=0.0)


CUBIC_GROUP = [
    (perm, signs)
    for perm in itertools.permutations(range(3))
    for signs in itertools.product((1, -1), repeat=3)
]


def cubic_image(label, element, ell):
    perm, signs = element
    return flat_label(*((signs[m] * label[perm[m]]) % ell for m in range(3)), ell)


@pytest.mark.parametrize("ell", [4, 5, 6, 7])
def test_grid_orbits(ell):
    # orbits rebuilt from the 6 axis permutations times the 8 sign flips
    grid = diagrams.PeriodicGrid(ell)
    assert len(CUBIC_GROUP) == 48
    reps = grid.orbit_reps.tolist()
    weights = grid.orbit_weights.tolist()
    seen = set()
    for rep, weight in zip(reps, weights):
        orbit = {cubic_image(grid.labels[rep], el, ell) for el in CUBIC_GROUP}
        for member in orbit:
            assert {cubic_image(grid.labels[member], el, ell) for el in CUBIC_GROUP} == orbit
        assert len(orbit) == weight
        assert not orbit & seen  # one representative per orbit
        seen |= orbit
    assert 0 not in seen
    assert len(seen) == sum(weights) == ell**3 - 1


@pytest.mark.parametrize("ell", [3, 4, 5, 6, 7])
def test_pair_rows_cover_every_pair_once(ell):
    # each (rep, row) stands for the ordered pairs (g r, g k2) and their swaps
    grid = diagrams.PeriodicGrid(ell)
    covered = set()
    total = 0.0
    for rep, weight, rows, row_weights in zip(
        grid.orbit_reps.tolist(),
        grid.orbit_weights.tolist(),
        grid.pair_rows,
        grid.pair_weights,
    ):
        r = grid.labels[rep]
        stab = [el for el in CUBIC_GROUP if cubic_image(r, el, ell) == rep]
        assert len(stab) * weight == 48
        for k2, w2 in zip(rows.tolist(), row_weights.tolist()):
            assert k2 != 0
            l2 = grid.labels[k2]
            pairs = {(cubic_image(r, el, ell), cubic_image(l2, el, ell)) for el in CUBIC_GROUP}
            # a k2 outside the orbit of r also stands for the swapped pairs
            if rep not in {cubic_image(l2, el, ell) for el in CUBIC_GROUP}:
                pairs |= {(b, a) for a, b in pairs}
            assert weight * w2 == len(pairs)
            assert not pairs & covered
            covered |= pairs
            total += weight * w2
    nonzero = range(1, ell**3)
    assert covered == {(a, b) for a in nonzero for b in nonzero}
    assert total == (ell**3 - 1) ** 2


def test_right_diagram_matches_brute():
    grid = diagrams.PeriodicGrid(3)
    bt, two_s = 2.0, 2
    f = diagrams.occupations(grid, bt)
    eps = grid.eps
    nz = nonzero(grid)
    diff_idx = diagrams._pair_tables(grid)[1]
    acc = 0.0
    for i2 in nz:
        g = 0.0
        for ik in nz:
            g += (eps[diff_idx[i2, ik]] - eps[ik] - eps[i2]) * f[ik]
        acc += f[i2] * (1.0 + f[i2]) * g * g
    s = two_s / 2.0
    want = -bt * acc / (2.0 * s * s * grid.ell**9)
    got = diagrams.right_diagram(grid, bt, two_s)
    assert got.value == pytest.approx(want, rel=1e-11, abs=0.0)
    assert got.value < 0.0


def right_table_form(grid, beta_tilde, two_s):
    """The right diagram with ``G(k2)`` summed over an ``ell^6`` table."""
    s = two_s / 2.0
    f = diagrams.occupations(grid, beta_tilde)
    nz = nonzero(grid)
    eps = grid.eps
    e2k = eps[diagrams._pair_tables(grid)[1][nz[:, None], nz[None, :]]]
    inner = e2k - eps[nz][None, :] - eps[nz][:, None]
    g_vec = inner @ f[nz]
    value = -beta_tilde * float(np.sum(f[nz] * (1.0 + f[nz]) * g_vec * g_vec))
    return value / (2.0 * s * s * grid.ell**9), float(np.max(np.abs(g_vec)))


@pytest.mark.parametrize("ell", [3, 4, 5, 6, 7, 8, 9])
def test_right_diagram_closed_form_matches_table(ell):
    grid = diagrams.PeriodicGrid(ell)
    for bt in (0.5, 1.0, 4.0, 16.0):
        got = diagrams.right_diagram(grid, bt, 2)
        want_value, want_g_max = right_table_form(grid, bt, 2)
        assert got.value == pytest.approx(want_value, rel=1e-13, abs=0.0)
        # G(k2) = -(sum f eps / 6) eps(k2), the identity the closed form rests on
        f = diagrams.occupations(grid, bt)
        g_max = abs(float(np.dot(f, grid.eps))) / 6.0 * float(np.max(grid.eps[1:]))
        assert g_max == pytest.approx(want_g_max, rel=1e-13, abs=0.0)


def k3_residuals(grid, sum_idx, e):
    """Oracle: the ``k3`` identity summed term by term for every nonzero pair.

    ``e`` is the ``eps(k_a - k_b)`` table.  Returns the ``(n - 1, n - 1)``
    relative residuals of the direct sums and of the same sums through the
    table's row sums ``R``.
    """
    nz = nonzero(grid)
    k12 = sum_idx[nz[:, None], nz[None, :]]
    terms = 12.0 + 3.0 * grid.eps + 3.0 * e[k12] - 4.0 * e[nz][None, :] - 4.0 * e[nz][:, None]
    n = grid.n_modes
    direct = np.abs(terms.sum(axis=-1)) / (12.0 * n)
    r, e_sum = e.sum(axis=1), grid.eps.sum()
    by_rows = np.abs(12.0 * n + 3.0 * e_sum + 3.0 * r[k12] - 4.0 * r[nz][None, :]
                     - 4.0 * r[nz][:, None]) / (12.0 * n)
    return direct, by_rows


@pytest.mark.parametrize("ell", [3, 4])
def test_k3_identity_all_pairs(ell):
    grid = diagrams.PeriodicGrid(ell)
    sum_idx, _, eps_diff, _, _ = diagrams._pair_tables(grid)
    direct, by_rows = k3_residuals(grid, sum_idx, eps_diff)
    assert direct.max() < 1e-12
    assert grid.k3_residual < 1e-12
    assert by_rows.max() <= grid.k3_residual + 1e-15


def test_k3_identity_sees_a_broken_row(monkeypatch):
    # one entry of the eps(k_a - k_b) table the kernel reads moved
    tables = diagrams._pair_tables

    def broken(grid):
        sum_idx, diff_idx, eps_diff, delta_23, nu_23 = tables(grid)
        eps_diff[5, 2] += 1e-6
        return sum_idx, diff_idx, eps_diff, delta_23, nu_23

    monkeypatch.setattr(diagrams, "_pair_tables", broken)
    # the broken torus stays out of the real memo
    monkeypatch.setattr(diagrams, "_tori", lattice._Memo(diagrams._tori.cap))
    grid = diagrams.PeriodicGrid(3)
    sum_idx, _, eps_diff, _, _ = broken(grid)
    direct, by_rows = k3_residuals(grid, sum_idx, eps_diff)
    assert direct.max() > 1e-9  # the broken row breaks the identity for some pair
    assert by_rows.max() <= grid.k3_residual + 1e-15
    res = diagrams.cancellation_scan(3, 2, [1.0])
    assert res.k3_residual_max == grid.k3_residual > 1e-9


def test_fit_loglog_slope():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    ys = 3.0 * xs**-2.5
    slope, r2 = diagrams.fit_loglog_slope(xs, ys)
    assert slope == pytest.approx(-2.5, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        diagrams.fit_loglog_slope([1.0], [2.0])
    with pytest.raises(ValidationError):
        diagrams.fit_loglog_slope([-1.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValidationError):
        diagrams.fit_loglog_slope([1.0, 2.0], [0.0, 1.0])


def test_cancellation_scan_structure():
    bts = [0.8, 1.0, 1.25, 1.6]
    res = diagrams.cancellation_scan(4, 2, bts)
    assert res.ell == 4 and res.two_s == 2
    assert len(res.rows) == 4
    keys = {
        "beta_tilde",
        "biggest_error",
        "left_f1f2",
        "combined",
        "right_diagram",
        "j_remainder",
        "left_full",
    }
    for row in res.rows:
        assert keys <= set(row)
    assert set(res.slopes) == {
        "biggest_error",
        "combined",
        "right_diagram",
        "j_remainder",
    }
    for fit in res.slopes.values():
        assert set(fit) == {"slope", "r_squared"}
    assert res.k3_residual_max == diagrams.PeriodicGrid(4).k3_residual
    assert res.k3_residual_max < 1e-12
    assert res.zero_mode_policy == "exclude"
    # deterministic
    res2 = diagrams.cancellation_scan(4, 2, bts)
    assert res2.rows == res.rows
    assert res2.k3_residual_max == res.k3_residual_max


def test_cancellation_scan_few_points_no_slopes():
    res = diagrams.cancellation_scan(3, 2, [1.0, 2.0])
    assert res.slopes == {}


def test_cancellation_scan_validation():
    with pytest.raises(ValidationError):
        diagrams.cancellation_scan(4, 2, [1.0, 1.0])
    with pytest.raises(ValidationError):
        diagrams.cancellation_scan(4, 2, [1.0, -2.0])
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValidationError, match="finite"):
            diagrams.cancellation_scan(4, 2, [1.0, bad])
    with pytest.raises(CapacityError):
        diagrams.cancellation_scan(12, 2, [1.0, 2.0])


def test_a_scan_gives_the_bits_of_its_one_temperature_scans(monkeypatch):
    bts = [0.25, 1.0, 2.0, 4.0, 16.0]
    monkeypatch.setattr(diagrams, "_tori", lattice._Memo(diagrams._tori.cap))
    rows = diagrams.cancellation_scan(6, 2, bts).rows
    monkeypatch.setattr(diagrams, "_tori", lattice._Memo(diagrams._tori.cap))
    singles = tuple(diagrams.cancellation_scan(6, 2, [bt]).rows[0] for bt in bts)
    assert rows == singles
    assert diagrams.cancellation_scan(6, 2, bts[::-1]).rows == singles[::-1]


def test_a_second_scan_of_a_torus_builds_no_kernel(monkeypatch):
    builds = []
    build = diagrams._left_kernel

    def counted(grid):
        builds.append(grid.ell)
        return build(grid)

    monkeypatch.setattr(diagrams, "_left_kernel", counted)
    monkeypatch.setattr(diagrams, "_tori", lattice._Memo(diagrams._tori.cap))
    first = diagrams.cancellation_scan(5, 2, [1.0, 2.0])
    again = diagrams.cancellation_scan(5, 2, [1.0, 2.0])
    diagrams.cancellation_scan(5, 3, [0.5, 3.0, 8.0])
    assert builds == [5]
    assert again == first
    diagrams.cancellation_scan(4, 2, [1.0])
    assert builds == [5, 4]


def grid_arrays(grid):
    """Every array a grid holds, its kernel's and its pair rows' included."""
    arrays = []
    for value in [*vars(grid).values(), *vars(grid.left_kernel).values()]:
        if isinstance(value, list):
            arrays += value
        elif isinstance(value, np.ndarray):
            arrays.append(value)
        else:
            assert isinstance(value, (int, float, diagrams._LeftKernel))
    assert all(isinstance(a, np.ndarray) for a in arrays)
    return arrays


def test_the_torus_memo_is_bounded_and_holds_no_pair_table(monkeypatch):
    monkeypatch.setattr(diagrams, "_tori", lattice._Memo(diagrams._tori.cap))
    for ell in range(3, 9):
        diagrams.cancellation_scan(ell, 2, [1.0])
    floats = {ell: diagrams._grid_floats(g) for ell, g in diagrams._tori.items()}
    assert list(floats) == [3, 4, 5, 6, 7, 8]
    for ell, grid in diagrams._tori.items():
        assert type(grid) is diagrams.PeriodicGrid
        arrays = grid_arrays(grid)
        assert floats[ell] == sum(a.size for a in arrays)
        # nothing of the size of a (k_a, k_b) table over the nonzero modes
        assert max(a.size for a in arrays) < (ell**3 - 1) ** 2
    # room for the tori at ell 3 to 5, or at 5 and 7, not for those at 4, 5 and 7
    cap = floats[5] + floats[7]
    monkeypatch.setattr(diagrams, "_tori", lattice._Memo(cap))
    for ell, held in ((3, [3]), (4, [3, 4]), (5, [3, 4, 5]), (7, [5, 7]), (5, [7, 5]),
                      (4, [5, 4])):
        diagrams.cancellation_scan(ell, 2, [1.0])
        assert list(diagrams._tori) == held
        assert sum(diagrams._grid_floats(g) for g in diagrams._tori.values()) <= cap


def test_a_warm_memo_refuses_what_a_cold_one_refuses(monkeypatch):
    monkeypatch.setattr(diagrams, "_tori", lattice._Memo(diagrams._tori.cap))
    monkeypatch.setattr(diagrams, "ELL_CAP", 4)
    diagrams.cancellation_scan(5, 2, [1.0], allow_large=True)
    diagrams.cancellation_scan(4, 2, [1.0])
    with pytest.raises(CapacityError):
        diagrams.cancellation_scan(5, 2, [1.0])
    for ell in (4.0, 5.0, True):
        with pytest.raises(ValidationError):
            diagrams.cancellation_scan(ell, 2, [1.0])
    for two_s in (0, 2.0, True, None):
        with pytest.raises(ValidationError):
            diagrams.cancellation_scan(4, two_s, [1.0])
    for bt in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            diagrams.cancellation_scan(4, 2, [bt])
    assert list(diagrams._tori) == [5, 4]


@pytest.mark.parametrize("beta_tilde", [1e-320, 1e-300])
def test_a_temperature_too_high_for_floats_raises(beta_tilde):
    with pytest.raises(NumericalError, match="not finite"):
        diagrams.cancellation_scan(5, 2, [1.0, beta_tilde])
