import math

import numpy as np
import pytest
import dense_oracles
from conftest import dense_expectation, dense_log_z

from magnon import dispersion, fock, lattice, spin_ed, spinwave, wick
from magnon._errors import HypothesisError, ValidationError


def test_error_budget():
    b = spinwave.ErrorBudget({"a": 1.0, "b": 2.5})
    assert b.total == 3.5
    # tiny negative round-off is clipped, genuine negatives rejected
    assert spinwave.ErrorBudget({"a": -1e-13}).components["a"] == 0.0
    with pytest.raises(ValidationError):
        spinwave.ErrorBudget({"a": -1e-3})
    with pytest.raises(ValidationError):
        spinwave.ErrorBudget({"a": np.nan})


def test_bound_report_consistency_enforced():
    budget = spinwave.ErrorBudget({"x": 0.5})
    kwargs = dict(
        d=1,
        two_s=2,
        beta_tilde=1.0,
        ell=4,
        boundary="dirichlet",
        mode="exact",
        leading=-1.0,
        correction=-0.1,
        error_terms=budget,
        hypothesis_ok=True,
    )
    ok = spinwave.BoundReport(total_upper_bound=-0.6, **kwargs)
    assert ok.as_dict()["error_terms"]["total"] == 0.5
    with pytest.raises(ValidationError):
        spinwave.BoundReport(total_upper_bound=-0.4, **kwargs)
    with pytest.raises(ValidationError):
        spinwave.BoundReport(
            total_upper_bound=0.4,
            **{**kwargs, "correction": 0.1},
        )


def test_quartic_sine_sums_match_closed_forms():
    for ell in range(2, 11):
        ks = np.pi * np.arange(1, ell + 1) / (ell + 1)
        for k in ks:
            for kp in ks:
                direct = spinwave.quartic_sine_sums(ell, k, kp)
                closed = spinwave.quartic_sine_closed_forms(ell, k, kp)
                for a, b in zip(direct, closed):
                    assert a == pytest.approx(b, abs=1e-10)


def test_quartic_sine_sums_reject_off_grid():
    with pytest.raises(ValidationError):
        spinwave.quartic_sine_sums(4, 0.3, np.pi / 5.0)
    with pytest.raises(ValidationError):
        spinwave.quartic_sine_closed_forms(4, 0.0, np.pi / 5.0)


def test_t_squared_bounded_uniformly():
    for d, ell in ((1, 9), (2, 6), (3, 4)):
        spec = lattice.LatticeSpec(d, ell)
        for bt in (0.5, 1.0, 2.0, 8.0):
            assert spinwave.t_squared_expectation(spec, bt) <= 2.0 / bt**2


def test_t_squared_matches_dense():
    spec = lattice.LatticeSpec(1, 2)
    bt = 3.0
    basis = fock.FockBasis(spec, 20)
    td = fock.kinetic_dirichlet(basis)
    want = dense_expectation(td, bt, td @ td) / spec.n_sites**2
    got = spinwave.t_squared_expectation(spec, bt)
    assert got == pytest.approx(want, rel=1e-12)


def test_leading_discrete_matches_dense():
    spec = lattice.LatticeSpec(1, 2)
    bt = 3.0
    basis = fock.FockBasis(spec, 30)
    td = fock.kinetic_dirichlet(basis)
    want = -dense_log_z(td, bt) / (bt * spec.n_sites)
    got = spinwave.free_energy_leading_discrete(spec, bt)
    assert got == pytest.approx(want, rel=1e-12)
    assert got < 0.0


@pytest.mark.parametrize(
    "d,ell", [(1, 6), (2, 4), (3, 5)], ids=["chain", "square", "cube"]
)
def test_lattice_correction_matches_position_wick(d, ell):
    spec = lattice.LatticeSpec(d, ell)
    for two_s, bt in ((2, 2.0), (1, 1.0)):
        per_site = spinwave.interaction_correction_lattice(spec, two_s, bt)
        total = wick.expectation_I_position(spec, two_s, bt)
        assert per_site == pytest.approx(total / spec.n_sites, rel=1e-11, abs=1e-18)


def test_bulk_correction_converges_to_continuum():
    bt = 1.0
    two_s = 2
    for d, ells in ((3, (16, 32)), (2, (32, 64))):
        cont = spinwave.interaction_correction_continuum(d, two_s, bt)
        errs = [
            abs(
                spinwave.interaction_correction_bulk(
                    lattice.LatticeSpec(d, ell), two_s, bt
                )
                - cont
            )
            for ell in ells
        ]
        assert cont < 0.0
        # first-order boundary effect: the error halves per doubling
        assert 0.3 < errs[1] / errs[0] < 0.75


def test_lattice_correction_finite_size_halving():
    # the deviation from the continuum value decays like 1/ell once the box
    # resolves the thermal peak; successive doublings then shrink it by
    # roughly half
    bt, two_s, d = 4.0, 2, 3
    cont = spinwave.interaction_correction_continuum(d, two_s, bt)
    errs = [
        abs(
            spinwave.interaction_correction_lattice(
                lattice.LatticeSpec(d, ell), two_s, bt
            )
            - cont
        )
        for ell in (16, 32, 64)
    ]
    for a, b in zip(errs, errs[1:]):
        assert 0.3 <= b / a <= 0.8


def test_correction_validation():
    with pytest.raises(ValidationError):
        spinwave.interaction_correction_bulk(lattice.LatticeSpec(1, 8), 2, 1.0)
    with pytest.raises(ValidationError):
        spinwave.interaction_correction_continuum(1, 2, 1.0)
    with pytest.raises(ValidationError):
        spinwave.interaction_correction_lattice(
            lattice.LatticeSpec(1, 4, boundary=lattice.Boundary.PERIODIC), 2, 1.0
        )


def test_box_bound_routing_and_info():
    bt = 2.0
    small = lattice.LatticeSpec(1, 4)
    rep = spinwave.dirichlet_box_bound(small, 1, bt)
    assert rep.mode == "exact"
    assert rep.info["basis_dim"] == 2**4
    forced = spinwave.dirichlet_box_bound(small, 1, bt, projector_stats="analytic")
    assert forced.mode == "analytic"
    assert set(forced.error_terms.components) >= {
        "finite_size_leading",
        "projector_cross",
        "sqrt_remainder",
        "projector_entropy",
        "quadrature",
    }
    big = lattice.LatticeSpec(2, 4)  # 2^16 states, beyond the dense cap
    rep_big = spinwave.dirichlet_box_bound(big, 1, bt)
    assert rep_big.mode == "analytic"


def test_box_bound_validation():
    spec = lattice.LatticeSpec(1, 4)
    with pytest.raises(ValidationError):
        spinwave.dirichlet_box_bound(
            lattice.LatticeSpec(1, 4, boundary=lattice.Boundary.PERIODIC), 1, 2.0
        )
    with pytest.raises(ValidationError):
        spinwave.dirichlet_box_bound(spec, 0, 2.0)
    with pytest.raises(ValidationError):
        spinwave.dirichlet_box_bound(spec, 1, -1.0)
    with pytest.raises(ValidationError):
        spinwave.dirichlet_box_bound(spec, 1, 2.0, projector_stats="guess")


def test_analytic_route_raises_when_hypothesis_fails():
    # long chain at low temperature: per-site occupations are order one
    with pytest.raises(HypothesisError):
        spinwave.dirichlet_box_bound(
            lattice.LatticeSpec(1, 40), 1, 0.2, projector_stats="analytic"
        )


def test_exact_route_dominates_spin_free_energy():
    for d, ell, two_s, bt in ((1, 4, 1, 2.0), (1, 4, 1, 8.0), (2, 2, 1, 4.0)):
        spec = lattice.LatticeSpec(d, ell)
        rep = spinwave.dirichlet_box_bound(spec, two_s, bt, projector_stats="exact")
        exact = spin_ed.free_energy_per_spin(spec, two_s, bt)
        assert rep.total_upper_bound >= exact - 1e-10


def test_analytic_route_dominates_spin_free_energy():
    spec = lattice.LatticeSpec(1, 5)
    two_s, bt = 3, 4.0
    rep = spinwave.dirichlet_box_bound(spec, two_s, bt, projector_stats="analytic")
    exact = spin_ed.free_energy_per_spin(spec, two_s, bt)
    assert rep.hypothesis_ok
    assert rep.total_upper_bound >= exact - 1e-12
    assert rep.info["one_minus_p"] < 1e-3


def test_theorem_bound_validation():
    with pytest.raises(ValidationError):
        spinwave.theorem_upper_bound(1, 2, 1.0)
    with pytest.raises(ValidationError):
        spinwave.theorem_upper_bound(2, 2, 1.0, preset="small-beta")
    with pytest.raises(ValidationError):
        spinwave.theorem_upper_bound(3, 2, 1.0, preset="tiny")
    with pytest.raises(ValidationError):
        spinwave.theorem_upper_bound(3, 2, -1.0)
    with pytest.raises(ValidationError):
        spinwave.theorem_upper_bound(3, 2, 1.0, remainder_constant=-0.5)


def test_theorem_bound_structure():
    rep = spinwave.theorem_upper_bound(3, 8, 4.0)
    assert rep.mode == "asymptotic"
    assert rep.ell == int(round(4.0**3 * 16.0))
    assert set(rep.error_terms.components) == {"higher_order", "quadrature"}
    assert rep.leading < 0.0 and rep.correction <= 0.0
    # remainder term carries the stated parameter scaling
    s = 4.0
    want = 4.0**-3 / (s * s)
    assert rep.error_terms.components["higher_order"] == pytest.approx(want, rel=1e-12)
    doubled = spinwave.theorem_upper_bound(3, 8, 4.0, remainder_constant=2.0)
    assert doubled.error_terms.components["higher_order"] == pytest.approx(
        2.0 * want, rel=1e-12
    )


def test_theorem_bound_d2_log_factor():
    rep = spinwave.theorem_upper_bound(2, 8, 4.0)
    s = 4.0
    want = 4.0**-2 * math.log(s * 4.0) ** 3 / (s * s)
    assert rep.error_terms.components["higher_order"] == pytest.approx(want, rel=1e-12)


def test_theorem_hypothesis_flagged_not_raised():
    # deep low-temperature regime at small spin: the closed-form projector
    # weight blows up, the report must still be produced and flagged
    rep = spinwave.theorem_upper_bound(3, 2, 8.0)
    assert not rep.hypothesis_ok
    assert rep.warnings
    assert np.isfinite(rep.total_upper_bound)


def test_theorem_small_beta_preset():
    rep = spinwave.theorem_upper_bound(3, 6, 0.5, preset="small-beta")
    assert rep.info["preset"] == "small-beta"
    assert rep.ell == max(2, round(3.0**2))
    assert np.isfinite(rep.total_upper_bound)


@pytest.mark.parametrize("beta_tilde", [0.5, 2.0, 8.0])
@pytest.mark.parametrize("d, ell, two_s", [(1, 4, 1), (1, 6, 2), (2, 2, 3), (2, 3, 1)])
def test_exact_bound_matches_dense_oracle(d, ell, two_s, beta_tilde):
    # sector-blocked traces against one eigendecomposition of the full basis
    spec = lattice.LatticeSpec(d, ell)
    got = spinwave.dirichlet_box_bound(spec, two_s, beta_tilde, projector_stats="exact")
    want = dense_oracles.box_bound_exact(spec, two_s, beta_tilde)
    for name in ("leading", "correction", "total_upper_bound"):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-13, name
    for name in ("raw_correction", "raw_remainder"):
        assert abs(got.info[name] - want.info[name]) <= 1e-13, name
    assert got.info["basis_dim"] == want.info["basis_dim"] == (two_s + 1) ** spec.n_sites
    assert set(got.error_terms.components) == set(want.error_terms.components)
