import importlib
import inspect
import math
import pkgutil

import pytest

import magnon
from magnon import diagrams, dispersion, fock, lattice, quadrature, spin_ed, spinwave, wick
from magnon._errors import ValidationError

MODULES = ["magnon"] + [
    f"magnon.{info.name}" for info in pkgutil.iter_modules(magnon.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_exists(name):
    # tools that wrap the public API look up every __all__ entry
    mod = importlib.import_module(name)
    names = getattr(mod, "__all__", [])
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(mod, n)] == []


_BOX = lattice.LatticeSpec(1, 3)
_TORUS = diagrams.PeriodicGrid(4)
# every public entry that takes a temperature, called at ``bt``
_TEMPERATURE_ENTRIES = {
    "bose_from_energy": lambda bt: dispersion.bose_from_energy([1.0], bt),
    "rho_upper_bound": lambda bt: dispersion.rho_upper_bound(3, bt, 8),
    "rho_small_beta_bound": lambda bt: dispersion.rho_small_beta_bound(bt),
    "two_point_diagonal": lambda bt: dispersion.two_point_diagonal(_BOX, bt),
    "gibbs_expectation_truncated": lambda bt: fock.gibbs_expectation_truncated(_BOX, 2, bt, None),
    "leading_free_energy": lambda bt: quadrature.leading_free_energy(3, bt),
    "correction_integral": lambda bt: quadrature.correction_integral(3, bt),
    "box_bound_exact": lambda bt: spinwave.dirichlet_box_bound(_BOX, 1, bt, "exact"),
    "box_bound_analytic": lambda bt: spinwave.dirichlet_box_bound(_BOX, 1, bt, "analytic"),
    "theorem_upper_bound": lambda bt: spinwave.theorem_upper_bound(3, 2, bt),
    "interaction_correction_lattice": lambda bt: spinwave.interaction_correction_lattice(
        _BOX, 2, bt
    ),
    "spin_ed": lambda bt: spin_ed.free_energy_per_spin(_BOX, 1, bt),
    "cross_term_bound": lambda bt: wick.cross_term_bound(_BOX, 2, bt),
    "expectation_I_monomials": lambda bt: wick.expectation_I_monomials(_BOX, 2, bt),
    "left_diagram": lambda bt: diagrams.left_diagram(_TORUS, bt, 2),
    "right_diagram": lambda bt: diagrams.right_diagram(_TORUS, bt, 2),
}


@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("entry", sorted(_TEMPERATURE_ENTRIES))
def test_temperature_must_be_positive_and_finite(entry, value):
    with pytest.raises(ValidationError, match="beta_tilde must be positive"):
        _TEMPERATURE_ENTRIES[entry](value)


_RING = lattice.LatticeSpec(1, 3, lattice.Boundary.PERIODIC)
_BASIS = fock.FockBasis(_BOX, 1)
# every public entry that takes 2S, called at ``two_s``
_SPIN_ENTRIES = {
    "occupation_tail_bound": lambda ts: dispersion.occupation_tail_bound(0.1, ts),
    "one_minus_p_bound": lambda ts: dispersion.one_minus_p_bound(3, 2.0, 8, ts),
    "quartic": lambda ts: fock.quartic(_BASIS, ts),
    "hp_hamiltonian": lambda ts: fock.hp_hamiltonian(_BASIS, ts),
    "remainder": lambda ts: fock.remainder(_BASIS, ts),
    "projector_mask": lambda ts: fock.projector_mask(_BASIS, ts),
    "spin_matrices": lambda ts: spin_ed.spin_matrices(ts),
    "heisenberg_hamiltonian": lambda ts: spin_ed.heisenberg_hamiltonian(_BOX, ts),
    "dirichlet_hamiltonian": lambda ts: spin_ed.dirichlet_hamiltonian(_BOX, ts),
    "free_energy_per_spin": lambda ts: spin_ed.free_energy_per_spin(_BOX, ts, 2.0),
    "magnon_check": lambda ts: spin_ed.magnon_check(_RING, ts, [0.0]),
    "hp_equivalence_check": lambda ts: spin_ed.hp_equivalence_check(_BOX, ts),
    "expectation_I_position": lambda ts: wick.expectation_I_position(_BOX, ts, 2.0),
    "expectation_I_monomials": lambda ts: wick.expectation_I_monomials(_BOX, ts, 2.0),
    "projector_deficit": lambda ts: wick.projector_deficit(_BOX, 2.0, ts),
    "interaction_squared_bound": lambda ts: wick.interaction_squared_bound(_BOX, ts, 2.0),
    "cross_term_bound": lambda ts: wick.cross_term_bound(_BOX, ts, 2.0),
    "remainder_bound": lambda ts: wick.remainder_bound(_BOX, ts, 2.0),
    "cross_term_check": lambda ts: wick.cross_term_check(_BOX, ts, 2.0, 2),
    "remainder_check": lambda ts: wick.remainder_check(_BOX, ts, 2.0, 2),
    "interaction_correction_lattice": lambda ts: spinwave.interaction_correction_lattice(
        _BOX, ts, 2.0
    ),
    "interaction_correction_bulk": lambda ts: spinwave.interaction_correction_bulk(
        lattice.LatticeSpec(2, 3), ts, 2.0
    ),
    "interaction_correction_continuum": lambda ts: spinwave.interaction_correction_continuum(
        3, ts, 2.0
    ),
    "dirichlet_box_bound": lambda ts: spinwave.dirichlet_box_bound(_BOX, ts, 2.0),
    "theorem_upper_bound": lambda ts: spinwave.theorem_upper_bound(3, ts, 2.0),
    "expectation_J": lambda ts: diagrams.expectation_J(_TORUS, 2.0, ts),
    "biggest_error_term": lambda ts: diagrams.biggest_error_term(_TORUS, 2.0, ts),
    "left_diagram": lambda ts: diagrams.left_diagram(_TORUS, 2.0, ts),
    "right_diagram": lambda ts: diagrams.right_diagram(_TORUS, 2.0, ts),
    "cancellation_scan": lambda ts: diagrams.cancellation_scan(4, ts, [2.0]),
}


def test_spin_table_covers_every_public_entry():
    takes_two_s = {
        name
        for mod in (dispersion, fock, spin_ed, wick, spinwave, diagrams)
        for name in mod.__all__
        if inspect.isfunction(getattr(mod, name))
        and "two_s" in inspect.signature(getattr(mod, name)).parameters
    }
    assert takes_two_s == set(_SPIN_ENTRIES)


@pytest.mark.parametrize("value", [0, -2, 1.5, True])
@pytest.mark.parametrize("entry", sorted(_SPIN_ENTRIES))
def test_spin_must_be_a_positive_integer(entry, value):
    with pytest.raises(ValidationError, match="two_s must be a positive integer"):
        _SPIN_ENTRIES[entry](value)


# every public entry that takes a per-site boson cap, called at ``n_max``
_CUTOFF_ENTRIES = {
    "FockBasis": lambda n: fock.FockBasis(_BOX, n),
    "SectorBasis": lambda n: fock.SectorBasis(_BOX, n, 1),
    "gibbs_expectation_truncated": lambda n: fock.gibbs_expectation_truncated(_BOX, n, 2.0, None),
    "cross_term_check": lambda n: wick.cross_term_check(_BOX, 2, 1.0, n),
}


@pytest.mark.parametrize("value", [0, -1, 2.0, True])
@pytest.mark.parametrize("entry", sorted(_CUTOFF_ENTRIES))
def test_cutoff_must_be_a_positive_integer(entry, value):
    with pytest.raises(ValidationError, match="n_max must be a positive integer"):
        _CUTOFF_ENTRIES[entry](value)


# every other integer input, called at ``value``, and the message of its refusal
_COUNT_ENTRIES = {
    "LatticeSpec.d": (lambda v: lattice.LatticeSpec(v, 3), "dimension must be 1, 2 or 3"),
    "LatticeSpec.ell": (lambda v: lattice.LatticeSpec(1, v), "side length must be a positive"),
    "LatticeSpec.boundary": (lambda v: lattice.LatticeSpec(1, 3, v), "unknown boundary"),
    "rho_upper_bound.d": (
        lambda v: dispersion.rho_upper_bound(v, 1.0, 8), "occupation bound is available"
    ),
    "rho_upper_bound.ell": (
        lambda v: dispersion.rho_upper_bound(3, 1.0, v), "ell must be a positive integer"
    ),
    "one_minus_p_bound.d": (
        lambda v: dispersion.one_minus_p_bound(v, 1.0, 8, 2, rho_bound=0.1),
        "dimension must be 1, 2 or 3",
    ),
    "one_minus_p_bound.ell": (
        lambda v: dispersion.one_minus_p_bound(3, 1.0, v, 2), "ell must be a positive integer"
    ),
    "tensor_integral": (
        lambda v: quadrature.tensor_integral(lambda pts: pts[:, 0], v, n_gl=2, depth=1),
        "dim must be a positive integer",
    ),
    "leading_free_energy": (
        lambda v: quadrature.leading_free_energy(v, 1.0), "dimension must be 1, 2 or 3"
    ),
    "correction_integral": (
        lambda v: quadrature.correction_integral(v, 1.0), "dimension must be 1, 2 or 3"
    ),
    "riemann_lower_sum_check.ell": (
        lambda v: quadrature.riemann_lower_sum_check(lambda pts: pts[:, 0], v, 1, 1.0, 1.0),
        "ell must be positive",
    ),
    "riemann_lower_sum_check.n": (
        lambda v: quadrature.riemann_lower_sum_check(lambda pts: pts[:, 0], 4, v, 1.0, 1.0),
        "grid dimension must be 1, 2 or 3",
    ),
    "theorem_upper_bound": (
        lambda v: spinwave.theorem_upper_bound(v, 2, 1.0), "the asymptotic bound covers d"
    ),
    "interaction_correction_continuum": (
        lambda v: spinwave.interaction_correction_continuum(v, 2, 1.0),
        "the continuum correction needs d",
    ),
    "PeriodicGrid": (lambda v: diagrams.PeriodicGrid(v), "needs an integer ell >= 3"),
    "SectorBasis": (lambda v: fock.SectorBasis(_BOX, 2, v), "n_total must be a nonnegative"),
    "max_total": (
        lambda v: fock.gibbs_expectation_truncated(_BOX, 2, 2.0, None, max_total=v),
        "max_total must be a nonnegative integer",
    ),
}


@pytest.mark.parametrize("value", [-1, 2.0, True])
@pytest.mark.parametrize("entry", sorted(_COUNT_ENTRIES))
def test_counts_must_be_integers(entry, value):
    make, message = _COUNT_ENTRIES[entry]
    with pytest.raises(ValidationError, match=message):
        make(value)
