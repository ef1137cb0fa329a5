import importlib
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
