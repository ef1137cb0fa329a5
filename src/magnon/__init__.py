"""Rigorous spin-wave bounds on the free energy of the large-spin Heisenberg
ferromagnet, with the exact-diagonalization and diagram machinery used to
verify them at desk scale."""

__version__ = "0.1.0"

from . import (
    diagrams,
    dispersion,
    fock,
    lattice,
    linalg,
    quadrature,
    spin_ed,
    spinwave,
    wick,
)
from ._errors import (
    CapacityError,
    HypothesisError,
    MagnonError,
    NumericalError,
    ValidationError,
)
from .lattice import Boundary, LatticeSpec
from .spinwave import BoundReport, dirichlet_box_bound, theorem_upper_bound

__all__ = [
    "__version__",
    "Boundary",
    "LatticeSpec",
    "BoundReport",
    "dirichlet_box_bound",
    "theorem_upper_bound",
    "MagnonError",
    "ValidationError",
    "CapacityError",
    "NumericalError",
    "HypothesisError",
    "lattice",
    "dispersion",
    "quadrature",
    "linalg",
    "fock",
    "spin_ed",
    "wick",
    "spinwave",
    "diagrams",
]
