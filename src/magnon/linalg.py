"""Dense symmetric eigensolves.

A thin, validated wrapper around LAPACK's symmetric eigensolver.  A hard
dimension cap keeps accidental exponential-size requests from thrashing the
machine.  Thermal traces are sector-blocked: every Hamiltonian traced in
this package conserves the total boson number (total ``S^3``), so
``fock.gibbs_expectation_truncated`` calls ``eigh`` once per sector of a
trace it has not seen before, at any temperature, unless its memos hold
the trace's eigensystems; it shifts the spectra by the lowest eigenvalue of
all its sectors, so nothing overflows no matter how large ``beta`` is.  A
trace that needs only ``log Z`` (the spin free energy) calls ``eigvalsh``
instead, which runs the same checks and skips the eigenvectors; it never
uses the eigensystem memo, because the two LAPACK paths round differently.
Both check the cap, finiteness and symmetry of their input: they solve it
as given when it equals its transpose (every hop-table operator does: a
move and its reverse take their amplitude from the same integers), and its
symmetrized copy when it is symmetric only to rounding.
"""

from __future__ import annotations

import numpy as np

from ._errors import CapacityError, NumericalError, ValidationError

__all__ = [
    "DENSE_DIM_CAP",
    "eigh",
    "eigvalsh",
]

DENSE_DIM_CAP = 4096


def _check_symmetric(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] > DENSE_DIM_CAP:
        raise CapacityError(
            f"{name} dimension {m.shape[0]} exceeds dense cap {DENSE_DIM_CAP}"
        )
    if not np.isfinite(m).all():
        raise NumericalError(f"{name} contains non-finite entries")
    if np.array_equal(m, m.T):
        return m  # symmetrizing would return the same bits
    scale = max(1.0, float(np.max(np.abs(m))))
    asym = float(np.max(np.abs(m - m.T)))
    if asym > 1e-12 * scale:
        raise ValidationError(f"{name} is not symmetric (max asymmetry {asym:.3e})")
    return 0.5 * (m + m.T)


def eigh(m: np.ndarray):
    """Eigenvalues and orthonormal eigenvectors of a real symmetric matrix.

    Returns ``(w, v)`` with ``w`` ascending and ``m @ v = v @ diag(w)``.
    """
    w, v = np.linalg.eigh(_check_symmetric(m))
    return w, v


def eigvalsh(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a real symmetric matrix, checked like ``eigh``."""
    return np.linalg.eigvalsh(_check_symmetric(m))
