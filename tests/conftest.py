"""Shared brute-force helpers for the test suite.

Everything here is deliberately naive: dense matrices, explicit loops, no
reuse of the package's clever paths, so tests compare two genuinely
independent routes.
"""

import numpy as np

from magnon._errors import ValidationError

# one line per acceptance criterion, replayed after the test summary so the
# ledger survives output capture
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def dense_log_z(h: np.ndarray, beta: float) -> float:
    w = np.linalg.eigvalsh(h)
    shift = w.min()
    return float(np.log(np.sum(np.exp(-beta * (w - shift)))) - beta * shift)


def dense_gibbs(h: np.ndarray, beta: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    boltz = np.exp(-beta * (w - w.min()))
    return (v * (boltz / boltz.sum())) @ v.T


def dense_expectation(h: np.ndarray, beta: float, obs: np.ndarray) -> float:
    return float(np.trace(dense_gibbs(h, beta) @ obs))


def random_symmetric(rng, n: int, scale: float = 1.0) -> np.ndarray:
    m = rng.standard_normal((n, n)) * scale
    return 0.5 * (m + m.T)


def richardson_extrapolate(xs, ys, order: int = 1):
    """Extrapolate ``ys`` to ``x -> 0`` assuming ``y = c0 + c1*x + ...``.

    Performs ``order`` levels of polynomial elimination (Neville at zero).
    Returns ``(limit, error_estimate)`` where the estimate is the change in
    the last elimination step.
    """
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys) or len(xs) < order + 1:
        raise ValidationError("need at least order+1 sample points")
    if sorted(set(xs)) != sorted(xs):
        raise ValidationError("sample points must be distinct")
    cur = ys[:]
    pts = xs[:]
    for m in range(1, order + 1):
        nxt = []
        for i in range(len(cur) - 1):
            x0, x1 = pts[i], pts[i + m]
            nxt.append((x0 * cur[i + 1] - x1 * cur[i]) / (x0 - x1))
        cur = nxt
    prev = cur[-2] if len(cur) >= 2 else ys[-1]
    return cur[-1], abs(cur[-1] - prev)
