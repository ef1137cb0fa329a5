"""Batch front end: subcommands for every computation, with reproducible output.

Six subcommands: ``free-energy``, ``correction``, ``ed-compare``,
``wick-verify``, ``diagrams``, ``verify``.  One table, ``_COMMANDS``, drives
the parser, the ``--config`` file, the echoed ``config`` and the output.  A
config file holds flat ``key=value`` lines whose keys are the flag names with
``_`` for ``-`` (``two_s = 2``, ``force = true``); flags win, and values are
held to the flags' types and choices.  Options a run would ignore exit 2:
``free-energy --mode`` without ``--ell``, ``--preset`` or
``--remainder-constant`` with ``--ell``, and ``diagrams --slopes`` with
``--format json``.  Output is deterministic: JSON with sorted keys and no
timestamps, CSV in scientific notation with 17 significant digits and ``\\n``
line endings, so identical configs produce identical bytes.

Exit codes: 0 success, 1 a verification check failed, 2 usage or validation
error (including capacity refusals), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__, diagrams, dispersion, fock, lattice, quadrature, spin_ed, spinwave, wick
from ._errors import (
    CapacityError,
    CheckFailure,
    HypothesisError,
    NumericalError,
    ValidationError,
)

__all__ = ["main", "build_parser"]

_FLOAT_FMT = "%.16e"

# Left out of the echoed config: the subcommand and the options that only steer output.
_NOT_ECHOED = ("command", "config", "output", "format", "slopes")


# ---------------------------------------------------------------------------
# config plumbing


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"cannot parse boolean from {text!r}")


def _float_list(text: str):
    try:
        values = [float(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"cannot parse number list from {text!r}") from exc
    if not values:
        raise ValidationError(f"empty number list {text!r}")
    return values


def _int_list(text: str):
    try:
        values = [int(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"cannot parse integer list from {text!r}") from exc
    if not values:
        raise ValidationError(f"empty integer list {text!r}")
    return values


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, val = line.partition("=")
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    return values


def _apply_config(args: argparse.Namespace, options) -> None:
    """Fill unset options from the config file through their table entries; flags win."""
    if args.config is None:
        return
    entries = {entry[0]: entry for entry in options + (_OUTPUT,)}
    for key, text in _read_config_file(args.config).items():
        if key not in entries:
            raise ValidationError(f"config key {key!r} is not an option of {args.command}")
        if getattr(args, key) is not None:
            continue
        _, type_, choices, _ = entries[key]
        try:
            value = (_parse_bool if type_ is bool else type_)(text)
            if choices is not None and value not in choices:
                raise ValidationError(f"{value!r} is not one of {', '.join(choices)}")
        except (ValueError, ValidationError) as exc:
            raise ValidationError(f"config key {key!r}: {exc}") from exc
        setattr(args, key, value)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise ValidationError(f"missing required option {_flag(name)}")


def _refuse(args: argparse.Namespace, reason: str, *names: str) -> None:
    """Refuse options this run would ignore."""
    for name in names:
        if getattr(args, name) is not None:
            raise ValidationError(f"{_flag(name)} {reason}")


# ---------------------------------------------------------------------------
# output plumbing


def _write_text(text: str, path) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_cell(value) -> str:
    if value is None:
        return _FLOAT_FMT % float("nan")
    if isinstance(value, (bool, int, np.integer)):
        return str(int(value))
    return _FLOAT_FMT % float(value)


def _emit(args: argparse.Namespace, columns, table, **body) -> None:
    """Write the payload (command, version, options set, ``body``) as JSON, or
    the ``columns`` of the dict rows ``table`` as CSV (``None`` as ``nan``) plus
    the payload to ``--slopes`` if set."""
    config = {k: v for k, v in vars(args).items() if v is not None and k not in _NOT_ECHOED}
    payload = {"command": args.command, "version": __version__, "config": config, **body}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if getattr(args, "format", None) != "csv":
        _write_text(text, args.output)
        return
    lines = [",".join(columns)]
    lines.extend(",".join(_csv_cell(row[c]) for c in columns) for row in table)
    _write_text("\n".join(lines) + "\n", args.output)
    if getattr(args, "slopes", None):
        _write_text(text, args.slopes)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_free_energy(args) -> int:
    _require(args, "d", "two_s", "beta_tilde")
    mode = args.mode or "auto"
    if args.ell is None:
        _refuse(args, "applies only with --ell", "mode")
    else:
        _refuse(args, "does not apply with --ell", "preset", "remainder_constant")
    reports = []
    for bt in _float_list(args.beta_tilde):
        if args.ell is not None:
            spec = lattice.LatticeSpec(args.d, args.ell, lattice.Boundary.DIRICHLET)
            rep = spinwave.dirichlet_box_bound(spec, args.two_s, bt, projector_stats=mode)
        else:
            rep = spinwave.theorem_upper_bound(
                args.d,
                args.two_s,
                bt,
                remainder_constant=(
                    args.remainder_constant if args.remainder_constant is not None else 1.0
                ),
                preset=args.preset,
            )
        reports.append(rep.as_dict())
    columns = ("beta_tilde", "leading", "correction", "error_total", "total_upper_bound",
               "hypothesis_ok")
    table = [dict(r, error_total=r["error_terms"]["total"]) for r in reports]
    _emit(args, columns, table, reports=reports)
    return 0


def _cmd_correction(args) -> int:
    _require(args, "d", "ell", "two_s", "beta_tilde")
    bts = _float_list(args.beta_tilde)
    spec = lattice.LatticeSpec(args.d, args.ell, lattice.Boundary.DIRICHLET)
    rows = []
    for bt in bts:
        lattice_val = spinwave.interaction_correction_lattice(spec, args.two_s, bt)
        bulk = continuum = None
        if args.d in (2, 3):
            bulk = spinwave.interaction_correction_bulk(spec, args.two_s, bt)
            continuum = spinwave.interaction_correction_continuum(args.d, args.two_s, bt)
        rows.append(
            {
                "beta_tilde": bt,
                "lattice": lattice_val,
                "bulk": bulk,
                "continuum": continuum,
            }
        )
    _emit(args, ("beta_tilde", "lattice", "bulk", "continuum"), rows, rows=rows)
    return 0


def _cmd_ed_compare(args) -> int:
    _require(args, "d", "ell", "two_s", "beta_tilde")
    bts = _float_list(args.beta_tilde)
    spec = lattice.LatticeSpec(args.d, args.ell, lattice.Boundary.DIRICHLET)
    mode = args.mode or "auto"
    rows = []
    failures = 0
    for bt in bts:
        exact = spin_ed.free_energy_per_spin(spec, args.two_s, bt, dirichlet=True)
        report = spinwave.dirichlet_box_bound(spec, args.two_s, bt, projector_stats=mode)
        margin = report.total_upper_bound - exact
        ok = margin >= -1e-10
        failures += 0 if ok else 1
        rows.append(
            {
                "beta_tilde": bt,
                "exact_free_energy": exact,
                "upper_bound": report.total_upper_bound,
                "margin": margin,
                "ok": ok,
            }
        )
    columns = ("beta_tilde", "exact_free_energy", "upper_bound", "margin", "ok")
    _emit(args, columns, rows, rows=rows, all_ok=failures == 0)
    if failures:
        print(f"ed-compare: {failures} of {len(rows)} margins negative", file=sys.stderr)
        return 1
    return 0


def _cmd_wick_verify(args) -> int:
    _require(args, "d", "ell", "two_s", "beta_tilde")
    bts = _float_list(args.beta_tilde)
    if len(bts) != 1:
        raise ValidationError(f"--beta-tilde takes one value, got {args.beta_tilde!r}")
    (bt,) = bts
    rel_tol = args.rel_tol if args.rel_tol is not None else 1e-10
    fock_rel_tol = args.fock_rel_tol if args.fock_rel_tol is not None else 1e-5
    spec = lattice.LatticeSpec(args.d, args.ell, lattice.Boundary.DIRICHLET)
    position = wick.expectation_I_position(spec, args.two_s, bt)
    mode_space = spinwave.interaction_correction_lattice(spec, args.two_s, bt) * spec.n_sites
    monomials = wick.expectation_I_monomials(spec, args.two_s, bt)
    scale = max(abs(position), 1e-300)
    checks = [
        {
            "name": "mode_space_vs_position",
            "error": abs(mode_space - position) / scale,
            "tol": rel_tol,
        },
        {
            "name": "monomial_engine_vs_position",
            "error": abs(monomials - position) / scale,
            "tol": rel_tol,
        },
    ]
    fock_values = {}
    if args.cutoffs is not None:
        cutoffs = _int_list(args.cutoffs)
        if sorted(cutoffs) != cutoffs or len(set(cutoffs)) != len(cutoffs):
            raise ValidationError("cutoffs must be strictly increasing")
        errors = []
        for cut in cutoffs:
            (value,), _ = fock.gibbs_expectation_truncated(
                spec, cut, bt, lambda sb, h: [fock.quartic(sb, args.two_s)]
            )
            fock_values[str(cut)] = value
            errors.append(abs(value - position) / scale)
        for lo, hi in zip(errors, errors[1:]):
            checks.append(
                {"name": "fock_error_shrinks", "error": hi / max(lo, 1e-300), "tol": 1.0}
            )
        checks.append({"name": "fock_vs_position", "error": errors[-1], "tol": fock_rel_tol})
    ok = all(c["error"] <= c["tol"] for c in checks)
    _emit(
        args,
        None,
        None,
        values={
            "position": position,
            "mode_space": mode_space,
            "monomials": monomials,
            "fock": fock_values,
        },
        checks=checks,
        all_ok=ok,
    )
    if not ok:
        print("wick-verify: route disagreement beyond tolerance", file=sys.stderr)
        return 1
    return 0


def _cmd_diagrams(args) -> int:
    _require(args, "ell", "beta_tilde")
    args.format = args.format or "csv"  # a scan is plot-ready CSV by default
    if args.format == "json":
        _refuse(args, "applies only to --format csv", "slopes")
    two_s = args.two_s if args.two_s is not None else 2
    bts = _float_list(args.beta_tilde)
    scan = diagrams.cancellation_scan(
        args.ell,
        two_s,
        bts,
        allow_large=bool(args.force),
        k3_samples=args.k3_samples if args.k3_samples is not None else 100,
        seed=args.seed if args.seed is not None else 0,
    )
    columns = ("beta_tilde", "biggest_error", "left_f1f2", "combined")
    _emit(args, columns, scan.rows, rows=list(scan.rows), slopes=scan.slopes,
          k3_residual_max=scan.k3_residual_max, zero_mode_policy=scan.zero_mode_policy)
    return 0


# --- the verify suite -------------------------------------------------------


def _check_trig() -> tuple:
    worst = 0.0
    for ell in range(1, 17):
        grid = np.pi * np.arange(1, ell + 1) / (ell + 1)
        for k in grid:
            for kp in grid:
                direct = spinwave.quartic_sine_sums(ell, k, kp)
                closed = spinwave.quartic_sine_closed_forms(ell, k, kp)
                worst = max(worst, max(abs(a - b) for a, b in zip(direct, closed)))
    return worst, 1e-12


def _check_hp() -> tuple:
    worst = 0.0
    cases = [(1, 2, 1), (1, 2, 2), (1, 3, 1), (1, 3, 2), (2, 2, 1)]
    for d, ell, two_s in cases:
        spec = lattice.LatticeSpec(d, ell, lattice.Boundary.DIRICHLET)
        worst = max(worst, spin_ed.hp_equivalence_check(spec, two_s))
    return worst, 1e-10


def _check_magnon() -> tuple:
    worst = 0.0
    cases = [(1, 4, 1), (1, 5, 1), (1, 4, 2), (2, 3, 1)]
    for d, ell, two_s in cases:
        spec = lattice.LatticeSpec(d, ell, lattice.Boundary.PERIODIC)
        for k in lattice.periodic_modes(spec):
            worst = max(worst, spin_ed.magnon_check(spec, two_s, k))
    return worst, 1e-10


def _check_wick() -> tuple:
    worst = 0.0
    for d, ell in ((1, 6), (2, 4), (3, 3)):
        spec = lattice.LatticeSpec(d, ell, lattice.Boundary.DIRICHLET)
        for bt in (1.0, 4.0):
            pos = wick.expectation_I_position(spec, 2, bt)
            mode = spinwave.interaction_correction_lattice(spec, 2, bt) * spec.n_sites
            worst = max(worst, abs(mode - pos) / max(abs(pos), 1e-300))
    spec = lattice.LatticeSpec(2, 2, lattice.Boundary.DIRICHLET)
    pos = wick.expectation_I_position(spec, 1, 2.0)
    (val,), _ = fock.gibbs_expectation_truncated(spec, 8, 2.0, lambda sb, h: [fock.quartic(sb, 1)])
    worst = max(worst, abs(val - pos) / max(abs(pos), 1e-300))
    return worst, 1e-10


def _check_rho() -> tuple:
    # Margin check: report max(rho - bound), which must stay <= 0.
    worst = -np.inf
    cases = [(3, 1.0, 8), (3, 4.0, 8), (2, 1.0, 8), (2, 2.0, 16)]
    for d, bt, ell in cases:
        spec = lattice.LatticeSpec(d, ell, lattice.Boundary.DIRICHLET)
        rho_max = float(np.max(dispersion.two_point_diagonal(spec, bt)))
        worst = max(worst, rho_max - dispersion.rho_upper_bound(d, bt, ell))
    spec = lattice.LatticeSpec(3, 8, lattice.Boundary.DIRICHLET)
    rho_max = float(np.max(dispersion.two_point_diagonal(spec, 0.5)))
    worst = max(worst, rho_max - dispersion.rho_small_beta_bound(0.5))
    return worst, 0.0


def _check_riemann() -> tuple:
    worst = -np.inf
    for n in (2, 3):
        def g(k, _bt=2.0):
            return dispersion.epsilon(k) / np.expm1(_bt * np.maximum(dispersion.epsilon(k), 1e-300))

        res = quadrature.riemann_lower_sum_check(g, 8, n, d1=0.5, d2=np.sqrt(n))
        worst = max(worst, -res.margin)
    return worst, 0.0


def _check_variational() -> tuple:
    worst = -np.inf
    cases = [(1, 4, 2.0), (1, 4, 8.0), (2, 2, 4.0)]
    for d, ell, bt in cases:
        spec = lattice.LatticeSpec(d, ell, lattice.Boundary.DIRICHLET)
        exact = spin_ed.free_energy_per_spin(spec, 1, bt, dirichlet=True)
        report = spinwave.dirichlet_box_bound(spec, 1, bt, projector_stats="exact")
        worst = max(worst, exact - report.total_upper_bound)
    return worst, 1e-10


_VERIFY_CHECKS = (
    ("trig", "quartic sine sums vs closed forms", _check_trig),
    ("hp", "spin vs bosonic Hamiltonian equivalence", _check_hp),
    ("magnon", "one-magnon eigenstate residuals", _check_magnon),
    ("wick", "quartic expectation route agreement", _check_wick),
    ("rho", "occupation bound margins", _check_rho),
    ("riemann", "lower Riemann sum inequality margins", _check_riemann),
    ("variational", "exact free energy below box bound", _check_variational),
)


def _cmd_verify(args) -> int:
    tags = [t for t, _, _ in _VERIFY_CHECKS]
    if args.only is not None and args.only not in tags:
        raise ValidationError(f"unknown check tag {args.only!r}; choose from {tags}")
    perturb = args.perturb_epsilon or 0.0
    original = dispersion.epsilon
    if perturb:
        def tilted(k, _orig=original, _eps=perturb):
            return _orig(k) * (1.0 + _eps)

        dispersion.epsilon = tilted
    failures = 0
    try:
        for tag, label, fn in _VERIFY_CHECKS:
            if args.only is not None and tag != args.only:
                continue
            try:
                err, tol = fn()
                ok = err <= tol
            except (ValidationError, NumericalError, HypothesisError, CheckFailure) as exc:
                err, tol, ok = float("nan"), float("nan"), False
                label = f"{label} [{exc}]"
            failures += 0 if ok else 1
            status = "PASS" if ok else "FAIL"
            print(f"{status} {tag:12s} {label}: worst={err:.3e} tol={tol:.3e}")
    finally:
        if perturb:
            dispersion.epsilon = original
    if perturb:
        print(f"(dispersion perturbed by relative {perturb:g} for harness sanity check)")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# the option table: (name, help, handler, options) per subcommand.  An option
# is (dest, type, choices, help); ``bool`` marks the one on/off flag, which
# takes no value as a flag and a boolean word in a config file.

_D = ("d", int, None, None)
_ELL = ("ell", int, None, None)
_TWO_S = ("two_s", int, None, None)
_BETA_TILDES = ("beta_tilde", str, None, "value or comma list")
_MODE = ("mode", str, ("auto", "exact", "analytic"), None)
_FORMAT = ("format", str, ("json", "csv"), None)
_CONFIG = ("config", str, None, "flat key=value config file; flags override")
_OUTPUT = ("output", str, None, "output path ('-' or omit for stdout)")

_COMMANDS = (
    ("free-energy", "certified upper bound on f/S", _cmd_free_energy, (
        _D,
        ("ell", int, None, "explicit box side (default: matched to beta, S)"),
        _TWO_S, _BETA_TILDES, _MODE,
        ("preset", str, ("small-beta",), None),
        ("remainder_constant", float, None, None),
        _FORMAT,
    )),
    ("correction", "quartic correction: lattice, bulk, continuum", _cmd_correction, (
        _D, _ELL, _TWO_S, _BETA_TILDES, _FORMAT,
    )),
    ("ed-compare", "exact diagonalization vs the box bound", _cmd_ed_compare, (
        _D, _ELL, _TWO_S, _BETA_TILDES, _MODE, _FORMAT,
    )),
    ("wick-verify", "quartic expectation by three routes", _cmd_wick_verify, (
        _D, _ELL, _TWO_S,
        ("beta_tilde", str, None, "single value"),
        ("cutoffs", str, None, "comma list of Fock cutoffs (optional brute-force route)"),
        ("rel_tol", float, None, None),
        ("fock_rel_tol", float, None, None),
    )),
    ("diagrams", "second-order diagram cancellation scan", _cmd_diagrams, (
        _ELL, _TWO_S, _BETA_TILDES,
        ("force", bool, None, "override the ell cap"),
        ("seed", int, None, None),
        ("k3_samples", int, None, None),
        _FORMAT,
        ("slopes", str, None, "also write the JSON summary here (csv format only)"),
    )),
    ("verify", "desk-scale self-verification suite", _cmd_verify, (
        ("only", str, None, "run a single check: trig|hp|magnon|wick|rho|riemann|variational"),
        ("perturb_epsilon", float, None,
         "tilt the dispersion by a relative factor to confirm checks catch it"),
    )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magnon",
        description="Spin-wave free-energy bounds for the large-spin Heisenberg ferromagnet.",
    )
    parser.add_argument("--version", action="version", version=f"magnon {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_, _, options in _COMMANDS:
        p = subs.add_parser(name, help=help_)
        for dest, type_, choices, opt_help in options + (_CONFIG, _OUTPUT):
            if type_ is bool:
                p.add_argument(_flag(dest), action="store_const", const=True, help=opt_help)
            else:
                p.add_argument(_flag(dest), type=type_, choices=choices, help=opt_help)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error: return it like every other one
        if exc.code == 0:
            raise
        return exc.code
    _, _, handler, options = next(c for c in _COMMANDS if c[0] == args.command)
    try:
        _apply_config(args, options)
        return handler(args)
    except (ValidationError, CapacityError) as exc:
        print(f"magnon: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"magnon: check failed: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, HypothesisError, FloatingPointError) as exc:
        print(f"magnon: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
