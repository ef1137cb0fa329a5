"""Batch front end: subcommands for every computation, with reproducible output.

Six subcommands: ``free-energy``, ``correction``, ``ed-compare``,
``wick-verify``, ``diagrams``, ``verify``.  Options may come from a flat
``key=value`` config file (``--config``); command-line flags win.  Output is
deterministic: JSON with sorted keys and no timestamps, CSV in scientific
notation with 17 significant digits and ``\\n`` line endings, so identical
configs produce identical bytes.

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


# Choices shared by argparse and the config-file converters.
_FORMATS = ("json", "csv")
_MODES = ("auto", "exact", "analytic")
_PRESETS = ("small-beta",)
_ZERO_MODES = ("exclude",)


def _one_of(choices):
    def convert(text: str) -> str:
        if text not in choices:
            raise ValidationError(f"{text!r} is not one of {', '.join(choices)}")
        return text

    return convert


_CONVERTERS = {
    "d": int,
    "ell": int,
    "two_s": int,
    "beta_tilde": str,
    "mode": _one_of(_MODES),
    "preset": _one_of(_PRESETS),
    "remainder_constant": float,
    "n_max": int,
    "cutoffs": str,
    "force": _parse_bool,
    "zero_mode": _one_of(_ZERO_MODES),
    "seed": int,
    "k3_samples": int,
    "output": str,
    "format": _one_of(_FORMATS),
    "slopes": str,
    "only": str,
    "perturb_epsilon": float,
    "rel_tol": float,
    "fock_rel_tol": float,
}


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


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset options from the config file; flags keep priority."""
    if not getattr(args, "config", None):
        return
    for key, text in _read_config_file(args.config).items():
        if key not in _CONVERTERS:
            raise ValidationError(f"unknown config key {key!r}")
        if not hasattr(args, key):
            raise ValidationError(f"config key {key!r} does not apply to this subcommand")
        if getattr(args, key) is None:
            try:
                setattr(args, key, _CONVERTERS[key](text))
            except (ValueError, ValidationError) as exc:
                raise ValidationError(f"config key {key!r}: {exc}") from exc


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise ValidationError(f"missing required option --{name.replace('_', '-')}")


def _resolved_config(args: argparse.Namespace, keys) -> dict:
    out = {}
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            out[key] = val
    return out


# ---------------------------------------------------------------------------
# output plumbing


def _write_text(text: str, path) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_json(payload: dict, path) -> None:
    _write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", path)


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _FLOAT_FMT % float(value)


def _emit_csv(header, rows, path) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    _write_text("\n".join(lines) + "\n", path)


def _payload(command: str, config: dict, **body) -> dict:
    out = {"command": command, "version": __version__, "config": config}
    out.update(body)
    return out


# ---------------------------------------------------------------------------
# subcommands


def _cmd_free_energy(args) -> int:
    _apply_config(args)
    _require(args, "d", "two_s", "beta_tilde")
    bts = _float_list(args.beta_tilde)
    mode = args.mode or "auto"
    reports = []
    for bt in bts:
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
        reports.append(rep)
    config = _resolved_config(
        args, ("d", "ell", "two_s", "beta_tilde", "mode", "preset", "remainder_constant")
    )
    if (args.format or "json") == "csv":
        header = (
            "beta_tilde",
            "leading",
            "correction",
            "error_total",
            "total_upper_bound",
            "hypothesis_ok",
        )
        rows = [
            (
                r.beta_tilde,
                r.leading,
                r.correction,
                r.error_terms.total,
                r.total_upper_bound,
                r.hypothesis_ok,
            )
            for r in reports
        ]
        _emit_csv(header, rows, args.output)
    else:
        _emit_json(
            _payload("free-energy", config, reports=[r.as_dict() for r in reports]),
            args.output,
        )
    return 0


def _cmd_correction(args) -> int:
    _apply_config(args)
    _require(args, "d", "ell", "two_s", "beta_tilde")
    bts = _float_list(args.beta_tilde)
    spec = lattice.LatticeSpec(args.d, args.ell, lattice.Boundary.DIRICHLET)
    rows = []
    for bt in bts:
        lattice_val = spinwave.interaction_correction_lattice(spec, args.two_s, bt)
        bulk = (
            spinwave.interaction_correction_bulk(spec, args.two_s, bt)
            if args.d in (2, 3)
            else None
        )
        continuum = (
            spinwave.interaction_correction_continuum(args.d, args.two_s, bt)
            if args.d in (2, 3)
            else None
        )
        rows.append(
            {
                "beta_tilde": bt,
                "lattice": lattice_val,
                "bulk": bulk,
                "continuum": continuum,
            }
        )
    config = _resolved_config(args, ("d", "ell", "two_s", "beta_tilde"))
    if (args.format or "json") == "csv":
        header = ("beta_tilde", "lattice", "bulk", "continuum")
        csv_rows = [
            (
                r["beta_tilde"],
                r["lattice"],
                r["bulk"] if r["bulk"] is not None else float("nan"),
                r["continuum"] if r["continuum"] is not None else float("nan"),
            )
            for r in rows
        ]
        _emit_csv(header, csv_rows, args.output)
    else:
        _emit_json(_payload("correction", config, rows=rows), args.output)
    return 0


def _cmd_ed_compare(args) -> int:
    _apply_config(args)
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
    config = _resolved_config(args, ("d", "ell", "two_s", "beta_tilde", "mode"))
    if (args.format or "json") == "csv":
        header = ("beta_tilde", "exact_free_energy", "upper_bound", "margin", "ok")
        csv_rows = [
            (r["beta_tilde"], r["exact_free_energy"], r["upper_bound"], r["margin"], r["ok"])
            for r in rows
        ]
        _emit_csv(header, csv_rows, args.output)
    else:
        _emit_json(
            _payload("ed-compare", config, rows=rows, all_ok=failures == 0), args.output
        )
    if failures:
        print(f"ed-compare: {failures} of {len(rows)} margins negative", file=sys.stderr)
        return 1
    return 0


def _cmd_wick_verify(args) -> int:
    _apply_config(args)
    _require(args, "d", "ell", "two_s", "beta_tilde")
    bt = float(args.beta_tilde)
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
    config = _resolved_config(
        args, ("d", "ell", "two_s", "beta_tilde", "cutoffs", "rel_tol", "fock_rel_tol")
    )
    _emit_json(
        _payload(
            "wick-verify",
            config,
            values={
                "position": position,
                "mode_space": mode_space,
                "monomials": monomials,
                "fock": fock_values,
            },
            checks=checks,
            all_ok=ok,
        ),
        args.output,
    )
    if not ok:
        print("wick-verify: route disagreement beyond tolerance", file=sys.stderr)
        return 1
    return 0


def _cmd_diagrams(args) -> int:
    _apply_config(args)
    _require(args, "ell", "beta_tilde")
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
    config = _resolved_config(
        args, ("ell", "two_s", "beta_tilde", "zero_mode", "seed", "k3_samples", "force")
    )
    summary = _payload(
        "diagrams",
        config,
        rows=list(scan.rows),
        slopes=scan.slopes,
        k3_residual_max=scan.k3_residual_max,
        zero_mode_policy=scan.zero_mode_policy,
    )
    if (args.format or "csv") == "csv":
        header = ("beta_tilde", "biggest_error", "left_f1f2", "combined")
        rows = [
            (r["beta_tilde"], r["biggest_error"], r["left_f1f2"], r["combined"])
            for r in scan.rows
        ]
        _emit_csv(header, rows, args.output)
        if args.slopes:
            _emit_json(summary, args.slopes)
    else:
        _emit_json(summary, args.output)
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
    _apply_config(args)
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
# parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value config file; flags override")
    sub.add_argument("--output", help="output path ('-' or omit for stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magnon",
        description="Spin-wave free-energy bounds for the large-spin Heisenberg ferromagnet.",
    )
    parser.add_argument("--version", action="version", version=f"magnon {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("free-energy", help="certified upper bound on f/S")
    p.add_argument("--d", type=int)
    p.add_argument("--ell", type=int, help="explicit box side (default: matched to beta, S)")
    p.add_argument("--two-s", dest="two_s", type=int)
    p.add_argument("--beta-tilde", dest="beta_tilde", help="value or comma list")
    p.add_argument("--mode", choices=_MODES)
    p.add_argument("--preset", choices=_PRESETS)
    p.add_argument("--remainder-constant", dest="remainder_constant", type=float)
    p.add_argument("--format", choices=_FORMATS)
    _add_common(p)
    p.set_defaults(func=_cmd_free_energy)

    p = subs.add_parser("correction", help="quartic correction: lattice, bulk, continuum")
    p.add_argument("--d", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--two-s", dest="two_s", type=int)
    p.add_argument("--beta-tilde", dest="beta_tilde", help="value or comma list")
    p.add_argument("--format", choices=_FORMATS)
    _add_common(p)
    p.set_defaults(func=_cmd_correction)

    p = subs.add_parser("ed-compare", help="exact diagonalization vs the box bound")
    p.add_argument("--d", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--two-s", dest="two_s", type=int)
    p.add_argument("--beta-tilde", dest="beta_tilde", help="value or comma list")
    p.add_argument("--mode", choices=_MODES)
    p.add_argument("--format", choices=_FORMATS)
    _add_common(p)
    p.set_defaults(func=_cmd_ed_compare)

    p = subs.add_parser("wick-verify", help="quartic expectation by three routes")
    p.add_argument("--d", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--two-s", dest="two_s", type=int)
    p.add_argument("--beta-tilde", dest="beta_tilde", help="single value")
    p.add_argument("--cutoffs", help="comma list of Fock cutoffs (optional brute-force route)")
    p.add_argument("--rel-tol", dest="rel_tol", type=float)
    p.add_argument("--fock-rel-tol", dest="fock_rel_tol", type=float)
    _add_common(p)
    p.set_defaults(func=_cmd_wick_verify)

    p = subs.add_parser("diagrams", help="second-order diagram cancellation scan")
    p.add_argument("--ell", type=int)
    p.add_argument("--two-s", dest="two_s", type=int)
    p.add_argument("--beta-tilde", dest="beta_tilde", help="value or comma list")
    p.add_argument("--force", action="store_const", const=True, help="override the ell cap")
    p.add_argument("--zero-mode", dest="zero_mode", choices=_ZERO_MODES)
    p.add_argument("--seed", type=int)
    p.add_argument("--k3-samples", dest="k3_samples", type=int)
    p.add_argument("--format", choices=_FORMATS)
    p.add_argument("--slopes", help="also write the JSON summary here (csv format only)")
    _add_common(p)
    p.set_defaults(func=_cmd_diagrams)

    p = subs.add_parser("verify", help="desk-scale self-verification suite")
    p.add_argument("--only", help="run a single check: trig|hp|magnon|wick|rho|riemann|variational")
    p.add_argument(
        "--perturb-epsilon",
        dest="perturb_epsilon",
        type=float,
        help="tilt the dispersion by a relative factor to confirm checks catch it",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error: return it like every other one
        if exc.code == 0:
            raise
        return exc.code
    try:
        return args.func(args)
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
