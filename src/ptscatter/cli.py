"""Command line front end.

Subcommands
-----------
decompose MATRIX       coefficient and symmetry report for a matrix literal
classify  --beta0 ...  nonnegative-spectrum classification (exit 3 when the
                       closed form and the eigenvalue oracle disagree)
smatrix   --beta0 ... --z-re A --z-im B     one S(z) evaluation, CSV or JSON
sweep     --beta0 ... grid flags            S(z) over a z-grid, CSV or JSON
verify    --beta0 ... | --random N --seed S full property suite, JSON

Exit codes: 0 success, 2 usage or configuration error, 3 internal verdict
disagreement, 4 every sweep point singular, 5 property violation.

CSV schema (fixed):
z_re,z_im,s11_re,s11_im,s12_re,s12_im,s21_re,s21_im,s22_re,s22_im,std_norm,metric_defect
with floats printed to 17 significant digits.  Sweep rows are emitted
row-major: imaginary part outer (ascending), real part inner (ascending).
Singular points keep their row with NaN fields and are counted in a trailing
comment line.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys

import numpy as np

from .clifford import DEFAULT_TOL, metric, pauli_decompose
from .errors import ArgumentError, AssumptionError, SingularMatrixError
from .extensions import classify_nonnegative, extension_params
from .matrix2 import hermitian_eigenvalues, operator_norm
from .scattering import lower_half_plane_grid, s_matrix_zero_range
from .symmetry import symmetry_report
from .verify import _pair, run_parameter_suite, run_random_suite

CSV_HEADER = ("z_re,z_im,s11_re,s11_im,s12_re,s12_im,s21_re,s21_im,"
              "s22_re,s22_im,std_norm,metric_defect")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3
EXIT_ALL_SINGULAR = 4
EXIT_VIOLATION = 5


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _emit(text: str, path):
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, path):
    _emit(json.dumps(obj, sort_keys=True, indent=2) + "\n", path)


def _parse_matrix(text: str) -> np.ndarray:
    """Parse a Python-style 2x2 literal such as [[1,0],[0,-1]] or
    [[0,1j],[1j,0]]."""
    try:
        raw = ast.literal_eval(text)
    except (ValueError, SyntaxError) as exc:
        raise ArgumentError(f"cannot parse matrix literal: {exc}") from exc
    arr = np.asarray(raw, dtype=complex)
    if arr.shape != (2, 2):
        raise ArgumentError(f"matrix literal must be 2x2, got shape {arr.shape}")
    return arr


def _add_param_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--beta0", type=float, required=True)
    parser.add_argument("--beta1", type=float, required=True)
    parser.add_argument("--chi", type=float, default=0.0)
    parser.add_argument("--xi", type=float, default=0.0)


def _add_common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
    parser.add_argument("--output", default=None, help="write to this path instead of stdout")


def _check_tolerance(parser, args):
    if not args.tolerance > 0:
        parser.error("--tolerance must be positive")


def cmd_decompose(args) -> int:
    try:
        m = _parse_matrix(args.matrix)
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    coeffs = pauli_decompose(m)
    rep = symmetry_report(m, args.tolerance)
    out = {
        "coefficients": {
            "a0": _pair(coeffs.a0),
            "a1": _pair(coeffs.a1),
            "a2": _pair(coeffs.a2),
            "a3": _pair(coeffs.a3),
        },
        "pt_symmetric": rep.pt_symmetric,
        "krein_xi": rep.krein_xi,
        "xi_degenerate": rep.xi_degenerate,
        "c_params": None if rep.c_params is None else
                    {"xi": rep.c_params.xi, "chi": rep.c_params.chi},
        "residuals": {k: float(v) for k, v in rep.residuals.items()},
    }
    _emit_json(out, args.output)
    return EXIT_OK


def cmd_classify(args) -> int:
    e = extension_params(args.beta0, args.beta1, args.chi, args.xi)
    cls = classify_nonnegative(e, args.tolerance)
    out = {
        "beta0": args.beta0,
        "beta1": args.beta1,
        "chi": args.chi,
        "xi": args.xi,
        "nonnegative": cls.nonnegative,
        "closed_form_verdict": cls.closed_form_verdict,
        "oracle_verdict": cls.oracle_verdict,
        "eigenvalues_lower": [float(x) for x in cls.eigenvalues_lower],
        "eigenvalues_upper": [float(x) for x in cls.eigenvalues_upper],
    }
    _emit_json(out, args.output)
    if cls.closed_form_verdict != cls.oracle_verdict:
        print("error: closed-form verdict disagrees with the eigenvalue oracle",
              file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK


def _sweep_rows(e, zs):
    """One record per grid point; singular points carry NaNs and a flag."""
    g = metric(e.metric)
    rows = []
    singular = 0
    for z in zs:
        try:
            ev = s_matrix_zero_range(e, z)
        except SingularMatrixError:
            singular += 1
            rows.append({"z": complex(z), "singular": True, "s": None,
                         "std_norm": float("nan"), "metric_defect": float("nan")})
            continue
        defect = hermitian_eigenvalues(g - ev.s.conj().T @ g @ ev.s)[0]
        rows.append({"z": complex(z), "singular": False, "s": ev.s,
                     "std_norm": operator_norm(ev.s), "metric_defect": float(defect)})
    return rows, singular


def _rows_to_csv(rows, singular: int) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        z = r["z"]
        if r["singular"]:
            cells = [_fmt(z.real), _fmt(z.imag)] + ["nan"] * 10
        else:
            s = r["s"]
            cells = [_fmt(z.real), _fmt(z.imag)]
            for entry in (s[0, 0], s[0, 1], s[1, 0], s[1, 1]):
                cells += [_fmt(entry.real), _fmt(entry.imag)]
            cells += [_fmt(r["std_norm"]), _fmt(r["metric_defect"])]
        lines.append(",".join(cells))
    lines.append(f"# singular_points: {singular}/{len(rows)}")
    return "\n".join(lines) + "\n"


def _rows_to_json(rows, singular: int, config: dict) -> dict:
    records = []
    for r in rows:
        rec = {"z": _pair(r["z"]), "singular": r["singular"]}
        if not r["singular"]:
            s = r["s"]
            rec.update({
                "s11": _pair(s[0, 0]), "s12": _pair(s[0, 1]),
                "s21": _pair(s[1, 0]), "s22": _pair(s[1, 1]),
                "std_norm": r["std_norm"], "metric_defect": r["metric_defect"],
            })
        records.append(rec)
    return {"config": config, "records": records,
            "singular_points": singular, "total_points": len(rows)}


def _run_points(args, zs, config) -> int:
    e = extension_params(args.beta0, args.beta1, args.chi, args.xi)
    rows, singular = _sweep_rows(e, zs)
    if args.format == "csv":
        _emit(_rows_to_csv(rows, singular), args.output)
    else:
        _emit_json(_rows_to_json(rows, singular, config), args.output)
    if singular == len(rows):
        print("error: every grid point had a singular denominator", file=sys.stderr)
        return EXIT_ALL_SINGULAR
    return EXIT_OK


def cmd_smatrix(parser, args) -> int:
    if args.z_im > 0:
        parser.error("--z-im must be <= 0 (closed lower half-plane)")
    config = {"command": "smatrix", "beta0": args.beta0, "beta1": args.beta1,
              "chi": args.chi, "xi": args.xi, "z": [args.z_re, args.z_im],
              "tolerance": args.tolerance}
    return _run_points(args, [complex(args.z_re, args.z_im)], config)


def cmd_sweep(parser, args) -> int:
    if args.steps < 1:
        parser.error("--steps must be >= 1")
    if args.im_max > 0:
        parser.error("--im-max must be <= 0 (closed lower half-plane)")
    if args.re_min > args.re_max or args.im_min > args.im_max:
        parser.error("grid bounds must satisfy re_min <= re_max and im_min <= im_max")
    zs = lower_half_plane_grid(args.re_min, args.re_max, args.im_min, args.im_max,
                               args.steps)
    config = {"command": "sweep", "beta0": args.beta0, "beta1": args.beta1,
              "chi": args.chi, "xi": args.xi,
              "grid": {"re_min": args.re_min, "re_max": args.re_max,
                       "im_min": args.im_min, "im_max": args.im_max,
                       "steps": args.steps},
              "tolerance": args.tolerance}
    return _run_points(args, zs, config)


def cmd_verify(parser, args) -> int:
    if args.random is not None:
        if args.random < 1:
            parser.error("--random must be >= 1")
        report = run_random_suite(args.random, args.seed, args.tolerance)
        config = {"command": "verify", "random": args.random, "seed": args.seed,
                  "tolerance": args.tolerance}
        out = {"config": config, **report}
        _emit_json(out, args.output)
        if not report["all_consistent"]:
            p = report["first_violation"]
            print("error: property violation; replay with: "
                  f"ptscatter verify --beta0 {p['beta0']!r} --beta1 {p['beta1']!r} "
                  f"--chi {p['chi']!r} --xi {p['xi']!r}", file=sys.stderr)
            return EXIT_VIOLATION
        return EXIT_OK
    if args.beta0 is None or args.beta1 is None:
        parser.error("either --random N or --beta0/--beta1 must be given")
    e = extension_params(args.beta0, args.beta1, args.chi, args.xi)
    suite = run_parameter_suite(e, args.tolerance)
    config = {"command": "verify", "beta0": args.beta0, "beta1": args.beta1,
              "chi": args.chi, "xi": args.xi, "tolerance": args.tolerance}
    out = {"config": config, "results": [suite], "all_consistent": suite["consistent"]}
    _emit_json(out, args.output)
    if not suite["consistent"]:
        print("error: property violation; replay with: "
              f"ptscatter verify --beta0 {args.beta0!r} --beta1 {args.beta1!r} "
              f"--chi {args.chi!r} --xi {args.xi!r}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptscatter",
        description="PT-symmetric extension parameters and their scattering matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose",
                           help="Pauli coefficients and symmetry report for a matrix literal")
    p_dec.add_argument("matrix", help="2x2 literal, e.g. '[[1,0],[0,-1]]' (use 1j for i)")
    _add_common_flags(p_dec)

    p_cls = sub.add_parser("classify", help="nonnegative-spectrum classification")
    _add_param_flags(p_cls)
    _add_common_flags(p_cls)

    p_sm = sub.add_parser("smatrix", help="evaluate S(z) at one point")
    _add_param_flags(p_sm)
    p_sm.add_argument("--z-re", type=float, default=0.0)
    p_sm.add_argument("--z-im", type=float, required=True)
    p_sm.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common_flags(p_sm)

    p_sw = sub.add_parser("sweep", help="evaluate S(z) over a grid")
    _add_param_flags(p_sw)
    p_sw.add_argument("--re-min", type=float, default=-3.0)
    p_sw.add_argument("--re-max", type=float, default=3.0)
    p_sw.add_argument("--im-min", type=float, default=-3.0)
    p_sw.add_argument("--im-max", type=float, default=-0.1)
    p_sw.add_argument("--steps", type=int, default=7)
    p_sw.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common_flags(p_sw)

    p_ver = sub.add_parser("verify", help="run the full property suite")
    p_ver.add_argument("--beta0", type=float, default=None)
    p_ver.add_argument("--beta1", type=float, default=None)
    p_ver.add_argument("--chi", type=float, default=0.0)
    p_ver.add_argument("--xi", type=float, default=0.0)
    p_ver.add_argument("--random", type=int, default=None, metavar="N",
                       help="run N seeded random draws instead of explicit parameters")
    p_ver.add_argument("--seed", type=int, default=0)
    _add_common_flags(p_ver)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_tolerance(parser, args)
    try:
        if args.command == "decompose":
            return cmd_decompose(args)
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "smatrix":
            return cmd_smatrix(parser, args)
        if args.command == "sweep":
            return cmd_sweep(parser, args)
        if args.command == "verify":
            return cmd_verify(parser, args)
    except (ArgumentError, AssumptionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
