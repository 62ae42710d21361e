"""Command line front end.

Subcommands
-----------
decompose MATRIX       coefficient and symmetry report for a matrix literal
classify  --beta0 ...  nonnegative-spectrum classification (exit 3 when the
                       closed form and the eigenvalue oracle disagree)
smatrix   --beta0 ... --z-re A --z-im B     one S(z) evaluation, CSV or JSON
sweep     --beta0 ... grid flags            S(z) over a z-grid, CSV or JSON
verify    --beta0 ... | --random N --seed S full property suite, JSON

decompose, classify and verify hold their verdicts to --tolerance.  Exit
codes: 0 success, 2 usage or configuration error, 3 internal verdict
disagreement, 4 every sweep point singular, 5 property violation.  A pole
of S on a grid is not an error: sweep flags its row and verify skips it in
every check and lists it in the result's singular_z.  Each input is
validated by the library function it enters; exit 2 prints one
``error: <message>`` line on stderr and nothing on stdout, and so does an
input too large to handle (a literal nested too deeply to parse, a grid too
large to allocate).  The only exceptions are argparse's own usage errors
(an unknown flag, a non-numeric value, a missing required flag, and a
verify run with neither --random nor --beta0/--beta1), which print
argparse's usage message instead.

CSV schema (fixed):
z_re,z_im,s11_re,s11_im,s12_re,s12_im,s21_re,s21_im,s22_re,s22_im,std_norm,metric_defect
with floats printed to 17 significant digits.  Sweep rows are emitted
row-major: imaginary part outer (ascending), real part inner (ascending).
Singular points keep their row with NaN fields and are counted in a trailing
comment line.  sweep evaluates its whole grid in one batched pass (S,
std_norm and metric_defect as arrays); smatrix takes its one point through
the scalar s_matrix_zero_range, which is faster there.  Either way the
output equals a per-point loop over s_matrix_zero_range, operator_norm and
the lowest eigenvalue of G - S* G S bit for bit.  Both write their CSV
fields in one vectorised pass (``_decimal17``) with the bytes of
``'%.17g' % v`` for every value.

JSON output equals ``json.dumps(obj, sort_keys=True, indent=2)`` byte for
byte.  One recursive function writes it over the seven exact types the
documents hold (dict with str keys, list, str, int, bool, None, float) and
raises json's ``TypeError`` for any other; the standard library's
pure-Python encoder, which ``indent`` selects, is about twice as slow.
"""

from __future__ import annotations

import argparse
import ast
import math
import sys
from functools import cache, partial
from json.encoder import encode_basestring_ascii

import numpy as np

from ._decimal17 import csv_rows
from .clifford import DEFAULT_TOL, metric, pauli_decompose
from .errors import ArgumentError, AssumptionError, SingularMatrixError, _check_tol
from .extensions import classify_nonnegative, extension_params
from .grids import lower_half_plane_grid
from .matrix2 import _operator_norms, as_matrix
from .scattering import (_metric_defects, _s_batch, _zero_range_terms,
                         s_matrix_zero_range)
from .symmetry import symmetry_report
from .verify import (_classification, _pair, run_parameter_suite,
                     run_random_suite)

CSV_HEADER = ("z_re,z_im,s11_re,s11_im,s12_re,s12_im,s21_re,s21_im,"
              "s22_re,s22_im,std_norm,metric_defect")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3
EXIT_ALL_SINGULAR = 4
EXIT_VIOLATION = 5


def _emit(text: str, path):
    if path:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ArgumentError(f"cannot write --output: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(obj, path):
    _emit(_json_text(obj) + "\n", path)


def _json_text(o, pad="\n") -> str:
    """json.dumps(o, sort_keys=True, indent=2) for the exact types the
    documents hold: dict with str keys, list, str, int, bool, None and
    float.  Lines after the first start with pad, a newline and the
    indentation."""
    kind = type(o)
    if kind is float:
        if o != o:
            return "NaN"
        if o == math.inf:
            return "Infinity"
        if o == -math.inf:
            return "-Infinity"
        return repr(o)
    if kind is bool:
        return "true" if o else "false"
    if kind is list:
        if not o:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([_json_text(x, inner) for x in o]) + pad + "]"
    if kind is dict:
        if not o:
            return "{}"
        inner = pad + "  "
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner)
                 for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if kind is str:
        return encode_basestring_ascii(o)
    if kind is int:
        return repr(o)
    if o is None:
        return "null"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _parse_matrix(text: str) -> np.ndarray:
    """Parse a Python-style 2x2 literal such as [[1,0],[0,-1]] or
    [[0,1j],[1j,0]]."""
    try:
        return as_matrix(ast.literal_eval(text))
    except (ValueError, SyntaxError, TypeError, RecursionError) as exc:
        raise ArgumentError(f"cannot parse matrix literal: {exc}") from exc


def _add_param_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--beta0", type=float, required=True)
    parser.add_argument("--beta1", type=float, required=True)
    parser.add_argument("--chi", type=float, default=0.0)
    parser.add_argument("--xi", type=float, default=0.0)


def _add_common_flags(parser: argparse.ArgumentParser, tolerance: bool = True):
    if tolerance:
        parser.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
    parser.add_argument("--output", default=None, help="write to this path instead of stdout")


def cmd_decompose(args) -> int:
    m = _parse_matrix(args.matrix)
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
    out = {"beta0": args.beta0, "beta1": args.beta1, "chi": args.chi, "xi": args.xi,
           **_classification(cls)}
    _emit_json(out, args.output)
    if cls.closed_form_verdict != cls.oracle_verdict:
        print("error: closed-form verdict disagrees with the eigenvalue oracle",
              file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK


def _grid_s(e, zs) -> tuple[np.ndarray, np.ndarray]:
    """S over the points zs of a lower_half_plane_grid, which are valid as
    built, in one batched pass, and the singular mask; singular rows are NaN."""
    s, _, singular = _s_batch(*_zero_range_terms(e, zs))
    return s, singular


def _point_s(e, zs) -> tuple[np.ndarray, np.ndarray]:
    """_grid_s for the one point of zs, through the scalar route."""
    try:
        return s_matrix_zero_range(e, zs[0]).s[None], np.array([False])
    except SingularMatrixError:
        return np.full((1, 2, 2), complex(np.nan, np.nan)), np.array([True])


def _sweep_cells(e, zs, s) -> np.ndarray:
    """(N, 12) CSV cells of the points zs with their S stack; rows with a NaN
    S carry NaNs."""
    z = np.array(zs, dtype=complex)
    return np.column_stack([z.real, z.imag, s.reshape(-1, 4).view(float),
                            _operator_norms(s), _metric_defects(metric(e.metric), s)])


def _cells_to_csv(cells, singular) -> str:
    return (f"{CSV_HEADER}\n{csv_rows(cells)}"
            f"# singular_points: {int(singular.sum())}/{len(cells)}\n")


def _cells_to_json(cells, singular, config: dict) -> dict:
    records = []
    for row, bad in zip(cells.tolist(), singular.tolist()):
        rec = {"z": row[0:2], "singular": bad}
        if not bad:
            rec.update({"s11": row[2:4], "s12": row[4:6], "s21": row[6:8], "s22": row[8:10],
                        "std_norm": row[10], "metric_defect": row[11]})
        records.append(rec)
    return {"config": config, "records": records,
            "singular_points": int(singular.sum()), "total_points": len(cells)}


def _run_points(args, zs, config, evaluate) -> int:
    e = extension_params(args.beta0, args.beta1, args.chi, args.xi)
    s, singular = evaluate(e, zs)
    # a regular row whose S overflowed would print NaNs that no count flags;
    # the whole stack is tested first, at about a quarter of the cost of
    # the row-wise test
    if not np.isfinite(s).all():
        overflowed = np.flatnonzero(~(singular | np.isfinite(s).all(axis=(1, 2))))
        if len(overflowed):
            raise ArgumentError(
                f"the scattering matrix S overflows at z={complex(zs[overflowed[0]])}")
    cells = _sweep_cells(e, zs, s)
    if args.format == "csv":
        _emit(_cells_to_csv(cells, singular), args.output)
    else:
        _emit_json(_cells_to_json(cells, singular, config), args.output)
    if singular.all():
        print("error: every grid point had a singular denominator", file=sys.stderr)
        return EXIT_ALL_SINGULAR
    return EXIT_OK


def cmd_smatrix(args) -> int:
    config = {"command": "smatrix", "beta0": args.beta0, "beta1": args.beta1,
              "chi": args.chi, "xi": args.xi, "z": [args.z_re, args.z_im]}
    return _run_points(args, [complex(args.z_re, args.z_im)], config, _point_s)


def cmd_sweep(args) -> int:
    zs = lower_half_plane_grid(args.re_min, args.re_max, args.im_min, args.im_max,
                               args.steps)
    config = {"command": "sweep", "beta0": args.beta0, "beta1": args.beta1,
              "chi": args.chi, "xi": args.xi,
              "grid": {"re_min": args.re_min, "re_max": args.re_max,
                       "im_min": args.im_min, "im_max": args.im_max,
                       "steps": args.steps}}
    return _run_points(args, zs, config, _grid_s)


def cmd_verify(parser, args) -> int:
    if args.random is not None:
        report = run_random_suite(args.random, args.seed, args.tolerance)
        config = {"command": "verify", "random": args.random, "seed": args.seed,
                  "tolerance": args.tolerance}
        out = {"config": config, **report}
        replay = report["first_violation"]
    else:
        if args.beta0 is None or args.beta1 is None:
            parser.error("either --random N or --beta0/--beta1 must be given")
        e = extension_params(args.beta0, args.beta1, args.chi, args.xi)
        suite = run_parameter_suite(e, args.tolerance)
        config = {"command": "verify", "beta0": args.beta0, "beta1": args.beta1,
                  "chi": args.chi, "xi": args.xi, "tolerance": args.tolerance}
        out = {"config": config, "results": [suite], "all_consistent": suite["consistent"]}
        # echo the flags as given (xi not reduced mod 2 pi)
        replay = None if suite["consistent"] else vars(args)
    _emit_json(out, args.output)
    if replay is not None:
        print("error: property violation; replay with: "
              f"ptscatter verify --beta0 {replay['beta0']!r} --beta1 {replay['beta1']!r} "
              f"--chi {replay['chi']!r} --xi {replay['xi']!r}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process; parsing keeps no
    state in it, so every main call starts from the same defaults."""
    parser = argparse.ArgumentParser(
        prog="ptscatter",
        description="PT-symmetric extension parameters and their scattering matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose",
                           help="Pauli coefficients and symmetry report for a matrix literal")
    p_dec.add_argument("matrix", help="2x2 literal, e.g. '[[1,0],[0,-1]]' (use 1j for i)")
    _add_common_flags(p_dec)
    p_dec.set_defaults(func=cmd_decompose)

    p_cls = sub.add_parser("classify", help="nonnegative-spectrum classification")
    _add_param_flags(p_cls)
    _add_common_flags(p_cls)
    p_cls.set_defaults(func=cmd_classify)

    p_sm = sub.add_parser("smatrix", help="evaluate S(z) at one point")
    _add_param_flags(p_sm)
    p_sm.add_argument("--z-re", type=float, default=0.0)
    p_sm.add_argument("--z-im", type=float, required=True)
    p_sm.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common_flags(p_sm, tolerance=False)
    p_sm.set_defaults(func=cmd_smatrix)

    p_sw = sub.add_parser("sweep", help="evaluate S(z) over a grid")
    _add_param_flags(p_sw)
    p_sw.add_argument("--re-min", type=float, default=-3.0)
    p_sw.add_argument("--re-max", type=float, default=3.0)
    p_sw.add_argument("--im-min", type=float, default=-3.0)
    p_sw.add_argument("--im-max", type=float, default=-0.1)
    p_sw.add_argument("--steps", type=int, default=7)
    p_sw.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common_flags(p_sw, tolerance=False)
    p_sw.set_defaults(func=cmd_sweep)

    p_ver = sub.add_parser("verify", help="run the full property suite")
    p_ver.add_argument("--beta0", type=float, default=None)
    p_ver.add_argument("--beta1", type=float, default=None)
    p_ver.add_argument("--chi", type=float, default=0.0)
    p_ver.add_argument("--xi", type=float, default=0.0)
    p_ver.add_argument("--random", type=int, default=None, metavar="N",
                       help="run N seeded random draws instead of explicit parameters")
    p_ver.add_argument("--seed", type=int, default=0)
    _add_common_flags(p_ver)
    p_ver.set_defaults(func=partial(cmd_verify, parser))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "tolerance" in args:
            _check_tol(args.tolerance)
        # overflow at large |chi| already ends as a flagged singular row or
        # an error line; numpy's warnings would only repeat it on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ArgumentError, AssumptionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # a grid or literal too large to hold: numpy names the array, the
        # parser names nothing
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
