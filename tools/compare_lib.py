"""Compare the ptscatter library of two source trees on a seeded input corpus.

    python3 tools/compare_lib.py OLD_SRC NEW_SRC [--sets N] [--seed S]

OLD_SRC and NEW_SRC are directories holding a ``ptscatter`` package (for
example ``src`` of two checkouts).  Each tree runs in its own interpreter
over the same N seeded input sets (default 3000).  A set holds a T (valid,
with |chi| drawn up to 2, up to 12 or from fixed values up to 709.86;
singular; overflowing; with entries near the largest float; or malformed),
metric and extension parameters (beta1 in
about one set in ten 0, the scalar family whose suite holds S to the
contraction bound and whose T ``betas_from_t`` reads as beta0 I, and now
and then 1e308, so T overflows), point lists mixing interior and real-axis
points, the upper half-plane, NaN, inf, strings, None, signed zeros and
poles of S, Pauli coefficients and an exponent, either of which may
overflow.  Per set the tool calls the five checks,
``standard_contraction_norm``, ``property_report``,
``mobius_round_trip_residuals``,
``run_parameter_suite``, ``classify_nonnegative``,
``check_metric_inequality`` (with a drawn metric and with e's),
``t_from_betas``, ``betas_from_t``,
``c_params_from_matrix`` (of T and of a C-operator), ``pt_defect``,
``krein_defect``, ``c_symmetry_defect``, ``symmetry_report`` (of T and of
a C-operator),
``is_hermitian``, ``hermitian_eigenvalues``,
``krein_selfadjoint_reduction``, ``pauli_compose``, ``exp_involution``,
``gamma0``, ``gamma1`` and ``in_domain`` (of drawn boundary values, now
and then near the largest float),
and the one-point primitives ``s_matrix``, ``s_matrix_zero_range``,
``t_from_s`` (of the S it gives, or of T where it raises),
``operator_norm``, ``condition_number``, ``inverse``, ``matrix2.det`` and
``pauli_decompose`` (at
xi = 0 and at a drawn xi), and records the result's repr (array entries
with every digit they need), or the exception's type, message and ``z``,
together with the numpy warnings the call emits.
It prints every call that differs and a count per kind of difference, and
exits 1 if any call differs.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

NAN = math.nan
INF = math.inf
SIGNED_ZEROS = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                complex(-0.0, -1.0), 0.0, -0.0]
ODD_POINTS = [complex(NAN, -1.0), complex(1.0, NAN), complex(INF, -1.0), complex(0.0, -INF),
              "1-1j", "-2j", "x", None, 2.0, 1, -1j]
CHIS = [6.0, 50.0, 300.0, 700.0, -700.0, 709.8642557525455]
# finite T whose Hermiticity or Krein defect, trace, Mobius terms or
# eigenvalue formula overflows
HUGE_TS = [np.array([[1e308, -1e308], [1e308, 1e308]]),
           np.array([[1e308, 1e308j], [-1e308j, 1e308]]), np.diag([1e308, 1e308]),
           3e307 * np.eye(2), np.diag([1.7e308, 1.7e308]), np.diag([1.7e308, -1.7e308])]
# boundary values whose sums, differences or doubles pass the float range
HUGE_VALUES = [1e308, -1e308, 1.7e308j, complex(-1.7e308, 1e308), 6e307]


def _chi(rng) -> float:
    """|chi| <= 2 in 6 draws of 10, |chi| <= 12 in 2 (G's entries up to
    e^12, S large but finite, where a changed rounding of a product
    shows), else one of CHIS."""
    u = rng.random()
    if u < 0.8:
        return float(rng.uniform(-2.0, 2.0) if u < 0.6 else rng.uniform(-12.0, 12.0))
    return float(rng.choice(CHIS))


def _t(rng, pts, e):
    """A T of one of the kinds: from e, structured, random or malformed."""
    kind = rng.random()
    if kind < 0.45:
        try:
            return pts.t_from_betas(e)
        except pts.ArgumentError:
            # C or T overflows: the T with inf entries that a tree without
            # the overflow checks returns, so both trees get the same T
            chi, xi = e.metric.chi, e.metric.xi
            with np.errstate(all="ignore"):
                c = math.cosh(chi) * pts.p_xi(xi) + 1j * math.sinh(chi) * pts.SIGMA1
                return e.beta0 * pts.SIGMA0 + e.beta1 * c
    if kind < 0.7:
        structured = [np.zeros((2, 2)), np.eye(2), np.eye(2) / 2, np.diag([(1 + 1j) / 2, 0]),
                      np.diag([100.0, 0.0]), np.array([[0.0, 1e300], [1e300, 0.0]]),
                      *HUGE_TS]
        return structured[rng.integers(len(structured))]
    if kind < 0.88:
        return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    malformed = ["abc", [[1, 2], [3]], np.full((2, 2), NAN), [[INF, 0], [0, 1]], None]
    return malformed[rng.integers(len(malformed))]


def _poles(t) -> list[complex]:
    """The points where the denominator of S(z) for t is singular, and
    their reflections -conj z."""
    try:
        lams = np.linalg.eigvals(np.asarray(t, dtype=complex))
    except (TypeError, ValueError, np.linalg.LinAlgError):
        return []
    with np.errstate(all="ignore"):
        zs = [complex(-1j * (1.0 - 1.0 / (2.0 * lam))) for lam in lams if lam != 0]
    zs = [z for z in zs if np.isfinite(z)]
    return zs + [-z.conjugate() for z in zs]


def _points(rng, poles) -> list:
    """A point list of 0 to 9 points, most of them in the lower half-plane."""
    n = 0 if rng.random() < 0.03 else int(rng.integers(1, 10))
    out = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.6:
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, -0.05))
        elif kind < 0.7:
            z = complex(rng.uniform(-3, 3), 0.0 if rng.random() < 0.7 else -0.0)
        elif kind < 0.75:
            z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3))
        elif kind < 0.82:
            z = SIGNED_ZEROS[rng.integers(len(SIGNED_ZEROS))]
        elif kind < 0.9 and poles:
            z = poles[rng.integers(len(poles))]
        elif kind < 0.95 and out:
            z = out[rng.integers(len(out))]
        else:
            z = ODD_POINTS[rng.integers(len(ODD_POINTS))]
        out.append(z)
    return out


def _tol(rng):
    kind = rng.random()
    if kind < 0.8:
        return 1e-10
    if kind < 0.95:
        return 1e-6
    return ["x", -1.0, NAN][rng.integers(3)]


def _calls(pts, k: int, seed: int):
    """(name, thunk) for every call of input set k."""
    rng = np.random.default_rng([seed, k])
    beta0, beta1 = float(rng.uniform(-0.5, 1.0)), float(rng.uniform(-0.5, 0.5))
    kind = rng.random()
    if kind < 0.02:
        beta1 = 1e308
    elif kind < 0.12:
        beta1 = 0.0   # the scalar family: S = s I and the contraction bound
    xi, chi = float(rng.uniform(0.0, 2 * math.pi)), _chi(rng)
    e = pts.extension_params(beta0, beta1, chi=chi, xi=xi)
    p = pts.KreinMetricParams(float(rng.uniform(0.0, 2 * math.pi)), _chi(rng))
    t = _t(rng, pts, e)
    poles = _poles(t)
    zs = _points(rng, poles)
    one = (zs or _points(rng, poles) or [1 - 1j])[0]
    tol = _tol(rng)
    coeffs = [1e308] * 4 if rng.random() < 0.1 else rng.standard_normal(4).tolist()
    theta = 800.0 if rng.random() < 0.1 else float(rng.uniform(-5.0, 5.0))
    values = _boundary_values(rng)
    yield "check_condition_a", lambda: pts.check_condition_a(t, p, zs, tol)
    yield "check_condition_b", lambda: pts.check_condition_b(t, p, zs, tol)
    yield "check_condition_c", lambda: pts.check_condition_c(t, p, one, tol)
    yield "check_condition_d", lambda: pts.check_condition_d(t, p.xi, one, tol)
    yield "check_pt_criterion", lambda: pts.check_pt_criterion(t, zs, tol)
    yield "standard_contraction_norm", lambda: pts.standard_contraction_norm(t, zs)
    yield "property_report", lambda: pts.property_report(t, p, tol=tol)
    yield "mobius_round_trip_residuals", lambda: pts.mobius_round_trip_residuals(t)
    yield "run_parameter_suite", lambda: pts.run_parameter_suite(e, tol)
    yield "classify_nonnegative", lambda: pts.classify_nonnegative(e, tol)
    yield "check_metric_inequality", lambda: pts.check_metric_inequality(t, p, tol)
    # T from e is metric self-adjoint for e's metric, large chi included
    yield "check_metric_inequality_own_metric", \
        lambda: pts.check_metric_inequality(t, e.metric, tol)
    yield "t_from_betas", lambda: pts.t_from_betas(e)
    yield "betas_from_t", lambda: pts.betas_from_t(t, tol)
    yield "c_params_from_matrix", lambda: pts.c_params_from_matrix(t, tol)
    yield "c_params_from_c_operator", lambda: pts.c_params_from_matrix(pts.c_operator(p), tol)
    yield "pt_defect", lambda: pts.pt_defect(t)
    yield "krein_defect", lambda: pts.krein_defect(t, p.xi)
    yield "c_symmetry_defect", lambda: pts.c_symmetry_defect(t, p)
    yield "symmetry_report", lambda: pts.symmetry_report(t, tol)
    yield "symmetry_report_c_operator", lambda: pts.symmetry_report(pts.c_operator(p), tol)
    yield "is_hermitian", lambda: pts.is_hermitian(t, tol)
    yield "hermitian_eigenvalues", lambda: pts.hermitian_eigenvalues(t)
    yield "krein_selfadjoint_reduction", lambda: pts.krein_selfadjoint_reduction(t, [1, 0, 0], tol)
    yield "pauli_compose", lambda: pts.pauli_compose(coeffs, xi)
    yield "exp_involution", lambda: pts.exp_involution(theta, pts.SIGMA3, tol)
    yield "s_matrix", lambda: pts.s_matrix(t, one)
    yield "s_matrix_zero_range", lambda: pts.s_matrix_zero_range(e, one)
    yield "t_from_s", lambda: pts.t_from_s(_sample(pts, t, one), one)
    yield "operator_norm", lambda: pts.operator_norm(t)
    yield "condition_number", lambda: pts.condition_number(t)
    yield "inverse", lambda: pts.inverse(t)
    yield "det", lambda: pts.matrix2.det(t)
    yield "pauli_decompose", lambda: pts.pauli_decompose(t)
    yield "pauli_decompose_xi", lambda: pts.pauli_decompose(t, xi)
    yield "gamma0", lambda: pts.gamma0(pts.BoundaryData(*values))
    yield "gamma1", lambda: pts.gamma1(pts.BoundaryData(*values))
    yield "in_domain", lambda: pts.in_domain(t, pts.BoundaryData(*values), tol)


def _boundary_values(rng) -> list[complex]:
    """f(+0), f(-0), f'(+0), f'(-0): complex normal draws; in about one set
    in three, each is replaced by a value near the largest float with
    probability 1/4."""
    re, im = rng.standard_normal((2, 4))
    values = (re + 1j * im).tolist()
    if rng.random() < 1 / 3:
        for i in np.flatnonzero(rng.random(4) < 0.25).tolist():
            values[i] = HUGE_VALUES[rng.integers(len(HUGE_VALUES))]
    return values


def _sample(pts, t, z):
    """S(z) of t, the input t_from_s inverts, or t itself where s_matrix
    raises (a malformed t, a point off the half-plane or a pole)."""
    try:
        return pts.s_matrix(t, z).s
    except Exception:   # t_from_s then meets the same bad input
        return t


def _outcome(thunk) -> str:
    """The result's repr, or the exception's type, message and z, followed by
    the numpy warnings the call emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = repr(thunk()).replace("\n", " ")   # an array repr spans lines
        except Exception as exc:   # every exception is an outcome to compare
            z = getattr(exc, "z", None)
            out = f"raises {type(exc).__name__} {str(exc)!r} z={z!r}"
    seen = [f"{w.category.__name__}: {w.message}" for w in caught]
    return f"{out} warnings={seen!r}"


def child(sets: int, seed: int) -> None:
    import ptscatter as pts
    # arrays print every digit their floats need, so a repr differs
    # wherever a bit does (numpy's default keeps 8)
    with np.printoptions(floatmode="unique"):
        for k in range(sets):
            for name, thunk in _calls(pts, k, seed):
                print(f"{k} {name} {_outcome(thunk)}")


def run(src: Path, sets: int, seed: int) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, __file__, "--child", "--sets", str(sets),
                           "--seed", str(seed)], env=env, capture_output=True, text=True,
                          timeout=3600)
    if proc.returncode:
        sys.exit(f"{src}: the child run failed:\n{proc.stderr[-2000:]}")
    return proc.stdout.splitlines()


def _kind(line: str) -> str:
    """The call name and the outcome's type: the exception class or 'ok'."""
    _, name, rest = line.split(" ", 2)
    return f"{name} {rest.split(' ', 2)[1] if rest.startswith('raises ') else 'ok'}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="SRC")
    parser.add_argument("--sets", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=20260)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.sets, args.seed)
        return 0
    if len(args.trees) != 2:
        parser.error("expected OLD_SRC and NEW_SRC")
    old, new = (run(Path(a).resolve(), args.sets, args.seed) for a in args.trees)
    if len(old) != len(new):
        print(f"the trees made {len(old)} and {len(new)} calls")
        return 1
    differing = [(a, b) for a, b in zip(old, new) if a != b]
    for a, b in differing:
        print(f"- {a}\n+ {b}")
    kinds = Counter(f"{_kind(a)} -> {_kind(b).split(' ', 1)[1]}" for a, b in differing)
    for kind, count in sorted(kinds.items()):
        print(f"{count:6}  {kind}")
    print(f"{len(old) - len(differing)} of {len(old)} calls identical over {args.sets} sets")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
