"""Scattering matrix of the zero-range model and its characteristic checks.

For an extension parameter T the scattering matrix continued into the open
lower half-plane is the matrix Mobius function

    S(z) = (I - 2(1+iz) T) (I - 2(1-iz) T)^{-1},      Im z < 0,

with boundary values on the real axis given by the same rational formula.
Numerator and denominator are polynomials in T and commute, so the quotient
order is immaterial.  A single interior sample of S recovers T:

    T = (I - S(z)) (2(1+iz) I - 2(1-iz) S(z))^{-1},

the factored form of the Mobius inverse (1/(2(iz-1))) (I - S)(S - theta I)^{-1},
theta(z) = (1+iz)/(1-iz), which stays finite at z = -i where theta has a pole.

The check_condition_* functions verify the characteristic properties that
single out scattering matrices of nonnegative metric-self-adjoint extensions
(G denotes the metric e^{-chi i R P_xi}):

    (a)  S(z)* G S(z) <= G                        for all  Im z < 0,
    (b)  G S(z) = S(-conj z)* G                   for Im z <= 0,
    (c)  (Re z)[G - S* G S] = i (Im z)[S* G - G S]  at one interior point
         with Re z != 0,
    (d)  P_xi S(z) = S(-conj z)* P_xi             for Im z <= 0,

plus the antilinear criterion sigma_3 conj(S(z)) sigma_3 = S(-conj z), which
holds exactly when T is PT-symmetric.

Each condition is one residual expression in S (larger is worse), written
once over the (N, 2, 2) stack of S at the sampled points; a residual equals
its one-point form bit for bit.  A check is a record (name, positions in
a flat point array, residual matrices there, tolerance).  The only verdict
pass, ``_worsts``, turns a list of records into their PropertyChecks in one
segmented pass: minus the lowest eigenvalues of a leading (a) check's
metric gaps (one ``_hermitian_lows`` call), then the other checks' norms
(one ``_operator_norms`` call).  The largest residual wins, clamped at 0,
and passes when it is at most its tolerance; the first point attaining it
is the witness, and NaN and -inf residuals are skipped.  Conditions (b)
and (d) are held to tol or, where larger, to the rounding bound of the
adjugate quotient at their worst kept point,
eps ||J||_F (cond(z) ||S(z)||_F + cond(-conj z) ||S(-conj z)||_F), one
scalar per record: near a pole, S can be bounded while cond(den) is
large (S(0) = I for every T), and the absolute tol alone fails there.

Every evaluation of S at many points goes through one kernel, ``_s_batch``,
on the numerator and denominator stacks that ``_terms`` builds from T and
``_zero_range_terms`` from the parameters.  It returns S, the denominators'
condition numbers and a singular mask, with singular rows set to NaN.  It
works row by row with the stack forms of matrix2, so each row equals the
one-point s_matrix / s_matrix_zero_range bit for bit, and one call fills
the tables of both routes.  The factors 2(1 +- iz) and the zero-range
coefficients are array expressions in which every complex product has a
factor with a zero real or imaginary part, so they keep the bits of the
one-point routes' Python arithmetic (before Python 3.14).  The one-point
functions stay scalar, which is several times faster for a single point.

A plan (``_Plan``), which does not depend on T, lays the validated point
lists end to end, keys each point with its reflection -conj z and indexes
the distinct points, each list's positions and each point's rows at z and
at -conj z.  A ``_Table`` holds S at a plan's distinct points and stands in
for its plan.  T is validated first, then each list by its own validator.
The default samples (the interior grid, the real axis, the witness 1-1j
and the Mobius WITNESS_POINTS) have one plan, ``_default_plan``, built on
first use and shared by ``property_report`` and the verify suite.

A pole of S is a property of the parameter, not bad input: a check skips
every point at which S is singular, at z or, for a check that reads it, at
-conj z; a check left with no point raises the :class:`SingularMatrixError`
of its first point.  The products the conditions share (G S, S* G,
G - S* G S, P_xi S and S* P_xi) are formed once over the table rows and
associate as each condition writes them, so every gathered row keeps its
bits.  The batching does not change the error order: every check picks its
points before any verdict is drawn.  On a fault the pass walks the checks
in list order over the arrays it holds (a finiteness mask of the rows, the
checks' sizes, their kept residuals) and raises for the first check with a
non-finite residual matrix (an :class:`ArgumentError` naming the check and
the point), no residual (``zs must be nonempty``), or none left after the
skips.  Numpy's
floating-point warnings are off while the terms of S and the residuals are
formed and the residuals normed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from itertools import accumulate

import numpy as np

from .clifford import (DEFAULT_TOL, SIGMA0, SIGMA1, KreinMetricParams, _cosh_sinh,
                       _metric_p_xi, metric, p_xi)
from .errors import ArgumentError, _check_tol, _finite_complex, _instance
from .extensions import ExtensionParams
from .grids import lower_half_plane_grid, real_axis_points
from .matrix2 import (_adjugate, _adjugates, _det_conditions, _hermitian_lows,
                      _operator_norms, _singular_error, as_matrix,
                      hermitian_eigenvalues)
from .symmetry import _pt_images

DEFAULT_CONDITION_LIMIT = 1e12
_EPS = float(np.finfo(float).eps)
# the interior points at which the Mobius inverse recovers T in the suite
WITNESS_POINTS = (-1j, -2j, 1.0 - 1.0j, -0.5 - 0.3j)


def _spectral_point(z, interior: bool = False) -> complex:
    zz = _finite_complex("z", z)
    if interior:
        if not zz.imag < 0:
            raise ArgumentError(f"z must lie strictly in the lower half-plane, got {zz}")
    elif zz.imag > 0:
        raise ArgumentError(f"z must lie in the closed lower half-plane, got {zz}")
    return zz


_interior_point = partial(_spectral_point, interior=True)


def _off_axis(z) -> complex:
    zz = _interior_point(z)
    if zz.real == 0.0:
        raise ArgumentError("condition (c) needs a point with Re z != 0")
    return zz


@dataclass(frozen=True)
class ScatteringEvaluation:
    """One evaluation of S(z), with the condition number of the inverted
    denominator recorded."""

    z: complex
    s: np.ndarray
    condition_number: float


@dataclass(frozen=True)
class PropertyCheck:
    """Outcome of one characteristic-property check: the worst residual over
    the sampled points and the point that produced it."""

    passed: bool
    residual: float
    witness_z: complex


@dataclass(frozen=True)
class PropertyReport:
    cond_a: PropertyCheck
    cond_b: PropertyCheck
    cond_c: PropertyCheck
    cond_d: PropertyCheck
    pt_criterion: PropertyCheck


def _quotient(num, den, z):
    """num @ den^{-1} and the denominator's condition number; a condition
    number past DEFAULT_CONDITION_LIMIT raises :class:`SingularMatrixError`."""
    adj, d, cond = _adjugate(den, DEFAULT_CONDITION_LIMIT, z, "denominator")
    return num @ adj / d, cond


def s_matrix(t, z) -> ScatteringEvaluation:
    """Evaluate S(z) = (I - 2(1+iz) t)(I - 2(1-iz) t)^{-1}.

    Raises :class:`SingularMatrixError` when the denominator's condition
    number exceeds ``DEFAULT_CONDITION_LIMIT``.
    """
    a = as_matrix(t)
    zz = _spectral_point(z)
    num = SIGMA0 - 2.0 * (1.0 + 1j * zz) * a
    den = SIGMA0 - 2.0 * (1.0 - 1j * zz) * a
    s, cond = _quotient(num, den, zz)
    return ScatteringEvaluation(z=zz, s=s, condition_number=cond)


def s_matrix_zero_range(e: ExtensionParams, z) -> ScatteringEvaluation:
    """Evaluate S(z) from (beta0, beta1, chi, xi) without assembling T.

    Numerator and denominator are built directly from P_xi and the
    hyperbolic factor e^{chi i R P_xi} = cosh(chi) I + sinh(chi) i R P_xi:

        [1 - 2(1+iz) beta0] P_xi - [2(1+iz) beta1] e^{chi i R P_xi}

    over the same expression with 1+iz replaced by 1-iz; this agrees with
    s_matrix(t_from_betas(e), z) to rounding wherever the denominator is
    well conditioned.
    """
    zz = _spectral_point(z)
    _instance("e", e, ExtensionParams)
    sx, hyp = _zero_range_basis(e)
    c0, c1, c2, c3 = _zero_range_coefficients(e, zz)
    s, cond = _quotient(c0 * sx - c1 * hyp, c2 * sx - c3 * hyp, zz)
    return ScatteringEvaluation(z=zz, s=s, condition_number=cond)


def _zero_range_basis(e: ExtensionParams):
    """P_xi and e^{chi i R P_xi} = cosh(chi) I + sinh(chi) i R P_xi; overflows as the metric."""
    ch, sh = _cosh_sinh(e.metric, "metric")
    sx = p_xi(e.metric.xi)
    return sx, ch * SIGMA0 + sh * (1j * (SIGMA1 @ sx))


def _zero_range_coefficients(e: ExtensionParams, z):
    """(c0, c1, c2, c3) with numerator c0 P_xi - c1 e^{chi i R P_xi} and
    denominator c2 P_xi - c3 e^{chi i R P_xi} at the validated point z."""
    ap = 2.0 * (1.0 + 1j * z)
    am = 2.0 * (1.0 - 1j * z)
    return 1.0 - ap * e.beta0, ap * e.beta1, 1.0 - am * e.beta0, am * e.beta1


def t_from_s(s, z) -> np.ndarray:
    """Recover T from one interior sample of the scattering matrix.

    Requires Im z < 0 strictly; the recovered T does not depend on which
    interior z was used.  Raises :class:`SingularMatrixError` when
    2(1+iz) I - 2(1-iz) S is not safely invertible.
    """
    sm = as_matrix(s)
    zz = _interior_point(z)
    a = 2.0 * (1.0 + 1j * zz)
    b = 2.0 * (1.0 - 1j * zz)
    t, _ = _quotient(SIGMA0 - sm, a * SIGMA0 - b * sm, zz)
    return t


@np.errstate(all="ignore")
def _s_batch(num, den):
    """(S, cond, singular) for stacks num, den of shape (N, 2, 2):
    S = num @ den^{-1} row by row, the denominators' condition numbers and a
    mask of the rows past DEFAULT_CONDITION_LIMIT, whose S is NaN.  Each row
    equals _quotient(num[i], den[i], z) bit for bit."""
    d, cond = _det_conditions(den)
    singular = cond > DEFAULT_CONDITION_LIMIT
    s = num @ _adjugates(den) / d[:, None, None]
    s[singular] = complex(math.nan, math.nan)
    return s, cond, singular


def _terms(a, zs):
    """Numerator and denominator stacks of s_matrix(a, z) over the validated
    matrix a and points zs."""
    z = np.asarray(zs, dtype=complex)
    ap = 2.0 * (1.0 + 1j * z)
    am = 2.0 * (1.0 - 1j * z)
    return SIGMA0 - ap[:, None, None] * a, SIGMA0 - am[:, None, None] * a


def _zero_range_terms(e: ExtensionParams, zs):
    """Numerator and denominator stacks of s_matrix_zero_range(e, z) over the
    validated points zs; an empty zs gives empty stacks."""
    sx, hyp = _zero_range_basis(e)
    z = np.asarray(zs, dtype=complex)
    c0, c1, c2, c3 = (c[:, None, None] for c in _zero_range_coefficients(e, z))
    return c0 * sx - c1 * hyp, c2 * sx - c3 * hyp


def _frozen(*arrays):
    """The arrays, made read-only."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


class _Plan:
    """The read-only part of a table that does not depend on T, over the
    point lists, each a pair (points, validator) validated in order: the
    lists as one flat array z; ``points``, the distinct points among each
    point and its reflection -conj z, in the order met (+0 and -0 share a
    key, so the first one met is evaluated); ``row`` and ``mirror``, each
    point's rows at z and at -conj z; and ``lists``, each list's positions
    in z."""

    def __init__(self, *lists):
        lists = [_validated(*pair) for pair in lists]
        z = np.concatenate(lists)
        keys = np.column_stack([z, -z.conj()]).ravel().tolist()
        index = {p: i for i, p in enumerate(dict.fromkeys(keys))}
        rows = np.array([index[p] for p in keys], dtype=int)
        self.z, self.points, self.row, self.mirror, *self.lists = _frozen(
            z, np.array(list(index), dtype=complex), rows[::2], rows[1::2],
            *np.split(np.arange(len(z)), list(accumulate(map(len, lists)))[:-1]))


class _Table:
    """Block k of the rows of one kernel call ``batch`` over the distinct
    points of a plan: ``s``, ``cond`` and ``singular`` hold one row per
    distinct point, ``regular`` is True when no row is singular.  It keeps
    the plan's z, points, row and mirror, so it stands in for the plan."""

    def __init__(self, plan, batch, k):
        self.z, self.points, self.row, self.mirror = plan.z, plan.points, plan.row, plan.mirror
        n = len(self.points)
        self.s, self.cond, self.singular = (x[k * n:k * n + n] for x in batch)
        self.regular = not self.singular.any()


@np.errstate(all="ignore")
def _tables(plan, a, *e):
    """The table of s_matrix(a, z) over the plan and, given e, the table of
    s_matrix_zero_range(e, z) over it, from one kernel call over the
    stacked terms of both routes, formed under the kernel's errstate."""
    terms = [_terms(a, plan.points), *(_zero_range_terms(x, plan.points) for x in e)]
    batch = _s_batch(*map(np.concatenate, zip(*terms)))
    return [_Table(plan, batch, k) for k in range(len(terms))]


def _s_table(t, *lists):
    """The table of s_matrix(t, z) over the point lists, each a pair
    (points, validator), then each list's positions in the table.  T is
    validated first, then each list in order."""
    a = as_matrix(t)
    plan = _Plan(*lists)
    return (*_tables(plan, a), *plan.lists)


@cache
def _default_plan() -> tuple:
    """The plan of the default samples, built on first use: the Mobius
    WITNESS_POINTS, the witness 1-1j, the interior grid and the real axis,
    validated in that order; the read-only positions (a), (b), (c), (d)
    and PT read, (c) the witness and the off-axis grid points; and the
    Mobius witnesses' positions."""
    plan = _Plan((WITNESS_POINTS, _interior_point), ([1.0 - 1.0j], _off_axis),
                 (lower_half_plane_grid(), _interior_point),
                 (real_axis_points(), _spectral_point))
    mobius, witness, interior, boundary = plan.lists
    off_axis = interior[plan.z[interior].real != 0.0]
    return plan, _frozen(interior, np.r_[interior, boundary], np.r_[witness, off_axis],
                         np.r_[witness, interior, boundary], interior), mobius


def _validated(zs, check) -> np.ndarray:
    """check(z) for each point z of the sequence zs, read in full first, as
    one array; a zs that is not iterable raises :class:`ArgumentError`."""
    try:
        points = iter(zs)
    except TypeError:
        raise ArgumentError(f"zs must be an iterable of points, got {type(zs).__name__}") from None
    return np.array([check(z) for z in list(points)], dtype=complex)


def _kept(i, tables, mirror=False):
    """The positions i at which every one of tables, all over one plan,
    finds S regular at z and, when mirror, at -conj z; a nonempty i that
    keeps none raises the SingularMatrixError of its first point's first
    singular read, the tables in order and z before -conj z."""
    if all(table.regular for table in tables):
        return i
    p = tables[0]
    sides = [(p.row[i], p.z[i])] + ([(p.mirror[i], -p.z[i].conj())] if mirror else [])
    reads = [(table, rows, z) for table in tables for rows, z in sides]
    bad = [table.singular[rows] for table, rows, _ in reads]
    keep = ~np.logical_or.reduce(bad)
    if len(i) and not keep.any():
        table, rows, z = next(read for read, b in zip(reads, bad) if b[0])
        raise _singular_error(float(table.cond[rows[0]]), DEFAULT_CONDITION_LIMIT,
                              complex(z[0]), "denominator")
    return i[keep]


def _worsts(z, checks) -> list:
    """The PropertyCheck of each check (name, i, m, tol) in order, m holding
    its residual matrices at the points z[i]: the largest residual, clamped
    at 0 and held to tol, and the first point attaining it.  A leading
    condition (a) check reduces minus the lowest eigenvalues of its metric
    gaps, the others their norms, from one call each; NaN and -inf
    residuals are skipped.  The first check in order with a non-finite
    matrix, no residual or only skipped ones raises :class:`ArgumentError`."""
    names, idx, ms, tols = zip(*checks)
    lead = int(names[0] == "condition (a)")
    with np.errstate(all="ignore"):
        res = [-_hermitian_lows(ms[0])] if lead else []
        if len(ms) > lead:
            res.append(_operator_norms(np.concatenate(ms[lead:])))
    res = np.concatenate(res)
    m = np.concatenate(ms)
    sizes = list(map(len, ms))
    starts = [0, *accumulate(sizes)][:-1]
    finite = np.isfinite(m)
    kept = np.where(res > -math.inf, res, -math.inf)
    if all(sizes) and finite.all():
        top = np.maximum.reduceat(kept, starts)
        if top.min() > -math.inf:
            hits = np.flatnonzero(kept == np.repeat(top, sizes))
            first = hits[np.searchsorted(hits, starts)]
            worst = [max(0.0, r) for r in res[first].tolist()]
            witness = z[np.concatenate(idx)][first].tolist()
            return [PropertyCheck(r <= tol, r, w) for r, w, tol in zip(worst, witness, tols)]
    for name, i, start, n in zip(names, idx, starts, sizes):
        bad = np.flatnonzero(~finite[start:start + n].all(axis=(1, 2)))
        if len(bad):
            at = complex(z[i[bad[0]]])
            raise ArgumentError(f"the {name} residual matrix overflows at z={at}")
        if not n:
            raise ArgumentError("zs must be nonempty")
        if kept[start:start + n].max() == -math.inf:
            raise ArgumentError("the residual norm overflowed at every point")


def _ct(s) -> np.ndarray:
    """The conjugate transpose of each matrix of a stack (N, 2, 2)."""
    return s.conj().swapaxes(1, 2)


def _metric_defect(g, s) -> float:
    """Lowest eigenvalue of G - S* G S (negative where (a) fails)."""
    return hermitian_eigenvalues(g - s.conj().T @ g @ s)[0]


def _metric_defects(g, s) -> np.ndarray:
    """_metric_defect of each S of a stack (N, 2, 2)."""
    return _hermitian_lows(g - _ct(s) @ g @ s)


@np.errstate(all="ignore")
def _products(s, j):
    """J S, S* J and J - (S* J) S over a stack of S, associated as the
    conditions write them, so every row a check gathers keeps its bits."""
    sj = _ct(s) @ j
    return j @ s, sj, j - sj @ s


# One function per condition: its record (name, the points i of a table
# s_of it keeps, its residual expression there, tol), from products formed
# once over the table's rows.

def _cond_a(s_of, i, gap, tol):
    """The metric gaps G - S* G S, gap holding them over the table rows."""
    i = _kept(i, [s_of])
    return "condition (a)", i, gap[s_of.row[i]], tol


def _frobenius(m) -> np.ndarray:
    """The Frobenius norm of each matrix of a stack (N, 2, 2), from hypot,
    so no square overflows."""
    x = np.abs(m)
    return np.hypot(np.hypot(x[:, 0, 0], x[:, 0, 1]), np.hypot(x[:, 1, 0], x[:, 1, 1]))


@np.errstate(all="ignore")
def _scales(s_of) -> np.ndarray:
    """cond(den) ||S||_F at each row of the table s_of, the scale of the
    rounding of the adjugate quotient that forms S there (NaN where S is
    singular)."""
    return s_of.cond * _frobenius(s_of.s)


@np.errstate(all="ignore")
def _cond_reflection(s_of, i, scales, j, js, sj, name, tol):
    """(b) with J = G, (d) with J = P_xi, from J S and S* J, held to tol or,
    where larger, to the rounding bound eps ||J||_F (c(z) + c(-conj z)) at
    the worst kept point, scales holding c = cond(den) ||S||_F over the
    table rows."""
    i = _kept(i, [s_of], mirror=True)
    row, mirror = s_of.row[i], s_of.mirror[i]
    bound = _EPS * _frobenius(j[None])[0] * (scales[row] + scales[mirror]).max(initial=0.0)
    return name, i, js[row] - sj[mirror], max(tol, float(bound))


@np.errstate(all="ignore")
def _cond_c(s_of, i, gs, sg, gap, tol):
    i = _kept(i, [s_of])
    z, row = s_of.z[i], s_of.row[i]
    re = z.real[:, None, None]
    im = (1j * z.imag)[:, None, None]
    return "condition (c)", i, re * gap[row] - im * (sg[row] - gs[row]), tol


@np.errstate(all="ignore")
def _cond_pt(s_of, i, tol):
    i = _kept(i, [s_of], mirror=True)
    return "PT criterion", i, _pt_images(s_of.s[s_of.row[i]]) - s_of.s[s_of.mirror[i]], tol


def _plain_norms(s_of, i, tol):
    """S itself, whose norm is the plain C^2 norm."""
    i = _kept(i, [s_of])
    return "plain norm", i, s_of.s[s_of.row[i]], tol


def check_condition_a(t, p: KreinMetricParams, zs, tol: float = DEFAULT_TOL) -> PropertyCheck:
    """Metric contraction G - S(z)* G S(z) >= 0 over interior points.

    The residual is minus the lowest eigenvalue encountered, clamped at 0;
    the witness is the point that produced it.
    """
    _check_tol(tol)
    s_of, i = _s_table(t, (zs, _interior_point))
    return _worsts(s_of.z, [_cond_a(s_of, i, _products(s_of.s, metric(p))[2], tol)])[0]


def check_condition_b(t, p: KreinMetricParams, zs, tol: float = DEFAULT_TOL) -> PropertyCheck:
    """Symmetry G S(z) = S(-conj z)* G over points of the closed half-plane,
    held to tol or, where larger, to the rounding bound of S (module docstring)."""
    _check_tol(tol)
    s_of, i = _s_table(t, (zs, _spectral_point))
    g = metric(p)
    r = _cond_reflection(s_of, i, _scales(s_of), g, *_products(s_of.s, g)[:2],
                         "condition (b)", tol)
    return _worsts(s_of.z, [r])[0]


def check_condition_c(t, p: KreinMetricParams, z, tol: float = DEFAULT_TOL) -> PropertyCheck:
    """Interior identity (Re z)[G - S* G S] = i (Im z)[S* G - G S] at one z.

    Requires Re z != 0 and Im z < 0.
    """
    _check_tol(tol)
    s_of, i = _s_table(t, ([z], _off_axis))
    return _worsts(s_of.z, [_cond_c(s_of, i, *_products(s_of.s, metric(p)), tol)])[0]


def check_condition_d(t, xi: float, z, tol: float = DEFAULT_TOL) -> PropertyCheck:
    """Krein symmetry P_xi S(z) = S(-conj z)* P_xi at one point of the
    closed half-plane, held to tol or, where larger, to the rounding bound
    of S (module docstring)."""
    _check_tol(tol)
    s_of, i = _s_table(t, ([z], _spectral_point))
    px = p_xi(xi)
    r = _cond_reflection(s_of, i, _scales(s_of), px, *_products(s_of.s, px)[:2],
                         "condition (d)", tol)
    return _worsts(s_of.z, [r])[0]


def check_pt_criterion(t, zs, tol: float = DEFAULT_TOL) -> PropertyCheck:
    """Antilinear criterion sigma_3 conj(S(z)) sigma_3 = S(-conj z) over
    interior points; passes exactly when t is PT-symmetric."""
    _check_tol(tol)
    s_of, i = _s_table(t, (zs, _interior_point))
    return _worsts(s_of.z, [_cond_pt(s_of, i, tol)])[0]


def standard_contraction_norm(t, zs) -> float:
    """Largest singular value of S(z) over the sampled points (plain C^2 norm)."""
    s_of, i = _s_table(t, (zs, _spectral_point))
    return _worsts(s_of.z, [_plain_norms(s_of, i, math.inf)])[0].residual


def property_report(t, p: KreinMetricParams, tol: float = DEFAULT_TOL) -> PropertyReport:
    """Run all characteristic checks for one extension parameter on the
    default samples.

    Conditions (a) and the PT criterion sweep the interior grid; (b) and (d)
    additionally take the real-axis samples.  The single-point conditions
    (c) and (d) are evaluated at the witness 1-1j and, for stronger
    evidence, at every admissible grid point, keeping the worst residual.
    S is evaluated once per distinct point of the default samples and of
    its reflection -conj z, in one batched call, into a table shared by
    all five checks.  Other point lists go to the check_* functions.
    """
    _check_tol(tol)
    a = as_matrix(t)
    plan, positions, _ = _default_plan()
    [s_of] = _tables(plan, a)
    return PropertyReport(*_worsts(s_of.z, _checks(s_of, *_metric_p_xi(p), positions, tol)))


def _checks(s_of, g, px, positions, tol) -> list:
    """The records of (a), (b), (c), (d) and PT over the table s_of at their
    positions, each held to tol ((b) and (d) at least to their rounding
    bound), for the metric g and P_xi px.  G S, S* G, G - S* G S, P_xi S,
    S* P_xi and the rounding scales are formed once over the table rows."""
    a, b, c, d, pt = positions
    gs, sg, gap = _products(s_of.s, g)
    with np.errstate(all="ignore"):
        ps, sp = px @ s_of.s, _ct(s_of.s) @ px
    scales = _scales(s_of)
    return [_cond_a(s_of, a, gap, tol),
            _cond_reflection(s_of, b, scales, g, gs, sg, "condition (b)", tol),
            _cond_c(s_of, c, gs, sg, gap, tol),
            _cond_reflection(s_of, d, scales, px, ps, sp, "condition (d)", tol),
            _cond_pt(s_of, pt, tol)]
