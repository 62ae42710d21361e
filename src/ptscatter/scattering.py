"""Scattering matrix of the zero-range model and its characteristic checks.

For an extension parameter T the scattering matrix continued into the open
lower half-plane is the matrix Mobius function

    S(z) = (I - 2(1+iz) T) (I - 2(1-iz) T)^{-1},      Im z < 0,

with boundary values on the real axis given by the same rational formula.
Numerator and denominator are polynomials in T and commute, so the quotient
order is immaterial.  A single interior sample of S recovers T:

    T = (I - S(z)) (2(1+iz) I - 2(1-iz) S(z))^{-1},

which is the factored form of the Mobius inverse
(1/(2(iz-1))) (I - S)(S - theta(z) I)^{-1}, theta(z) = (1+iz)/(1-iz); the
factored form stays finite at z = -i where theta has a pole.

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
once as a stack expression over the (N, 2, 2) array of S at the sampled
points and reduced by one array form of ``_worst``: the largest residual
wins, the first point attaining it is the witness, and NaN and -inf
residuals are skipped.  A residual equals its one-point form bit for bit.

Every evaluation of S at many points goes through one private kernel,
``_s_batch``: it takes the numerator and denominator stacks of N points
(built by ``_terms`` from T or by ``_zero_range_terms`` from the parameters)
and returns S (N, 2, 2), the denominators' condition numbers and a singular
mask, with singular rows set to NaN instead of raising.  Its determinant,
condition estimate and adjugate are the stack forms of the ones in matrix2,
so each row equals the one-point s_matrix / s_matrix_zero_range bit for bit.
The one-point functions stay scalar: for a single point the batched path is
about 3-5 times slower (67 against 14 us for s_matrix, 87 against 29 us for
s_matrix_zero_range, medians of four timeit runs on a 2-core host).  Their matrix arithmetic
(T scaled by 2(1 +- iz), num @ adj / det in ``_quotient``) stays numpy:
numpy's complex array-by-scalar products and quotients round differently
from Python's, and building num and den as one stacked product measured
slower (4.1 against 3.3 us).  The determinant, condition number and
adjugate inside ``_quotient`` run on Python scalars (matrix2).

A table (``_s_table``, ``_zero_range_table``) is given its points up front,
reflections -conj z included where a check needs them, validates them as
one array and fills from one kernel call at its first lookup; a lookup
takes an array of points and returns their rows.  A check raises what a
loop over its points would raise first: for each point in turn its
validation error, then the :class:`SingularMatrixError` of S at z and then
at -conj z, then a non-finite residual matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .clifford import (DEFAULT_TOL, SIGMA0, SIGMA1, SIGMA3, KreinMetricParams,
                       metric, p_xi)
from .errors import ArgumentError, _check_tol, _finite_complex
from .extensions import ExtensionParams
from .matrix2 import (_adjugate, _adjugates, _det_conditions, _hermitian_lows,
                      _operator_norms, _singular_error, as_matrix,
                      hermitian_eigenvalues)

DEFAULT_CONDITION_LIMIT = 1e12


def _spectral_point(z, interior: bool = False) -> complex:
    zz = _finite_complex("z", z)
    if interior:
        if not zz.imag < 0:
            raise ArgumentError(f"z must lie strictly in the lower half-plane, got {zz}")
    elif zz.imag > 0:
        raise ArgumentError(f"z must lie in the closed lower half-plane, got {zz}")
    return zz


_interior_point = partial(_spectral_point, interior=True)

_NAN = complex(math.nan, math.nan)


def _complex_or_nan(z) -> complex:
    try:
        return complex(z)
    except (TypeError, ValueError):
        return _NAN


def _spectral_array(zs, interior: bool = False) -> np.ndarray:
    """complex(z) for each z of the sequence zs as one array, NaN where
    _spectral_point(z, interior) rejects z."""
    z = np.array([_complex_or_nan(x) for x in zs], dtype=complex)
    ok = np.isfinite(z) & ((z.imag < 0) if interior else (z.imag <= 0))
    return np.where(ok, z, _NAN)


def _spectral_points(zs, interior: bool = False) -> np.ndarray:
    """_spectral_point over the sequence zs as one array; the first rejected
    point raises the scalar helper's error."""
    z = _spectral_array(zs, interior)
    bad = np.flatnonzero(np.isnan(z))
    if bad.size:
        _spectral_point(zs[bad[0]], interior)
    return z


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


def _quotient(num, den, z, condition_limit):
    """num @ den^{-1} and the denominator's condition number."""
    adj, d, cond = _adjugate(den, condition_limit, z, "denominator")
    return num @ adj / d, cond


def s_matrix(t, z, condition_limit: float = DEFAULT_CONDITION_LIMIT) -> ScatteringEvaluation:
    """Evaluate S(z) = (I - 2(1+iz) t)(I - 2(1-iz) t)^{-1}.

    Raises :class:`SingularMatrixError` when the denominator's condition
    number exceeds ``condition_limit``.
    """
    a = as_matrix(t)
    zz = _spectral_point(z)
    num = SIGMA0 - 2.0 * (1.0 + 1j * zz) * a
    den = SIGMA0 - 2.0 * (1.0 - 1j * zz) * a
    s, cond = _quotient(num, den, zz, condition_limit)
    return ScatteringEvaluation(z=zz, s=s, condition_number=cond)


def s_matrix_zero_range(e: ExtensionParams, z,
                        condition_limit: float = DEFAULT_CONDITION_LIMIT) -> ScatteringEvaluation:
    """Evaluate S(z) from (beta0, beta1, chi, xi) without assembling T.

    Numerator and denominator are built directly from P_xi and the
    hyperbolic factor e^{chi i R P_xi} = cosh(chi) I + sinh(chi) i R P_xi:

        [1 - 2(1+iz) beta0] P_xi - [2(1+iz) beta1] e^{chi i R P_xi}

    over the same expression with 1+iz replaced by 1-iz; this agrees with
    s_matrix(t_from_betas(e), z) to rounding wherever the denominator is
    well conditioned.
    """
    zz = _spectral_point(z)
    sx, hyp = _zero_range_basis(e)
    c0, c1, c2, c3 = _zero_range_coefficients(e, zz)
    s, cond = _quotient(c0 * sx - c1 * hyp, c2 * sx - c3 * hyp, zz, condition_limit)
    return ScatteringEvaluation(z=zz, s=s, condition_number=cond)


def _zero_range_basis(e: ExtensionParams):
    """P_xi and e^{chi i R P_xi} = cosh(chi) I + sinh(chi) i R P_xi."""
    sx = p_xi(e.metric.xi)
    chi = e.metric.chi
    return sx, math.cosh(chi) * SIGMA0 + math.sinh(chi) * (1j * (SIGMA1 @ sx))


def _zero_range_coefficients(e: ExtensionParams, z):
    """(c0, c1, c2, c3) with numerator c0 P_xi - c1 e^{chi i R P_xi} and
    denominator c2 P_xi - c3 e^{chi i R P_xi} at the validated point z."""
    ap = 2.0 * (1.0 + 1j * z)
    am = 2.0 * (1.0 - 1j * z)
    return 1.0 - ap * e.beta0, ap * e.beta1, 1.0 - am * e.beta0, am * e.beta1


def t_from_s(s, z, condition_limit: float = DEFAULT_CONDITION_LIMIT) -> np.ndarray:
    """Recover T from one interior sample of the scattering matrix.

    Requires Im z < 0 strictly; the recovered T does not depend on which
    interior z was used.  Raises :class:`SingularMatrixError` when
    2(1+iz) I - 2(1-iz) S is not safely invertible.
    """
    sm = as_matrix(s)
    zz = _interior_point(z)
    a = 2.0 * (1.0 + 1j * zz)
    b = 2.0 * (1.0 - 1j * zz)
    t, _ = _quotient(SIGMA0 - sm, a * SIGMA0 - b * sm, zz, condition_limit)
    return t


@np.errstate(all="ignore")
def _s_batch(num, den):
    """(S, cond, singular) for stacks num, den of shape (N, 2, 2):
    S = num @ den^{-1} row by row, the denominators' condition numbers and a
    mask of the rows past DEFAULT_CONDITION_LIMIT, whose S is NaN.  Each row
    equals _quotient(num[i], den[i], z, DEFAULT_CONDITION_LIMIT) bit for bit."""
    d, cond = _det_conditions(den)
    singular = cond > DEFAULT_CONDITION_LIMIT
    s = num @ _adjugates(den) / d[:, None, None]
    s[singular] = complex(math.nan, math.nan)
    return s, cond, singular


def _terms(t, zs):
    """Numerator and denominator stacks of s_matrix(t, z) over the validated
    points zs; the per-point factors are the same Python complex arithmetic."""
    a = as_matrix(t)
    ap = np.array([2.0 * (1.0 + 1j * z) for z in zs])[:, None, None]
    am = np.array([2.0 * (1.0 - 1j * z) for z in zs])[:, None, None]
    return SIGMA0 - ap * a, SIGMA0 - am * a


def _zero_range_terms(e: ExtensionParams, zs):
    """Numerator and denominator stacks of s_matrix_zero_range(e, z) over the
    validated points zs."""
    sx, hyp = _zero_range_basis(e)
    c = np.array([_zero_range_coefficients(e, z) for z in zs]).T[:, :, None, None]
    return c[0] * sx - c[1] * hyp, c[2] * sx - c[3] * hyp


class _Table:
    """S over the valid points of zs and of reflected, the latter with their
    reflections -conj z; invalid points are left to the validation of the
    caller.  S at every distinct point comes from one kernel call on
    terms(points), made at the first lookup."""

    def __init__(self, terms, zs=(), reflected=()):
        r = _spectral_array(reflected)
        points = np.concatenate([_spectral_array(zs), np.column_stack([r, -r.conj()]).ravel()])
        distinct = dict.fromkeys(points[~np.isnan(points)].tolist())
        self._index = {z: i for i, z in enumerate(distinct)}
        self._terms = terms
        self._rows = None

    def lookup(self, zs):
        """(S (N, 2, 2), cond (N,), singular (N,), fail) at the points zs
        (an array; NaN rows where zs is NaN); fail(k) raises the
        SingularMatrixError of a one-point evaluation at zs[k]."""
        if self._rows is None:
            s, cond, singular = _s_batch(*self._terms(list(self._index)))
            self._rows = (np.append(s, np.full((1, 2, 2), _NAN), axis=0),
                          np.append(cond, math.nan), np.append(singular, False))
        idx = np.array([self._index[z] if z == z else -1 for z in zs.tolist()], dtype=int)
        s, cond, singular = (a[idx] for a in self._rows)

        def fail(k):
            raise _singular_error(float(cond[k]), DEFAULT_CONDITION_LIMIT,
                                  complex(zs[k]), "denominator")
        return s, cond, singular, fail

    def at(self, z) -> np.ndarray:
        """S at the one valid point z, raising like a one-point evaluation."""
        s, _, singular, fail = self.lookup(np.array([complex(z)]))
        if singular[0]:
            fail(0)
        return s[0]


def _s_table(t, zs=(), reflected=()) -> _Table:
    """The table of s_matrix(t, z); t is validated at the first lookup."""
    return _Table(partial(_terms, t), zs, reflected)


def _zero_range_table(e: ExtensionParams, zs) -> _Table:
    """The table of s_matrix_zero_range(e, z)."""
    return _Table(partial(_zero_range_terms, e), zs)


def _residuals(zs, z, validate, lookups, form, norm=_operator_norms) -> np.ndarray:
    """norm(form(*stacks)): the residual at each point of zs, where z holds
    the points validated (NaN where validate rejects zs[k]) and each
    (table, points) of lookups gives one S stack.  Raises what a loop over
    the points would raise first: at each point in turn validate's error,
    the singular error of each lookup in order, then as_matrix's error for a
    non-finite residual matrix.  No S is evaluated when zs is empty or
    starts with an invalid point, as in that loop."""
    if not len(z):
        return np.empty(0)
    invalid = np.isnan(z)
    if invalid[0]:
        validate(zs[0])
    stages = [(invalid, lambda k: validate(zs[k]))]
    stacks = []
    for table, points in lookups:
        s, _, singular, fail = table.lookup(points)
        stacks.append(s)
        stages.append((singular, fail))
    m = form(*stacks)
    stages.append((~np.isfinite(m).all(axis=(1, 2)), lambda k: as_matrix(m[k])))
    hits = np.flatnonzero(np.column_stack([mask for mask, _ in stages]))
    if hits.size:
        k, stage = divmod(int(hits[0]), len(stages))
        stages[stage][1](k)
    return norm(m)


def _worst(z, res):
    """(largest residual, its point) over the points z and their residuals
    res, both arrays: the first point attaining the maximum is the witness,
    and NaN and -inf residuals are skipped, as a running ``res > worst``
    skips them."""
    if len(res):
        kept = np.where(res > -math.inf, res, -math.inf)
        i = int(np.argmax(kept))
        if kept[i] > -math.inf:
            return float(res[i]), complex(z[i])
    raise ArgumentError("zs must be nonempty")


def _check(residual, witness, tol) -> PropertyCheck:
    return PropertyCheck(passed=residual <= tol, residual=residual, witness_z=witness)


def _off_axis(z) -> complex:
    zz = _interior_point(z)
    if zz.real == 0.0:
        raise ArgumentError("condition (c) needs a point with Re z != 0")
    return zz


def _ct(s) -> np.ndarray:
    """The conjugate transpose of each matrix of a stack (N, 2, 2)."""
    return s.conj().swapaxes(1, 2)


def _metric_gaps(g, s) -> np.ndarray:
    """G - S* G S for each S of a stack (N, 2, 2)."""
    return g - _ct(s) @ g @ s


def _metric_defect(g, s) -> float:
    """Lowest eigenvalue of G - S* G S (negative where (a) fails)."""
    return hermitian_eigenvalues(g - s.conj().T @ g @ s)[0]


def _metric_defects(g, s) -> np.ndarray:
    """_metric_defect of each S of a stack (N, 2, 2)."""
    return _hermitian_lows(_metric_gaps(g, s))


# One function per condition, holding its residual expression (larger is
# worse) over the S stacks of a table s_of; the public checks give each call
# its own table, property_report and the verify suite share one per
# parameter.

def _cond_a(s_of, g, zs, tol) -> PropertyCheck:
    z = _spectral_array(zs, interior=True)
    res = -_residuals(zs, z, _interior_point, [(s_of, z)], partial(_metric_gaps, g),
                      _hermitian_lows)
    worst, witness = _worst(z, res)
    return _check(max(0.0, worst), witness, tol)


def _cond_reflection(s_of, j, zs, tol) -> PropertyCheck:
    """(b) with J = G, (d) with J = P_xi."""
    z = _spectral_array(zs)
    res = _residuals(zs, z, _spectral_point, [(s_of, z), (s_of, -z.conj())],
                     lambda s, sr: j @ s - _ct(sr) @ j)
    return _check(*_worst(z, res), tol)


def _cond_c(s_of, g, zs, tol) -> PropertyCheck:
    z = _spectral_array(zs, interior=True)
    z[z.real == 0.0] = _NAN
    re = z.real[:, None, None]
    im = (1j * z.imag)[:, None, None]

    def form(s):
        sh = _ct(s)
        return re * (g - sh @ g @ s) - im * (sh @ g - g @ s)
    return _check(*_worst(z, _residuals(zs, z, _off_axis, [(s_of, z)], form)), tol)


def _cond_pt(s_of, zs, tol) -> PropertyCheck:
    z = _spectral_array(zs, interior=True)
    res = _residuals(zs, z, _interior_point, [(s_of, z), (s_of, -z.conj())],
                     lambda s, sr: SIGMA3 @ s.conj() @ SIGMA3 - sr)
    return _check(*_worst(z, res), tol)


def check_condition_a(t, p: KreinMetricParams, zs, tol: float = DEFAULT_TOL) -> PropertyCheck:
    """Metric contraction G - S(z)* G S(z) >= 0 over interior points.

    The residual is the most negative eigenvalue encountered, clamped at 0;
    the witness is the point that produced it.
    """
    _check_tol(tol)
    zs = list(zs)
    return _cond_a(_s_table(t, zs), metric(p), zs, tol)


def check_condition_b(t, p: KreinMetricParams, zs, tol: float = DEFAULT_TOL) -> PropertyCheck:
    """Symmetry G S(z) = S(-conj z)* G over points of the closed half-plane."""
    _check_tol(tol)
    zs = list(zs)
    return _cond_reflection(_s_table(t, reflected=zs), metric(p), zs, tol)


def check_condition_c(t, p: KreinMetricParams, z, tol: float = DEFAULT_TOL) -> PropertyCheck:
    """Interior identity (Re z)[G - S* G S] = i (Im z)[S* G - G S] at one z.

    Requires Re z != 0 and Im z < 0.
    """
    _check_tol(tol)
    return _cond_c(_s_table(t, [z]), metric(p), [z], tol)


def check_condition_d(t, xi: float, z, tol: float = DEFAULT_TOL) -> PropertyCheck:
    """Krein symmetry P_xi S(z) = S(-conj z)* P_xi at one point of the
    closed half-plane."""
    _check_tol(tol)
    return _cond_reflection(_s_table(t, reflected=[z]), p_xi(xi), [z], tol)


def check_pt_criterion(t, zs, tol: float = DEFAULT_TOL) -> PropertyCheck:
    """Antilinear criterion sigma_3 conj(S(z)) sigma_3 = S(-conj z) over
    interior points; passes exactly when t is PT-symmetric."""
    _check_tol(tol)
    zs = list(zs)
    return _cond_pt(_s_table(t, reflected=zs), zs, tol)


def _max_norm(s_of, zs) -> float:
    z = _spectral_array(zs)
    return _worst(z, _residuals(zs, z, _spectral_point, [(s_of, z)], lambda s: s))[0]


def standard_contraction_norm(t, zs) -> float:
    """Largest singular value of S(z) over the sampled points (plain C^2 norm)."""
    zs = list(zs)
    return _max_norm(_s_table(t, zs), zs)


def lower_half_plane_grid(re_min: float = -3.0, re_max: float = 3.0,
                          im_min: float = -3.0, im_max: float = -0.1,
                          steps: int = 7) -> list[complex]:
    """steps x steps points, row-major: imaginary part outer (ascending),
    real part inner (ascending); reversed bounds raise :class:`ArgumentError`.
    The defaults give the standard 49-point grid of the verification suites."""
    if steps < 1:
        raise ArgumentError("steps must be >= 1")
    if im_max > 0:
        raise ArgumentError("grid must stay in the closed lower half-plane")
    if re_min > re_max or im_min > im_max:
        raise ArgumentError("grid bounds must satisfy re_min <= re_max and im_min <= im_max")
    res = np.linspace(re_min, re_max, steps)
    ims = np.linspace(im_min, im_max, steps)
    return [complex(x, y) for y in ims for x in res]


def real_axis_points(lo: float = -3.0, hi: float = 3.0, steps: int = 7) -> list[complex]:
    """Boundary-value sample points on the real axis."""
    if steps < 1:
        raise ArgumentError("steps must be >= 1")
    return [complex(x, 0.0) for x in np.linspace(lo, hi, steps)]


def property_report(t, p: KreinMetricParams, interior=None, boundary=None,
                    witness: complex = 1.0 - 1.0j,
                    tol: float = DEFAULT_TOL) -> PropertyReport:
    """Run all characteristic checks for one extension parameter.

    Conditions (a) and the PT criterion sweep the interior grid; (b) and (d)
    additionally take boundary (real-axis) samples.  The single-point
    conditions (c) and (d) are evaluated at the fixed ``witness`` and, for
    stronger evidence, at every admissible grid point, keeping the worst
    residual.  S is evaluated once per distinct point of
    interior | boundary | {witness} and of its reflection -conj z, in one
    batched call, into a table shared by all five checks; each condition's
    residuals are one stack expression, and its worst residual and witness
    come from the one reducer the single checks use.
    """
    _check_tol(tol)
    interior, boundary = _grids(interior, boundary)
    s_of = _s_table(t, reflected=interior + boundary + [witness])
    return _report(s_of, p, interior, boundary, witness, tol)


def _grids(interior, boundary) -> tuple[list, list]:
    """The interior and boundary samples as lists; None gives the defaults."""
    return (list(interior) if interior is not None else lower_half_plane_grid(),
            list(boundary) if boundary is not None else real_axis_points())


def _report(s_of, p, interior, boundary, witness, tol) -> PropertyReport:
    witness = _interior_point(witness)
    g = metric(p)
    c_points = [witness] + [z for z in interior if complex(z).real != 0.0]
    return PropertyReport(
        cond_a=_cond_a(s_of, g, interior, tol),
        cond_b=_cond_reflection(s_of, g, interior + boundary, tol),
        cond_c=_cond_c(s_of, g, c_points, tol),
        cond_d=_cond_reflection(s_of, p_xi(p.xi), [witness] + interior + boundary, tol),
        pt_criterion=_cond_pt(s_of, interior, tol))
