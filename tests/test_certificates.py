"""Symbolic certificates for the identities the verify battery samples.

For T = beta0 I + beta1 C the characteristic properties (b), (c) and (d)
and the PT criterion hold at every z of the closed lower half-plane, for
every real (beta0, beta1, chi, xi).  The metric gap G - S* G S splits over
the spectral projections Pi+- of T into (1 - |s(lambda+-, z)|^2) G Pi+-,
s(lambda, z) being S for the scalar T = lambda, and each G Pi+- is positive
semidefinite, so (a) holds exactly when |s| <= 1 at both eigenvalues
lambda+- = beta0 +- beta1, that is on the nonnegativity diamond.  The
battery checks these on a grid; here sympy proves them.  With c = cosh chi,
s = sinh chi, co = cos xi, si = sin xi and z = x + iy all real symbols,
S(z) = N adj(D) / det D, so each identity is cross-multiplied by the
determinants it divides by.  The real and imaginary
parts of every entry then reduce to zero modulo c^2 - s^2 - 1 and
co^2 + si^2 - 1 (``sympy.reduced``; the two relations have coprime leading
terms, so they form a Groebner basis and a zero remainder is a proof).
"""

import numpy as np
import pytest
import sympy as sp

import ptscatter as pts

c, s, co, si, b0, b1, x, y, lam = sp.symbols("c s co si b0 b1 x y lam", real=True)
GENS = (c, s, co, si, b0, b1, x, y, lam)
RELATIONS = [c**2 - s**2 - 1, co**2 + si**2 - 1]
I2 = sp.eye(2)
P_XI = sp.Matrix([[co, -sp.I * si], [sp.I * si, -co]])
R = sp.Matrix([[0, 1], [1, 0]])
SIGMA3 = sp.Matrix([[1, 0], [0, -1]])
C = c * P_XI + sp.I * s * R
G = c * I2 - s * (sp.I * R * P_XI)
T = b0 * I2 + b1 * C
Z = x + sp.I * y
W = -x + sp.I * y          # -conj z


def vanishes(m) -> bool:
    """Whether every entry of m is zero modulo the two relations."""
    for entry in sp.Matrix(m):
        for part in sp.expand(entry).as_real_imag():
            if sp.reduced(sp.expand(part), RELATIONS, *GENS)[1] != 0:
                return False
    return True


def s_parts(z):
    """(N adj(D), det D) with S(z) = N adj(D) / det D."""
    num = I2 - 2 * (1 + sp.I * z) * T
    den = I2 - 2 * (1 - sp.I * z) * T
    return num * den.adjugate(), den.det()


SZ, DZ = s_parts(Z)
SW, DW = s_parts(W)


def test_the_certified_formula_is_the_one_the_package_evaluates():
    values = {c: np.cosh(0.7), s: np.sinh(0.7), co: np.cos(1.1), si: np.sin(1.1),
              b0: 0.3, b1: -0.15, x: 0.4, y: -1.3}
    got = np.array((SZ / DZ).subs(values).evalf(), dtype=complex)
    e = pts.extension_params(0.3, -0.15, chi=0.7, xi=1.1)
    want = pts.s_matrix(pts.t_from_betas(e), 0.4 - 1.3j).s
    assert np.abs(got - want).max() <= 1e-12


def test_the_reduction_rejects_a_false_identity():
    assert not vanishes(C * C + I2)
    assert not vanishes(SZ.conjugate() * DW - SW * sp.conjugate(DZ))   # PT without sigma_3


def test_c_is_an_involution_and_g_c_is_p_xi():
    assert vanishes(C * C - I2)
    assert vanishes(G * C - P_XI)


@pytest.mark.parametrize("j", [G, P_XI], ids=["condition_b", "condition_d"])
def test_reflection_symmetry_holds_for_every_family_member(j):
    # J S(z) = S(-conj z)* J with J = G for (b) and J = P_xi for (d)
    assert vanishes(j * SZ * sp.conjugate(DW) - SW.H * j * DZ)


def test_pt_criterion_holds_for_every_family_member():
    # sigma_3 conj(S(z)) sigma_3 = S(-conj z)
    assert vanishes(SIGMA3 * SZ.conjugate() * SIGMA3 * DW - SW * sp.conjugate(DZ))


def test_condition_c_holds_for_every_family_member():
    # (Re z)[G - S* G S] = i (Im z)[S* G - G S], times |det D|^2
    dd = DZ * sp.conjugate(DZ)
    assert vanishes(x * (G * dd - SZ.H * G * SZ)
                    - sp.I * y * (SZ.H * G * DZ - G * SZ * sp.conjugate(DZ)))


# T = sum lambda+- Pi+- with lambda+- = beta0 +- beta1 and Pi+- = (I +- C)/2,
# so S(z) = sum s(lambda+-, z) Pi+- with the scalar Mobius factor
# s(lambda, z) = (1 - 2(1+iz) lambda) / (1 - 2(1-iz) lambda)
PROJECTIONS = [(b0 + b1, (I2 + C) / 2), (b0 - b1, (I2 - C) / 2)]


def test_the_metric_gap_splits_over_the_spectral_projections():
    # G - S* G S = sum (1 - |s(lambda+-, z)|^2) G Pi+-, times
    # |det D|^2 = |d+ d-|^2 with s(lambda+-, z) = n+- / d+-
    parts = [(1 - 2 * (1 + sp.I * Z) * lam_, 1 - 2 * (1 - sp.I * Z) * lam_, pi)
             for lam_, pi in PROJECTIONS]
    sq = [(n * sp.conjugate(n), d * sp.conjugate(d)) for n, d, _ in parts]
    rhs = ((sq[0][1] - sq[0][0]) * sq[1][1] * G * parts[0][2]
           + (sq[1][1] - sq[1][0]) * sq[0][1] * G * parts[1][2])
    assert vanishes(DZ * sp.conjugate(DZ) * G - SZ.H * G * SZ - rhs)


@pytest.mark.parametrize("k", [0, 1], ids=["plus", "minus"])
def test_g_times_each_spectral_projection_is_positive_semidefinite(k):
    # G Pi+- is Hermitian with trace cosh chi >= 1 and determinant 0, so
    # both its eigenvalues are >= 0
    gp = G * PROJECTIONS[k][1]
    assert vanishes(gp - gp.H)
    assert vanishes([gp.trace() - c])
    assert vanishes([gp.det()])


def test_poles_sit_at_minus_i_times_one_minus_half_the_inverse_eigenvalue():
    # at z = -i(1 - 1/(2 lambda)) the denominator is I - T/lambda, so
    # lambda^2 det D = det(lambda I - T) = (lambda - beta0)^2 - beta1^2:
    # S has a pole there exactly when lambda = beta0 +- beta1 is an
    # eigenvalue of T
    pole = -sp.I * (1 - 1 / (2 * lam))
    den = I2 - 2 * (1 - sp.I * pole) * T
    scaled = sp.cancel(den.det() * lam**2)
    assert vanishes([scaled - (lam * I2 - T).det()])
    assert vanishes([scaled - ((lam - b0) ** 2 - b1**2)])
    e = pts.extension_params(0.8, 0.1, chi=0.5, xi=0.3)
    for eigenvalue in (0.9, 0.7):
        with pytest.raises(pts.SingularMatrixError):
            pts.s_matrix(pts.t_from_betas(e), -1j * (1 - 1 / (2 * eigenvalue)))
