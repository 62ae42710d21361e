"""The three benchmark workloads: seeded inputs, timed calls and checks.

A workload hands out its inputs in batches: batch ``k`` of seed ``s`` is
made from ``numpy.random.default_rng([s, k])``, so every batch is distinct
and the same seed gives the same batches.  :meth:`run` makes one timed call
per input, in the calling process, then checks the outputs (untimed) and
returns the per-call latencies with an :class:`Outcome`.

Why these three:

* ``battery`` -- ``ptscatter verify --random 1 --seed S`` with a fresh S per
  call: one admissible draw on the fixed 49+7-point grid plus reflections,
  so ``verify`` and ``property_report`` do most of the work, with many
  repeated S(z) points inside a draw.  Only the admissible draw runs,
  clear of a known ``verify`` defect on out-of-region draws.
* ``sweep`` -- ``ptscatter sweep --steps 16 --format csv`` with a fresh
  parameter set per call: one parameter set over 256 distinct z points;
  ``s_matrix_zero_range``, ``clifford`` and the CSV emission of ``cli``,
  bypassing ``verify``, ``symmetry`` and ``extensions``.
* ``scan`` -- :func:`scan`: single-point library calls with every point
  distinct, and the only workload where ``extensions`` and ``symmetry`` do
  real work; ``beta0``/``beta1`` fall inside and outside the diamond and
  ``|chi|`` reaches 6, past the library sampler's band of 2.  ``|beta1|``
  stays at or above SCAN_MIN_ABS_BETA1, clear of a known ``betas_from_t``
  defect.

An outcome counts items (draws, grid points, parameter sets), the items
failing any check, and among those the items whose returned values were
wrong.  Failures are counted, never filtered out.
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

EPS = float(np.finfo(float).eps)

BATTERY_CALLS = 8      # calls per batch
BATTERY_DRAWS = 1      # --random N per call: draw 0 is admissible, draw 1 is not
SWEEP_CALLS = 4
SWEEP_STEPS = 16       # --steps K per call: K*K grid points
SCAN_SETS = 500        # parameter sets per batch
# ptscatter.verify.WITNESS_POINTS and the cli CSV schema, restated so that
# the checks hold the program to them without importing it
WITNESS_POINTS = (-1j, -2j, 1.0 - 1.0j, -0.5 - 0.3j)
CSV_HEADER = ("z_re,z_im,s11_re,s11_im,s12_re,s12_im,s21_re,s21_im,"
              "s22_re,s22_im,std_norm,metric_defect")

# Check bounds, each a multiple of eps times the stated scale.  The largest
# ratios seen over 40 sweep seeds and 10k scan sets were 4.1 (sweep S),
# 2.0 (scan round trip), 1.7 (scan T) and 0.55 (scan betas).
SWEEP_S_K = 64        # ||S - S_ref|| <= K eps cond(den) ||S_ref||
SINGULAR_COND = 1e10  # a row flagged singular needs cond(den) above this
SCAN_T_K = 32         # ||T - T_ref|| <= K eps (|beta0| + |beta1| e^|chi|)
SCAN_BETA_K = 16      # beta errors <= K eps ||T|| (1 + ||T|| / |beta1|)
SCAN_ROUND_TRIP_K = 16  # ||T_rec - T|| <= K eps cond_S cond_T max(||T||, 1)
# Known defect, not fixed here: betas_from_t raises "m is not an involution"
# for valid T whenever 1e-10 < |beta1| < about 1.1e-3, at any |chi| <= 6
# (seen over 120k random draws).  The benchmark must not fail operations, so
# scan draws keep |beta1| a decade above that band; test_bench.py pins the
# defect with a strict xfail, so this floor is revisited when it is fixed.
SCAN_MIN_ABS_BETA1 = 1e-2
# Known defect, not fixed here: verify reports false property violations
# (condition_b/d, formula_equivalence) when an eigenvalue beta0 +- beta1 of T
# lies near a pole of S on its grid, because its tolerances are absolute.
# Out-of-region draws reach those poles: one of about 6000 failed in ten
# 35 s runs of --random 2.  Admissible draws keep their eigenvalues in
# [0, 1/2] and fail only within about 1e-6 of the diamond's upper edge,
# where the pole of S at z = 0 sits.  So battery runs the
# admissible draw alone; test_bench.py pins the defect with a strict xfail.


@dataclass
class Outcome:
    items: int
    failed: int = 0
    wrong: int = 0
    notes: list = field(default_factory=list)

    def fail(self, note: str, wrong: bool = True, count: int = 1):
        self.failed += count
        if wrong:
            self.wrong += count
        if len(self.notes) < 5:
            self.notes.append(note)
        return self

    def add(self, other: "Outcome"):
        self.items += other.items
        self.failed += other.failed
        self.wrong += other.wrong
        self.notes += other.notes[:5 - len(self.notes)]
        return self


def reference_t(b0, b1, chi, xi) -> np.ndarray:
    """T = beta0 I + beta1 (cosh(chi) P_xi + i sinh(chi) sigma_1), stacked."""
    b0, b1, chi, xi = (np.asarray(v, dtype=float)[..., None, None]
                       for v in (b0, b1, chi, xi))
    c, s = np.cos(xi), np.sin(xi)
    p = np.concatenate([np.concatenate([c, -1j * s], -1),
                        np.concatenate([1j * s, -c], -1)], -2)
    sigma1 = np.array([[0, 1], [1, 0]], dtype=complex)
    return b0 * np.eye(2) + b1 * (np.cosh(chi) * p + 1j * np.sinh(chi) * sigma1)


def norm2(m) -> np.ndarray:
    return np.linalg.norm(m, 2, axis=(-2, -1))


def call_cli(argv) -> tuple[int, int]:
    """``ptscatter.cli.main(argv)`` in this process: (exit code, ns).

    ``main`` is looked up at each call, so a tracer installed at any time
    sees it."""
    import ptscatter.cli

    start = time.perf_counter_ns()
    try:
        code = ptscatter.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    return code, time.perf_counter_ns() - start


class Battery:
    name = "battery"

    def __init__(self, seed: int):
        self.seed = seed

    def sizes(self) -> dict:
        return {"calls_per_batch": BATTERY_CALLS, "draws_per_call": BATTERY_DRAWS}

    def batch(self, k: int) -> list:
        rng = np.random.default_rng([self.seed, k])
        return [int(s) for s in rng.integers(0, 2 ** 31, BATTERY_CALLS)]

    def run(self, cli_seeds, workdir) -> tuple[list, Outcome]:
        path = workdir / "battery.json"
        latency, out = [], Outcome(0)
        for cli_seed in cli_seeds:
            path.unlink(missing_ok=True)
            code, ns = call_cli(["verify", "--random", str(BATTERY_DRAWS),
                                 "--seed", str(cli_seed), "--output", str(path)])
            latency.append(ns)
            try:
                out.add(check_battery(json.loads(path.read_text()), code, BATTERY_DRAWS))
            except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
                out.add(Outcome(BATTERY_DRAWS).fail(
                    f"seed {cli_seed}: exit {code}, malformed report: {exc!r}",
                    count=BATTERY_DRAWS))
        return latency, out


def check_battery(report: dict, returncode: int, draws: int) -> Outcome:
    """A draw fails when any check has passed != expected_pass or an
    incoherent ``consistent`` flag; the report fails as a whole on a wrong
    ``draws``, a missing draw, or an exit code or ``all_consistent`` that
    does not match the draws."""
    out = Outcome(draws)
    results = report.get("results", [])
    if report.get("draws") != draws or [r.get("draw") for r in results] != list(range(draws)):
        return out.fail(f"report covers draws {report.get('draws')!r}, expected {draws}",
                        count=draws)
    for r in results:
        bad = [name for name, c in r["checks"].items()
               if c["passed"] != c["expected_pass"]
               or c["consistent"] != (c["passed"] == c["expected_pass"])]
        if bad or r["consistent"] is not True:
            out.fail(f"draw {r['draw']} {r['params']}: checks {bad}, "
                     f"consistent={r['consistent']}")
    expect_ok = out.failed == 0
    if report.get("all_consistent") is not expect_ok or (returncode == 0) != expect_ok:
        out.fail(f"exit {returncode}, all_consistent={report.get('all_consistent')!r} "
                 f"with {out.failed} failed draws", count=draws - out.failed)
    return out


def sweep_argv(params, steps: int, path) -> list:
    # --flag=value: argparse would take a bare "-9.8e-05" for an option
    b0, b1, chi, xi = params
    return ["sweep", f"--beta0={b0!r}", f"--beta1={b1!r}", f"--chi={chi!r}",
            f"--xi={xi!r}", "--steps", str(steps), "--format", "csv", "--output", str(path)]


class Sweep:
    name = "sweep"

    def __init__(self, seed: int):
        self.seed = seed

    def sizes(self) -> dict:
        return {"calls_per_batch": SWEEP_CALLS, "points_per_call": SWEEP_STEPS ** 2}

    def batch(self, k: int) -> list:
        rng = np.random.default_rng([self.seed, k])
        return [(rng.uniform(-0.25, 0.75), rng.uniform(-0.5, 0.5),
                 rng.uniform(-2.0, 2.0), rng.uniform(0.0, 2.0 * math.pi))
                for _ in range(SWEEP_CALLS)]

    def run(self, param_sets, workdir) -> tuple[list, Outcome]:
        path = workdir / "sweep.csv"
        n = SWEEP_STEPS ** 2
        latency, out = [], Outcome(0)
        for params in param_sets:
            path.unlink(missing_ok=True)
            code, ns = call_cli(sweep_argv(params, SWEEP_STEPS, path))
            latency.append(ns)
            if code != 0:
                out.add(Outcome(n).fail(f"{params}: exit {code}", count=n))
                continue
            try:
                out.add(check_sweep(path.read_text(), params, SWEEP_STEPS))
            except OSError as exc:
                out.add(Outcome(n).fail(f"{params}: no CSV: {exc}", count=n))
        return latency, out


def check_sweep(text: str, params, steps: int) -> Outcome:
    """Every non-singular row's S against ``numpy.linalg.solve`` on the
    benchmark's own T, within SWEEP_S_K eps cond(den) ||S_ref||; singular
    rows need cond(den) above SINGULAR_COND; the z grid, header and
    singular-count line must match."""
    n = steps * steps
    out = Outcome(n)
    lines = text.splitlines() or [""]
    if lines[0] != CSV_HEADER:
        return out.fail(f"CSV header {lines[0]!r}", count=n)
    try:
        data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1,
                          comments="#", ndmin=2)
    except ValueError as exc:
        return out.fail(f"unparsable CSV: {exc}", count=n)
    if data.shape != (n, 12):
        return out.fail(f"CSV shape {data.shape}, expected ({n}, 12)", count=n)
    res = np.linspace(-3.0, 3.0, steps)
    ims = np.linspace(-3.0, -0.1, steps)
    z = (res[None, :] + 1j * ims[:, None]).ravel()
    s = (data[:, 2:10:2] + 1j * data[:, 3:10:2]).reshape(n, 2, 2)
    t = reference_t(*params)
    eye = np.eye(2)
    num = eye - 2.0 * (1.0 + 1j * z)[:, None, None] * t
    den = eye - 2.0 * (1.0 - 1j * z)[:, None, None] * t
    cond = np.linalg.cond(den)
    singular = np.isnan(data[:, 2])
    ok = singular.copy()
    ok[singular] = cond[singular] > SINGULAR_COND
    good = ~singular
    s_ref = np.linalg.solve(den[good], num[good])
    ok[good] = norm2(s[good] - s_ref) <= SWEEP_S_K * EPS * cond[good] * norm2(s_ref)
    ok &= (data[:, 0] == z.real) & (data[:, 1] == z.imag)
    for i in np.flatnonzero(~ok):
        out.fail(f"{params} row {i} z={z[i]}: S or z disagrees with the reference")
    count_line = f"# singular_points: {int(singular.sum())}/{n}"
    if lines[-1] != count_line:
        out.fail(f"trailing line {lines[-1]!r}, expected {count_line!r}",
                 count=n - out.failed)
    return out


def draw_scan_params(rng, n: int) -> np.ndarray:
    """(beta0, beta1, chi, xi) rows: even rows inside the nonnegativity
    diamond, odd rows anywhere in [-1/4, 3/4] x [-1/2, 1/2]; |chi| <= 6 and
    |beta1| >= SCAN_MIN_ABS_BETA1 (a draw below it is drawn again)."""
    rows = np.empty((n, 4))
    for i in range(n):
        b1 = 0.0
        while abs(b1) < SCAN_MIN_ABS_BETA1:
            if i % 2 == 0:
                b0 = rng.uniform(0.0, 0.5)
                margin = min(b0, 0.5 - b0)
                b1 = rng.uniform(-margin, margin)
            else:
                b0 = rng.uniform(-0.25, 0.75)
                b1 = rng.uniform(-0.5, 0.5)
        rows[i] = (b0, b1, rng.uniform(-6.0, 6.0), rng.uniform(0.0, 2.0 * math.pi))
    return rows


NAN2 = np.full((2, 2), np.nan, dtype=complex)


def scan(params: np.ndarray) -> dict:
    """For each parameter set call ``extension_params``,
    ``classify_nonnegative``, ``t_from_betas``, ``betas_from_t`` and, at
    each of the 4 ``WITNESS_POINTS``, ``s_matrix`` followed by ``t_from_s``;
    each set is timed on its own.  Exceptions are recorded per call, never
    raised.  Functions are looked up on the package at each call, so a
    tracer installed at any time sees them."""
    import ptscatter as pts

    n, k = len(params), len(pts.WITNESS_POINTS)
    out = {
        "latency_ns": np.zeros(n, dtype=np.int64),
        "closed": np.zeros(n, dtype=bool),
        "oracle": np.zeros(n, dtype=bool),
        "t": np.full((n, 2, 2), np.nan, dtype=complex),
        "betas": np.full((n, 2), np.nan),
        "s": np.full((n, k, 2, 2), np.nan, dtype=complex),
        "s_cond": np.full((n, k), np.nan),
        "t_rec": np.full((n, k, 2, 2), np.nan, dtype=complex),
    }
    errors = []  # [item, stage, exception type, message]
    clock = time.perf_counter_ns
    for i, (b0, b1, chi, xi) in enumerate(params.tolist()):
        start = clock()
        try:
            e = pts.extension_params(b0, b1, chi, xi)
            cls = pts.classify_nonnegative(e)
            t = pts.t_from_betas(e)
        except Exception as exc:  # recorded and judged by check_scan
            out["latency_ns"][i] = clock() - start
            errors.append([i, "t_from_betas", type(exc).__name__, str(exc)])
            continue
        try:
            back = pts.betas_from_t(t)
        except Exception as exc:
            back = None
            errors.append([i, "betas_from_t", type(exc).__name__, str(exc)])
        points = []
        for j, z in enumerate(pts.WITNESS_POINTS):
            try:
                ev = pts.s_matrix(t, z)
            except Exception as exc:
                errors.append([i, f"s_matrix:{j}", type(exc).__name__, str(exc)])
                points.append(None)
                continue
            try:
                points.append((ev, pts.t_from_s(ev.s, z)))
            except Exception as exc:
                errors.append([i, f"t_from_s:{j}", type(exc).__name__, str(exc)])
                points.append((ev, NAN2))
        out["latency_ns"][i] = clock() - start

        out["closed"][i] = cls.closed_form_verdict
        out["oracle"][i] = cls.oracle_verdict
        out["t"][i] = t
        if back is not None:
            out["betas"][i] = (back.beta0, back.beta1)
        for j, point in enumerate(points):
            if point is not None:
                ev, t_rec = point
                out["s"][i, j] = ev.s
                out["s_cond"][i, j] = ev.condition_number
                out["t_rec"][i, j] = t_rec
    out["errors"] = errors
    return out


class Scan:
    name = "scan"

    def __init__(self, seed: int):
        self.seed = seed

    def sizes(self) -> dict:
        return {"parameter_sets_per_batch": SCAN_SETS, "witness_points": len(WITNESS_POINTS)}

    def batch(self, k: int) -> np.ndarray:
        return draw_scan_params(np.random.default_rng([self.seed, k]), SCAN_SETS)

    def run(self, params, workdir) -> tuple[list, Outcome]:
        result = scan(params)
        return result["latency_ns"].tolist(), check_scan(params, result)


def check_scan(params: np.ndarray, result: dict) -> Outcome:
    """Per parameter set: closed form == oracle, T equal to the reference,
    ``betas_from_t`` recovering (beta0, |beta1|), the ``t_from_s`` round trip
    within its bound, and no exception other than the SingularMatrixError
    that ``s_matrix`` and ``t_from_s`` document.  An undocumented exception
    is a failure but not a wrong value."""
    n = len(params)
    out = Outcome(n)
    if result["t"].shape != (n, 2, 2):
        return out.fail(f"output covers {result['t'].shape[0]} sets, expected {n}", count=n)
    b0, b1, chi, xi = params.T
    t = result["t"]
    t_norm = norm2(np.nan_to_num(t))
    wrong = result["closed"] != result["oracle"]
    wrong |= ~(norm2(np.nan_to_num(t - reference_t(b0, b1, chi, xi)))
               <= SCAN_T_K * EPS * (np.abs(b0) + np.abs(b1) * np.exp(np.abs(chi))))
    betas = result["betas"]
    have = ~np.isnan(betas[:, 0])
    scale = SCAN_BETA_K * EPS * t_norm * (1.0 + t_norm / np.maximum(np.abs(b1), 1e-300))
    wrong[have] |= ~((np.abs(betas[have, 0] - b0[have]) <= scale[have])
                     & (np.abs(betas[have, 1] - np.abs(b1[have])) <= scale[have]))

    z = np.array(WITNESS_POINTS)
    t_rec, s = result["t_rec"], result["s"]
    done = np.isfinite(t_rec).all(axis=(-2, -1))
    a = (2.0 * (1.0 + 1j * z))[None, :, None, None]
    b = (2.0 * (1.0 - 1j * z))[None, :, None, None]
    cond_t = np.ones(done.shape)
    cond_t[done] = np.linalg.cond((a * np.eye(2) - b * np.nan_to_num(s))[done])
    err = norm2(np.nan_to_num(t_rec - t[:, None]))
    bound = (SCAN_ROUND_TRIP_K * EPS * np.nan_to_num(result["s_cond"]) * cond_t
             * np.maximum(t_norm, 1.0)[:, None])
    wrong |= (done & ~(err <= bound)).any(axis=1)

    undocumented = np.zeros(n, dtype=bool)
    messages = {}
    for i, stage, kind, msg in result["errors"]:
        documented = kind == "SingularMatrixError" and stage.split(":")[0] in ("s_matrix",
                                                                               "t_from_s")
        if not documented:
            undocumented[i] = True
            messages.setdefault(i, f"set {i} {params[i].tolist()}: {stage} {kind}: {msg}")
    missing = ~(have | undocumented)  # betas_from_t neither returned nor raised
    for i in np.flatnonzero(wrong | missing):
        out.fail(f"set {i} {params[i].tolist()}: wrong value")
    for i in np.flatnonzero(undocumented & ~(wrong | missing)):
        out.fail(messages[i], wrong=False)
    return out


WORKLOADS = {cls.name: cls for cls in (Battery, Sweep, Scan)}
