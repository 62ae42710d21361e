"""The CSV formatter writes each float as ``'%.17g' % v`` writes it, on a
seeded corpus of the values that reach each of its paths."""

import numpy as np
import pytest

from ptscatter._decimal17 import csv_rows


def reference(cells) -> str:
    return "".join(",".join("%.17g" % x for x in row) + "\n" for row in cells.tolist())


def mismatches(values, columns=12):
    cells = np.asarray(values, dtype=float)
    cells = cells[:len(cells) // columns * columns].reshape(-1, columns)
    got, want = csv_rows(cells).split("\n"), reference(cells).split("\n")
    assert len(got) == len(want)
    return [(w, g) for g, w in zip(got, want) if g != w]


def powers_of_ten(lo, hi):
    """The doubles nearest 10^n and two ulps either side of them."""
    p = np.array([float(f"1e{n}") for n in range(lo, hi)])
    below, above = np.nextafter(p, 0), np.nextafter(p, np.inf)
    return np.concatenate([p, below, np.nextafter(below, 0), above, np.nextafter(above, np.inf)])


def corpus(seed):
    rng = np.random.default_rng(seed)
    n = 24000
    bits = rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64)  # subnormals, NaN, inf
    decades = 10.0 ** rng.uniform(-9, 19, n) * rng.choice([-1.0, 1.0], n)
    grid = rng.uniform(-3, 3, n)
    # 1 + 2^-j needs more than 17 digits from j = 17 on; 2^-j ends in 5, so
    # some of these are exact ties at the 17th digit
    ties = np.array([(1 + 2.0 ** -j) * 2.0 ** s for j in range(10, 40) for s in range(-24, 60)])
    edges = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                      2.2250738585072014e-308, 1.7976931348623157e308, 1e-7, 9.99999e-7,
                      99999999999999984.0, 1e17, 123456789012345678.0, 1e300])
    values = np.concatenate([bits, decades, grid, ties, -ties, powers_of_ten(-9, 24),
                             -powers_of_ten(-9, 24), edges])
    return rng.permutation(values)


@pytest.mark.parametrize("seed", [3, 20260])
def test_csv_rows_equals_percent_17g(seed):
    values = corpus(seed)
    assert len(values) > 60000
    assert mismatches(values) == []


@pytest.mark.parametrize("values", [
    # the switches from exponent to fixed notation at 1e-4 and back at 1e17
    np.concatenate([powers_of_ten(-6, -3), np.linspace(9.9e-6, 1.1e-4, 500)]),
    np.concatenate([powers_of_ten(15, 18), np.linspace(9.9e15, 1.1e17, 500)]),
    # integers with trailing zeros, fractions with a bare point dropped
    np.array([1.0, 10.0, 100.0, 1200.0, 1e16, 12345678901234560.0, 0.5, 0.25, 1.5, 2.0]),
    # decades outside the vectorised path
    10.0 ** np.linspace(-320, 308, 997),
], ids=["1e-4", "1e17", "trailing-zeros", "outside"])
def test_csv_rows_notation_switches(values):
    assert mismatches(np.concatenate([values, -values]), columns=1) == []


@pytest.mark.parametrize("shape", [(0, 12), (1, 1), (3, 1), (2, 5)])
def test_csv_rows_shapes(shape):
    cells = np.arange(np.prod(shape), dtype=float).reshape(shape) / 7 - 0.5
    assert csv_rows(cells) == reference(cells)


@pytest.mark.parametrize("bias", [-1e-9, 1e-9], ids=["decade-low", "decade-high"])
def test_csv_rows_corrects_a_decade_that_the_logarithm_misses(monkeypatch, bias):
    # the decade comes from a rounded logarithm; a biased one misses the
    # decade of every value next to a power of ten, low or high
    log = np.log
    monkeypatch.setattr(np, "log", lambda a: log(a) + bias)
    values = powers_of_ten(-9, 24)
    assert mismatches(np.concatenate([values, -values]), columns=1) == []
