"""Property: the CSV formatter writes each float as ``'%.17g' % v`` writes
it, over all floats.  Needs the optional ``hypothesis`` package; skipped
without it (tests/test_decimal17.py checks a seeded corpus either way)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ptscatter._decimal17 import csv_rows  # noqa: E402

floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
near_decades = st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 10.0), st.integers(-7, 17))
values = st.one_of(floats, near_decades, near_decades.map(lambda x: -x))


@hypothesis.given(st.integers(1, 12).flatmap(
    lambda columns: st.lists(st.lists(values, min_size=columns, max_size=columns),
                             min_size=1, max_size=8)))
@hypothesis.example([[1 + 2.0 ** -17, 1e-5, 1e17, -0.0, float("nan")]])
@hypothesis.settings(max_examples=300, deadline=None)
def test_csv_rows_equals_percent_17g(rows):
    cells = np.array(rows, dtype=float)
    assert csv_rows(cells) == "".join(",".join("%.17g" % x for x in row) + "\n" for row in rows)
