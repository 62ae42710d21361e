"""Property: on the types the command line's documents hold (dict with str
keys, list, str, int, bool, None, float), its JSON writer writes what
``json.dumps(obj, sort_keys=True, indent=2)`` writes.  Needs the optional
``hypothesis`` package; skipped without it (tests/test_cli.py checks fixed
edge values and every CLI document kind either way)."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ptscatter.cli import _json_text  # noqa: E402

ESCAPES = st.sampled_from(["", "\"", "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é  ",
                           "\ud800", "\udfff", "\U0001f600", "</script>"])
strings = st.one_of(st.text(), ESCAPES, st.lists(ESCAPES).map("".join))
floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), floats,
                    st.sampled_from([-0.0, 5e-324, -5e-324]), strings)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(strings, inner, max_size=4)),
    max_leaves=40)


@hypothesis.given(values)
@hypothesis.settings(max_examples=300, deadline=None)
def test_json_writer_equals_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)
