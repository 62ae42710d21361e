"""Property: each one-matrix form in matrix2 equals its stack form bit for
bit.  Needs the optional ``hypothesis`` package; skipped without it."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ptscatter.matrix2 import (_adjugate, _adjugates, _det_condition,  # noqa: E402
                               _det_conditions, _hermitian_lows,
                               _operator_norms, hermitian_eigenvalues,
                               operator_norm)


def bits(x):
    """Type, dtype, shape, layout and bytes of a number or array: equal
    bits, sign of zero included."""
    a = np.asarray(x)
    return type(x), a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes()


finite = st.floats(min_value=-1e150, max_value=1e150)
tenths = st.integers(-9, 9).map(lambda k: k / 10)
entries = st.one_of(st.builds(complex, finite, finite), st.builds(complex, tenths, tenths))
stacks = st.lists(st.lists(entries, min_size=4, max_size=4), min_size=1, max_size=16).map(
    lambda rows: np.array(rows, dtype=complex).reshape(-1, 2, 2))


# math.hypot rounds the first example apart, Python's abs of the entries the second
@hypothesis.given(stacks)
@hypothesis.example(np.array([[[-0.9, -0.3], [0.4 - 0.8j, -0.3 - 0.8j]]]))
@hypothesis.example(np.array([[[0.6 - 0.6j, -0.8 + 0.6j], [-0.6 + 0.7j, -0.5 + 0.2j]]]))
@hypothesis.settings(max_examples=200, deadline=None)
def test_scalar_forms_equal_their_stack_forms(a):
    with np.errstate(all="ignore"):
        norms = _operator_norms(a)
        dets, conds = _det_conditions(a)
        lows = _hermitian_lows(a)
        adjs = _adjugates(a)
    for k, m in enumerate(a):
        assert bits(operator_norm(m)) == bits(float(norms[k]))
        d, cond = _det_condition(*m.ravel().tolist())
        assert bits(d) == bits(complex(dets[k]))
        assert bits(cond) == bits(float(conds[k]))
        assert bits(hermitian_eigenvalues(m)[0]) == bits(float(lows[k]))
        if cond < math.inf:
            assert bits(_adjugate(m, None)[0]) == bits(adjs[k])
