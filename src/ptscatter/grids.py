"""Sample points of the closed lower half-plane: the interior grid and the
real-axis points on which the verification suites sample S(z).

Each builder validates its bounds and count once, so the points it returns
are finite and in the closed lower half-plane as built; ``cli``'s sweep
evaluates them without validating each point again.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError, _finite_real, _integer


def lower_half_plane_grid(re_min: float = -3.0, re_max: float = 3.0,
                          im_min: float = -3.0, im_max: float = -0.1,
                          steps: int = 7) -> list[complex]:
    """steps x steps points, row-major: imaginary part outer (ascending),
    real part inner (ascending), each finite and in the closed lower
    half-plane; reversed or non-finite bounds, an overflowing span and a
    steps that is not an integer >= 1 raise :class:`ArgumentError`.  The
    defaults give the standard 49-point grid of the verification suites."""
    steps = _steps(steps)
    re_min, re_max = _finite_real("re_min", re_min), _finite_real("re_max", re_max)
    im_min, im_max = _finite_real("im_min", im_min), _finite_real("im_max", im_max)
    if im_max > 0:
        raise ArgumentError("grid must stay in the closed lower half-plane")
    if re_min > re_max or im_min > im_max:
        raise ArgumentError("grid bounds must satisfy re_min <= re_max and im_min <= im_max")
    res = _axis("re_min", re_min, "re_max", re_max, steps)
    ims = _axis("im_min", im_min, "im_max", im_max, steps)
    z = np.empty((steps, steps), dtype=complex)
    z.real, z.imag = res, ims[:, None]
    return z.ravel().tolist()


def _axis(lo_name, lo, hi_name, hi, steps) -> np.ndarray:
    """steps values from lo to hi, each end the bound itself (linspace
    computes its first value as 0 * step + lo, which turns a -0.0 into
    +0.0); a span hi - lo that overflows leaves a non-finite value and
    raises :class:`ArgumentError` naming the bounds."""
    with np.errstate(all="ignore"):
        axis = np.linspace(lo, hi, steps)
    if not np.isfinite(axis).all():
        raise ArgumentError(f"{hi_name} - {lo_name} must be finite, "
                            f"got {lo_name}={lo!r}, {hi_name}={hi!r}")
    axis[0] = lo
    return axis


def _steps(steps) -> int:
    steps = _integer("steps", steps)
    if steps < 1:
        raise ArgumentError("steps must be >= 1")
    return steps


def real_axis_points(lo: float = -3.0, hi: float = 3.0, steps: int = 7) -> list[complex]:
    """Boundary-value sample points on the real axis, ascending; reversed or
    non-finite bounds, an overflowing span and a steps that is not an
    integer >= 1 raise :class:`ArgumentError`."""
    steps = _steps(steps)
    lo, hi = _finite_real("lo", lo), _finite_real("hi", hi)
    if lo > hi:
        raise ArgumentError("grid bounds must satisfy lo <= hi")
    return [complex(x, 0.0) for x in _axis("lo", lo, "hi", hi, steps)]
