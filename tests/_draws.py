"""A bounded admissible sampler for tests that need |beta1| or |chi| kept
away from 0."""

import math

from ptscatter import ExtensionParams, KreinMetricParams


def bounded_admissible_draw(rng, min_beta1=0.0, min_chi=0.0) -> ExtensionParams:
    """An admissible draw with |beta1| >= min_beta1 and |chi| >= min_chi,
    making the rng calls of draw_extension_params(rng, admissible=True) with
    those lower bounds in place of its zeros, so a bound of 0 gives its draw."""
    assert 0.0 <= min_beta1 < 0.25 and 0.0 <= min_chi < 2.0
    chi = rng.uniform(min_chi, 2.0) * (1.0 if rng.random() < 0.5 else -1.0)
    xi = rng.uniform(0.0, 2.0 * math.pi)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    beta0 = rng.uniform(min_beta1, 0.5 - min_beta1)
    beta1 = sign * rng.uniform(min_beta1, min(beta0, 0.5 - beta0))
    return ExtensionParams(beta0, beta1, KreinMetricParams(xi=xi, chi=chi))
