"""Empirical growth-rate estimation for complexity-shape checks.

The paper's claims are asymptotic (t sqrt t vs t log t vs t^2 message
growth).  These helpers fit a power law ``y ~ c * x^p`` to measured
series by least squares in log-log space, so experiments can assert the
*exponent*, not just point values: Protocol A's messages grow like
t^1.5, Protocol C's like ~t (log-factor absorbed), the naive
knowledge-spreader's like t^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of ``y = c * x^exponent`` in log-log space."""

    exponent: float
    coefficient: float
    residual: float  # RMS residual in log space


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Fit ``ys ~ c * xs^p``; every value must be positive."""
    if len(xs) != len(ys):
        raise ConfigurationError("xs and ys must have equal length")
    if len(xs) < 2:
        raise ConfigurationError("need at least two points to fit a power law")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ConfigurationError("power-law fit needs positive data")
    log_x = [math.log(x) for x in xs]
    log_y = [math.log(y) for y in ys]
    n = len(xs)
    mean_x = sum(log_x) / n
    mean_y = sum(log_y) / n
    sxx = sum((lx - mean_x) ** 2 for lx in log_x)
    if sxx == 0:
        raise ConfigurationError("xs are all equal; exponent is undefined")
    sxy = sum((lx - mean_x) * (ly - mean_y) for lx, ly in zip(log_x, log_y))
    exponent = sxy / sxx
    intercept = mean_y - exponent * mean_x
    residual = math.sqrt(
        sum(
            (ly - (intercept + exponent * lx)) ** 2
            for lx, ly in zip(log_x, log_y)
        )
        / n
    )
    return PowerLawFit(
        exponent=exponent, coefficient=math.exp(intercept), residual=residual
    )
