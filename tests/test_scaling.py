"""Power-law fitting helpers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.scaling import fit_power_law
from repro.errors import ConfigurationError


def test_exact_quadratic():
    xs = [2.0, 4.0, 8.0, 16.0]
    ys = [x * x for x in xs]
    fit = fit_power_law(xs, ys)
    assert abs(fit.exponent - 2.0) < 1e-9
    assert abs(fit.coefficient - 1.0) < 1e-9
    assert fit.residual < 1e-9


def test_exact_sqrt_with_coefficient():
    xs = [1.0, 4.0, 9.0, 100.0]
    ys = [5.0 * math.sqrt(x) for x in xs]
    fit = fit_power_law(xs, ys)
    assert abs(fit.exponent - 0.5) < 1e-9
    assert abs(fit.coefficient - 5.0) < 1e-9


def test_noisy_data_reports_residual():
    fit = fit_power_law([2.0, 4.0, 8.0, 16.0], [4.1, 15.7, 65.0, 254.0])
    assert 1.9 < fit.exponent < 2.1
    assert fit.residual > 0


def test_validation_errors():
    with pytest.raises(ConfigurationError):
        fit_power_law([1.0], [1.0])
    with pytest.raises(ConfigurationError):
        fit_power_law([1.0, 2.0], [1.0])
    with pytest.raises(ConfigurationError):
        fit_power_law([1.0, -2.0], [1.0, 2.0])
    with pytest.raises(ConfigurationError):
        fit_power_law([1.0, 1.0], [1.0, 2.0])


@given(
    exponent=st.floats(min_value=0.1, max_value=3.0),
    coefficient=st.floats(min_value=0.1, max_value=100.0),
)
def test_fit_recovers_planted_power_law(exponent, coefficient):
    xs = [2.0, 4.0, 8.0, 16.0, 32.0]
    ys = [coefficient * x ** exponent for x in xs]
    fit = fit_power_law(xs, ys)
    assert abs(fit.exponent - exponent) < 1e-6
    assert fit.residual < 1e-6
