"""The line engine with and without interval enclosures of the expression.

Skipping a detect window that the enclosure proves clear must not change
any result, bit for bit.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from deltamax.delta import DEFAULT_CONFIG
from deltamax.model import ExpressionFn, Monotone1DFn, array_evaluator, enclosure_evaluator
from deltamax.search import line_field

INF = math.inf

# (source, lo, hi, open_lo, open_hi, base points)
CASES = {
    "sqrt": ("sqrt(x)", 0.0, INF, False, True, np.linspace(0.0, 40.0, 300)),
    "sin_inv": ("sin(1/x)", 0.0, 1.0, True, False, np.linspace(1e-3, 1.0, 300)),
    "square": ("x^2", -INF, INF, True, True, np.linspace(-10.0, 10.0, 300)),
    "ln_profile": ("ln(r)", 0.0, INF, True, True, np.geomspace(1e-3, 50.0, 300)),
}


@pytest.mark.parametrize("eps", [1e-3, 0.5, 3.0])
@pytest.mark.parametrize("name", sorted(CASES))
def test_enclosure_leaves_field_bit_identical(name, eps):
    src, lo, hi, open_lo, open_hi, ps = CASES[name]
    f = ExpressionFn.parse(src)
    g = getattr(f, "inner", f)  # the profile of a radial function
    args = (array_evaluator(g), ps, eps, lo, hi, open_lo, open_hi, DEFAULT_CONFIG)
    sampled = line_field(*args, detect_points=1024)
    enclosed = line_field(*args, detect_points=1024, f_enc=enclosure_evaluator(g))
    for field in dataclasses.fields(sampled):
        if field.name == "enclosed_rounds":
            continue
        assert np.array_equal(getattr(sampled, field.name), getattr(enclosed, field.name),
                              equal_nan=True), field.name
    assert not sampled.enclosed_rounds.any()
    assert enclosed.enclosed_rounds.sum() > 0


def test_only_1d_expressions_have_an_enclosure():
    assert enclosure_evaluator(ExpressionFn.parse("x1^2")) is not None
    assert enclosure_evaluator(ExpressionFn.parse("x1*x2")) is None
    assert enclosure_evaluator(ExpressionFn.parse("exp(r)", dim=2)) is None
    assert enclosure_evaluator(Monotone1DFn(np.exp, (0.0, 1.0), True)) is None
