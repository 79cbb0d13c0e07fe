"""Input guards of the exact layer that no other test reaches."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from bianchi9.cyclotomic import Cyclotomic
from bianchi9.modular import (
    ExceptionalOrbitError,
    Orbit,
    _series_match,
    classical_series,
    identify,
    orbit,
    valence_budget,
    zeta_over_pi_power,
)
from bianchi9.series import Grade, PuiseuxSeries


def _zero_plus_other_grade():
    return PuiseuxSeries(1, {}, 3) + PuiseuxSeries.constant(1, Grade(pi_exp=1))


def _other_grade_plus_zero():
    return PuiseuxSeries.constant(1, Grade(pi_exp=1)) + PuiseuxSeries(1, {}, 3)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: PuiseuxSeries(0, {}, 1), ValueError),
        (lambda: PuiseuxSeries(2, {1: F(1)}, 4).rescale(3), ValueError),
        (lambda: Cyclotomic.root(3, 1).embed(4), ValueError),
        (lambda: classical_series("X", 4), ValueError),
        (lambda: classical_series("E4", 0), ValueError),
        (lambda: zeta_over_pi_power(3), ValueError),
        # a basis with no known term matches nothing
        (lambda: _series_match(classical_series("E4", 3), PuiseuxSeries(1, {}, 3)), None),
        (lambda: identify(None, orbit(F(1, 2), F(1, 2))), ExceptionalOrbitError),
        (lambda: valence_budget(Orbit((), 5, 1, (), ())), AssertionError),
        # a grade mismatch raises even when one side is zero
        (_zero_plus_other_grade, ValueError),
        (_other_grade_plus_zero, ValueError),
    ],
    ids=[
        "exp_den-0",
        "rescale-non-multiple",
        "embed-non-divisor",
        "unknown-form",
        "trunc-0",
        "zeta-odd",
        "match-empty-basis",
        "identify-exceptional",
        "budget-n-below-6n0",
        "zero-plus-other-grade",
        "other-grade-plus-zero",
    ],
)
def test_guard(call, error):
    if error is None:
        assert call() is None
    else:
        with pytest.raises(error):
            call()
