from fractions import Fraction

import pytest

from bianchi9 import modular
from bianchi9.seeley import CoeffIndex, orbit_sum


@pytest.fixture(scope="session")
def orbit_third():
    """The 24-point orbit of (0, 1/3)."""
    return modular.orbit(Fraction(0), Fraction(1, 3))


@pytest.fixture(scope="session")
def orbit_sixth():
    """The 8-point orbit of (1/6, 5/6)."""
    return modular.orbit(Fraction(1, 6), Fraction(5, 6))


@pytest.fixture(scope="session")
def orbit_quarter():
    """The 12-point orbit of (0, 1/4)."""
    return modular.orbit(Fraction(0), Fraction(1, 4))


@pytest.fixture(scope="session")
def orbit_sums(orbit_third, orbit_sixth):
    """All six exact orbit-sum series at the default truncation, computed once.

    Values are (result, elapsed_seconds) so the acceptance checks can also
    verify the runtime budget without recomputing.
    """
    import time

    out = {}
    for name, orb in (("third", orbit_third), ("sixth", orbit_sixth)):
        for n in (0, 1, 2):
            t0 = time.perf_counter()
            res = orbit_sum(orb, CoeffIndex(n))
            out[name, 2 * n] = (res, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="session")
def quarter_sums(orbit_quarter):
    """{order: exact orbit-sum series} of the 12-point orbit at the default truncation."""
    return {2 * n: orbit_sum(orbit_quarter, CoeffIndex(n)) for n in (0, 1, 2)}
