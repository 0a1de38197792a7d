"""Hypothesis settings for the suite, and the bridge from the library's reals
to the mpmath oracles.

Examples are derived from each test's name (derandomize), so every run
draws the same ones, and there is no per-example deadline: a wall-clock
deadline fails spuriously on a host whose speed varies (shared or
throttled CPUs can run 1.5x slower for a minute at a time).
"""

from decimal import Context, Decimal

from hypothesis import settings
from mpmath import mp

from semisimple.scalars import WORKING_DPS

settings.register_profile("semisimple", derandomize=True, deadline=None)
settings.load_profile("semisimple")


def as_mpf(x):
    """A real the library returned (a Decimal) as an mpmath number, at the
    current mpmath precision, for comparison with an mpmath oracle."""
    return mp.mpf(str(x))


def rounded_root(x: int, n: int) -> Decimal:
    """x^(1/n) rounded once to WORKING_DPS digits, from mpmath's root at
    twice as many digits."""
    with mp.workdps(2 * WORKING_DPS):
        return Context(prec=WORKING_DPS).plus(Decimal(mp.nstr(mp.root(x, n), 2 * WORKING_DPS)))
