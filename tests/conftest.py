"""Hypothesis settings for the suite.

Examples are derived from each test's name (derandomize), so every run
draws the same ones, and there is no per-example deadline: a wall-clock
deadline fails spuriously on a host whose speed varies (shared or
throttled CPUs can run 1.5x slower for a minute at a time).
"""

from hypothesis import settings

settings.register_profile("semisimple", derandomize=True, deadline=None)
settings.load_profile("semisimple")
