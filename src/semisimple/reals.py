"""The private mpmath context, at WORKING_DPS digits, of every real the library
computes: no computation reads or changes mpmath's process-wide `mp`.  It
imports mpmath, so the functions that need a real import it where they use it."""

from mpmath import MPContext

from .scalars import WORKING_DPS

ctx = MPContext()
ctx.dps = WORKING_DPS
