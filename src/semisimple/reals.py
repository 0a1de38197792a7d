"""The private mpmath context, at WORKING_DPS digits, of every real the library
computes: no computation reads or changes mpmath's process-wide `mp`.  It
imports mpmath, so the functions that need a real import it where they use it.

Every q-integer is computed here, by `q_combination`.  [k] at q = exp(i pi/p)
is U_{k-1}(c) with c = cos(pi/p), so [0] = 0, [1] = 1 and
[k+1] = 2c [k] - [k-1]; at q^2 the same holds with c = cos(2 pi/p).  The one
transcendental is c, taken at `bits` = ctx.prec + 3 bitlen(p) + 16 bits and
turned into a fixed-point integer c 2^bits; the recurrence, up to the last
label asked for, and the weighted sum then run on plain ints.  The guard
bits cover the amplification: near c = 1, dU_{k-1}/dc is about k p^2 / pi^2,
so an error of one unit in c moves [k] by up to about p^3 units, and the k
truncations of the recurrence by about k^2.  The sum is rounded once, to
ctx.prec, at the end.  Precision is passed to each mpmath call rather than
set on `ctx`, which threads share."""

from mpmath import MPContext

from .scalars import WORKING_DPS

ctx = MPContext()
ctx.dps = WORKING_DPS


def q_combination(p: int, terms, power: int = 1):
    """sum of w [k]_{q^power} over the (k, w) pairs of terms, at q = exp(i pi/p).

    terms lists labels k >= 1 in increasing order, each with its weight.
    One cosine, cos(pi power/p), then the Chebyshev recurrence up to the
    last label, in fixed point; the sum is rounded once, to ctx.prec.  The
    same terms give the same bits, whoever calls."""
    bits = ctx.prec + 3 * p.bit_length() + 16
    two_c = int(ctx.ldexp(ctx.cospi(ctx.fdiv(power, p, prec=bits), prec=bits), bits + 1))
    total, prev, cur, at = 0, 0, 1 << bits, 1
    for k, w in terms:
        for _ in range(k - at):
            prev, cur = cur, (two_c * cur >> bits) - prev
        total, at = total + w * cur, k
    return ctx.mpf((total, -bits))
