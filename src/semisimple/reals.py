"""Every real the library computes, from plain ints and the standard `decimal`
module: each is a `decimal.Decimal` rounded once to WORKING_DPS significant
digits.  Each operation runs in a `decimal.Context` made for it, so no
computation reads or changes the caller's context (decimal contexts are
per thread).

Every q-integer is computed here, by `q_combination`.  [k] at q = exp(i pi/p)
is U_{k-1}(c) with c = cos(pi/p), so [0] = 0, [1] = 1 and
[k+1] = 2c [k] - [k-1]; at q^2 the same holds with c = cos(2 pi/p).  The one
transcendental is c, taken by `_cospi` as a fixed-point integer c 2^bits at
`bits` = PREC + 3 bitlen(p) + 16; the recurrence, up to the last label asked
for, and the weighted sum then run on plain ints.  The guard bits cover the
amplification: near c = 1, dU_{k-1}/dc is about k p^2 / pi^2, so an error of
one unit in c moves [k] by up to about p^3 units, and the k truncations of
the recurrence by about k^2.  The sum is rounded once, to WORKING_DPS digits,
at the end.  pi is one int literal, floor(pi 2^512), enough for every
p < PRIME_CAP: there bits + _GUARD <= 169 + 3 * 64 + 16 + 8 = 385."""

from decimal import ROUND_HALF_EVEN, Context, Decimal

from .scalars import WORKING_DPS

#: Bits of WORKING_DPS + 1 decimal digits: 169.
PREC = round((WORKING_DPS + 1) * 3.321928094887362)
_PI = 0x3243F6A8885A308D313198A2E03707344A4093822299F31D0082EFA98EC4E6C89452821E638D01377BE5466CF34E90C6CC0AC29B7C97C50DD3F84D5B5B5470917
_PI_BITS = 512
_GUARD = 8  # covers the truncations of the Taylor series, at most about 150 units


def _context(prec: int) -> Context:
    return Context(prec=prec, rounding=ROUND_HALF_EVEN)


def _cospi(a: int, b: int, bits: int) -> int:
    """cos(pi a / b) 2^bits, for 0 <= a <= b, to within two units: the Taylor
    series in fixed point at _GUARD more bits."""
    bits += _GUARD
    x2 = (_PI * a // b >> _PI_BITS - bits) ** 2 >> bits
    term = total = 1 << bits
    n = 0
    while term:
        n += 2
        term = (term * x2 >> bits) // (n * (n - 1))
        total += -term if n % 4 else term
    return total >> _GUARD


def q_combination(p: int, terms, power: int = 1) -> Decimal:
    """sum of w [k]_{q^power} over the (k, w) pairs of terms, at q = exp(i pi/p).

    terms lists labels k >= 1 in increasing order, each with its weight.
    One cosine, cos(pi power/p), then the Chebyshev recurrence up to the
    last label, in fixed point; the sum is rounded once, to WORKING_DPS
    digits.  The same terms give the same digits, whoever calls."""
    bits = PREC + 3 * p.bit_length() + 16
    two_c = _cospi(power, p, bits + 1)
    total, prev, cur, at = 0, 0, 1 << bits, 1
    for k, w in terms:
        for _ in range(k - at):
            prev, cur = cur, (two_c * cur >> bits) - prev
        total, at = total + w * cur, k
    return _context(WORKING_DPS).divide(total, 1 << bits)


def root(x, n: int) -> Decimal:
    """x^(1/n) for an int or Fraction x > 0, rounded once to WORKING_DPS
    digits: exp(ln(x) / n), with ln(x) / n taken at ten more digits."""
    wide = _context(WORKING_DPS + 10)
    return _context(WORKING_DPS).exp(wide.divide(wide.ln(wide.divide(x.numerator, x.denominator)), n))
