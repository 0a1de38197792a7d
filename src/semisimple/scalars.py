"""Exact arithmetic kernel.

What every request shares: the size caps, the two errors, primality,
prime-field scalars, the base of the frozen records, and q-integers
evaluated at high precision.  Integer polynomials in t and the exact rank
and determinant routines are in `exact`, which only the requests that
run them load.
"""

from __future__ import annotations

from functools import lru_cache, wraps

#: Decimal digits used for every high-precision numeric evaluation.
WORKING_DPS = 50

#: Comparison tolerance for high-precision numerics.  Exact identities are
#: always checked on integer data instead; this is only for derived reals.
NUMERIC_TOL = 1e-30

#: Moduli at or above this are not accepted as primes.  Below it the
#: Miller-Rabin bases of is_prime decide primality exactly.
PRIME_CAP = 2**64

#: The first 12 primes; as Miller-Rabin bases they are exact for every
#: n < 3.18 * 10^23 (Sorenson and Webster 2015), which covers PRIME_CAP.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class DomainError(ValueError):
    """A mathematically invalid request (non-prime modulus, bad label, ...)."""


class CapExceeded(RuntimeError):
    """A computation was refused because it exceeds a configured size cap."""


def shown(value):
    """value as a message names it: itself, or for an int past 4096 bits,
    which str() refuses past 4300 digits, its least power of 2 ("2^n or
    more", "-(2^n or more)" below zero)."""
    if not isinstance(value, int) or value.bit_length() <= 4096:
        return value
    power = f"2^{value.bit_length() - 1} or more"
    return power if value > 0 else f"-({power})"


def check_cap(what: str, value: int, cap: int) -> None:
    """Refuse a value past its cap, naming it as what.format(shown(value))."""
    if value > cap:
        raise CapExceeded(f"{what.format(shown(value))} exceeds the cap {cap}")


# Default size caps.  Each module's functions take them as parameters; the
# CLI reads its option defaults from here, so it loads no module to learn them.

#: Hom spaces have d! basis diagrams where d = r + v; this cap keeps the
#: worst Gram matrix at 720 x 720 (brauer).
DEGREE_CAP = 6

#: Largest degree d at which brauer.schur_weyl_homdim sums over the
#: partitions of d with at most n rows: at most p(40) = 37,338 of them, and
#: none when n >= d, where the sum is d!.  Fixed, like the padic binomial
#: row cap: no parameter or flag raises it.
HOMDIM_DEGREE_CAP = 40

#: Default largest group order p^e; JordanModule(..., cap=...) raises it at
#: the caller's risk, for that module and those derived from it.  A tensor
#: pair costs one elimination of at most p^e x p^e scalars; squares and
#: exterior powers are bounded by INDUCED_DIM_CAP as well.
ORDER_CAP = 64

#: Largest induced-matrix dimension for symmetric/exterior constructions (modrep).
INDUCED_DIM_CAP = 4096

#: Prime cap of the partition enumeration in the growth lower bounds (p(46) is ~10^5 partitions).
BOUNDS_PRIME_CAP = 47

#: Most entries one document may list: p - 1 multiplicities for a fusion
#: product, (p - 1)^3 for the whole table, so every table up to p = 257 is
#: allowed; a padic binomial row lists its length.  The vectors are dense,
#: so their cost grows with p, not with the answer.
FUSION_ENTRY_CAP = 2**24

#: Most work one compose or tensor of two diagram morphisms may cost, in
#: coefficient operations of about 0.1 us each: per pair of terms, 128
#: plus 16 per endpoint of the diagram it makes, 4 per dense entry of the
#: two coefficients, and the product of their nonzero counts.  Checked
#: before the first pair is formed; fixed, like HOMDIM_DEGREE_CAP.
PRODUCT_WORK_CAP = 2**24

#: Most work growth.tensor_power_length(x, n) may cost, in operations of
#: about 10 ns: per fusion product, 400 plus 10 per label triple (i, j, k)
#: with L_k in L_i L_j, of which there are (p - 1)p(p + 1)/6; and once, the
#: triples times d^1.5 for entries of d 30-bit digits.  The power x^n has
#: at most n log2(s) bits, s = sum of m_k min(k, p - k) bounding the
#: Frobenius-Perron dimension of x.  Checked before the first product;
#: fixed, like HOMDIM_DEGREE_CAP.
POWER_WORK_CAP = 2**26

#: Largest term degree TPolynomial.parse accepts, checked before the dense coefficient list is built.
PARSE_DEGREE_CAP = 2**16


@lru_cache(maxsize=256)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality for n < PRIME_CAP; False from there on.

    Memoized: every F_p scalar, arithmetic results included, checks its p.
    """
    if n < 2 or n >= PRIME_CAP:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    if not is_prime(p):
        named = shown(p) if isinstance(p, int) else repr(p)
        raise DomainError(f"modulus {named} is not a prime in the supported range")
    return p


def coerced(op):
    """The binary operator op, given the other operand as self._coerce makes
    it, or answering NotImplemented for an operand _coerce does not take."""
    @wraps(op)
    def guarded(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else op(self, other)
    return guarded


class Record:
    """Base of every frozen value: the one place that refuses to set or
    delete a field, compares, hashes and lets pickle and copy rebuild one.

    A record's __init__ validates its values and sets them in one call,
    self.__dict__.update(...), together with `_key`, the tuple of the fields
    that == and hash compare; `_fields` names the fields repr shows, in
    order.  Only a record of the same class is equal to one, as with a
    frozen dataclass.  A small, numerous value may instead set each field
    with object.__setattr__, which keeps its values inline without building
    a per-instance dict, and define its own ==, hash and repr."""

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is type(self):
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"


class FpScalar(Record):
    """An element of the prime field F_p, stored as an integer in [0, p)."""

    def __init__(self, value: int, p: int):
        check_prime(p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "value", int(value) % p)

    def _coerce(self, other) -> "FpScalar":
        if isinstance(other, FpScalar):
            if other.p != self.p:
                raise DomainError(f"mixed moduli {self.p} and {other.p}")
            return other
        if type(other) is int:  # a bool is no scalar
            return FpScalar(other, self.p)
        return NotImplemented

    @coerced
    def __add__(self, other):
        return FpScalar(self.value + other.value, self.p)

    __radd__ = __add__

    @coerced
    def __sub__(self, other):
        return FpScalar(self.value - other.value, self.p)

    @coerced
    def __rsub__(self, other):
        return FpScalar(other.value - self.value, self.p)

    @coerced
    def __mul__(self, other):
        return FpScalar(self.value * other.value, self.p)

    __rmul__ = __mul__

    @coerced
    def __truediv__(self, other):
        if other.value == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpScalar(self.value * pow(other.value, -1, self.p), self.p)

    def __neg__(self):
        return FpScalar(-self.value, self.p)

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, FpScalar):
            return self.p == other.p and self.value == other.value
        if type(other) is int:  # the canonical residue only, so equal values hash alike; a bool is no scalar
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"FpScalar({self.value}, {self.p})"

    def __str__(self):
        return f"{self.value} mod {self.p}"


# ---------------------------------------------------------------------------
# q-integers
# ---------------------------------------------------------------------------


def q_int(p: int, k: int, power: int = 1):
    """[k] at the 2p-th root of unity: sin(pi*k*power/p) / sin(pi*power/p).

    power=1 gives the ordinary q-integer, power=2 the q^2 variant.  Computed
    by `reals.q_combination` with the one weight 1 at k, so by the Chebyshev
    recurrence from cos(pi*power/p), rounded once to a Decimal of WORKING_DPS
    digits; deterministic across runs.  [1] = 1 exactly, also at p = 2, where the
    q^2 quotient is 0/0.  At power 1, [k] = [p-k] and the smaller label is
    the one computed, so the two are equal exactly, and equal to
    `verlinde.fp_dim` of L_k, which folds k and p - k the same way.  The
    recurrence walks k steps, so a label (after that fold) past
    FUSION_ENTRY_CAP, the cap on fp_dim's p - 1 multiplicities, raises
    CapExceeded; it can occur only at p > FUSION_ENTRY_CAP.
    """
    from .reals import q_combination

    check_prime(p)
    if not 1 <= k <= p - 1:
        raise DomainError(f"label k={shown(k)} outside [1, {p - 1}]")
    if power not in (1, 2):
        raise DomainError("power must be 1 or 2")
    if power == 1:
        k = min(k, p - k)
    check_cap("q-integer label {}", k, FUSION_ENTRY_CAP)
    return q_combination(p, ((k, 1),), power)
