"""Exact arithmetic kernel.

Everything downstream (diagram traces, Gram ranks, Jordan profiles, growth
rates) is built on the types here: prime-field scalars, integer polynomials
in the loop parameter t, q-integers evaluated at high precision, and exact
rank/determinant routines that never touch floating point.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, wraps
from math import lcm
from typing import Iterable

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


def check_cap(what: str, value: int, cap: int) -> None:
    """Refuse a value past its cap, naming it as what.format(value)."""
    if value > cap:
        raise CapExceeded(f"{what.format(value)} exceeds the cap {cap}")


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
        raise DomainError(f"modulus {p!r} is not a prime in the supported range")
    return p


def _coerced(op):
    """The binary operator op, given the other operand as self._coerce makes
    it, or answering NotImplemented for an operand _coerce does not take."""
    @wraps(op)
    def guarded(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else op(self, other)
    return guarded


class FpScalar:
    """An element of the prime field F_p, stored as an integer in [0, p)."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        check_prime(p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "value", int(value) % p)

    def __setattr__(self, name, val):  # immutable after construction
        raise AttributeError("FpScalar is immutable")

    def _coerce(self, other) -> "FpScalar":
        if isinstance(other, FpScalar):
            if other.p != self.p:
                raise DomainError(f"mixed moduli {self.p} and {other.p}")
            return other
        if type(other) is int:  # a bool is no scalar
            return FpScalar(other, self.p)
        return NotImplemented

    @_coerced
    def __add__(self, other):
        return FpScalar(self.value + other.value, self.p)

    __radd__ = __add__

    @_coerced
    def __sub__(self, other):
        return FpScalar(self.value - other.value, self.p)

    @_coerced
    def __rsub__(self, other):
        return FpScalar(other.value - self.value, self.p)

    @_coerced
    def __mul__(self, other):
        return FpScalar(self.value * other.value, self.p)

    __rmul__ = __mul__

    @_coerced
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


_TERM_RE = re.compile(r"^(\d+)?(?:\*?t(?:\^(\d+))?)?$")


class TPolynomial:
    """Integer-coefficient polynomial in the loop parameter t.

    Coefficients are indexed by degree; the top coefficient is nonzero
    unless the polynomial is zero (empty coefficient tuple).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, val):
        raise AttributeError("TPolynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c: int) -> "TPolynomial":
        return cls((c,))

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def _coerce(self, other):
        if isinstance(other, TPolynomial):
            return other
        if type(other) is int:  # a bool is no polynomial
            return TPolynomial((other,))
        return NotImplemented

    @_coerced
    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return TPolynomial(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __neg__(self):
        return TPolynomial(-c for c in self.coeffs)

    @_coerced
    def __sub__(self, other):
        return self + (-other)

    @_coerced
    def __rsub__(self, other):
        return (-self) + other

    @_coerced
    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return TPolynomial()
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    out[i + j] += a * b
        return TPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative power of a polynomial")
        out = self if n else TPolynomial((1,))
        for bit in bin(n)[3:]:  # the bits of n after the leading 1: square, then multiply by self at a 1
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def exact_div(self, divisor: "TPolynomial") -> "TPolynomial":
        """Quotient self / divisor, valid only when the division is exact in Z[t]."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        lead = divisor.coeffs[-1]
        dd = divisor.degree()
        out = [0] * max(len(rem) - dd, 0)
        for k in range(len(rem) - dd - 1, -1, -1):
            c = rem[k + dd]
            if c == 0:
                continue
            q, r = divmod(c, lead)
            if r != 0:
                raise DomainError("inexact polynomial division")
            out[k] = q
            for j, b in enumerate(divisor.coeffs):
                rem[k + j] -= q * b
        if any(rem):
            raise DomainError("inexact polynomial division")
        return TPolynomial(out)

    def evaluate(self, x):
        """Horner evaluation at an int, Fraction, or FpScalar."""
        acc = x - x  # zero of the right kind
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if type(other) is int:  # a bool is no polynomial
            other = TPolynomial((other,))
        if not isinstance(other, TPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if len(self.coeffs) <= 1:  # a constant, zero included, equals its int and hashes as it
            return hash(sum(self.coeffs))
        return hash(self.coeffs)

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"TPolynomial({list(self.coeffs)!r})"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree(), -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "t" if k == 1 else f"t^{k}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    @classmethod
    def parse(cls, text: str) -> "TPolynomial":
        """Inverse of str(): accepts e.g. "t^4 - t^2", "2t + 1", "-t", "0"."""
        s = text.replace(" ", "")
        if not s:
            raise DomainError("empty polynomial string")
        chunks = re.split(r"(?=[+-])", s)
        coeffs: dict[int, int] = {}
        for chunk in chunks:
            if not chunk:
                continue
            sign = 1
            if chunk[0] in "+-":
                sign = -1 if chunk[0] == "-" else 1
                chunk = chunk[1:]
            m = _TERM_RE.match(chunk)
            if not m or not chunk:
                raise DomainError(f"cannot parse polynomial term {chunk!r}")
            num, exp = m.groups()
            if num is None and "t" not in chunk:
                raise DomainError(f"cannot parse polynomial term {chunk!r}")
            c = int(num) if num is not None else 1
            if "t" in chunk:
                k = int(exp) if exp is not None else 1
            else:
                k = 0
            check_cap("term degree {}", k, PARSE_DEGREE_CAP)
            coeffs[k] = coeffs.get(k, 0) + sign * c
        if not coeffs:
            return cls()
        out = [0] * (max(coeffs) + 1)
        for k, c in coeffs.items():
            out[k] = c
        return cls(out)


#: The generator t itself, as a polynomial.
T = TPolynomial((0, 1))


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
        raise DomainError(f"label k={k} outside [1, {p - 1}]")
    if power not in (1, 2):
        raise DomainError("power must be 1 or 2")
    if power == 1:
        k = min(k, p - k)
    check_cap("q-integer label {}", k, FUSION_ENTRY_CAP)
    return q_combination(p, ((k, 1),), power)


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------


def row_echelon_mod_p(matrix, p: int) -> np.ndarray:
    """Row echelon basis of the row space over F_p (nonzero rows only).

    Every entry is reduced mod p first, in its own integer dtype or as a
    Python int, and only the residues are narrowed to the narrowest dtype in
    which no product of two of them, at most (p-1)^2, wraps: int16 up to
    p = 181, int64 while (p-1)^2 < 2^63, Python ints (object) above that.
    """
    import numpy as np

    A = np.asarray(matrix)
    if A.ndim != 2:
        raise DomainError("expected a 2-d matrix")
    if A.dtype.kind in "iu" and p <= np.iinfo(A.dtype).max:
        A = A % p
    else:  # Python ints and any other entries, or p past the array's integer range
        A = A.astype(object) % p
    dtype = np.int16 if (p - 1) ** 2 < 2**15 else np.int64 if (p - 1) ** 2 < 2**63 else object
    A = A.astype(dtype, order="C", copy=False)
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:  # the row swapped down is zero in column c
            A[[r, piv]] = A[[piv, r]]
        inv = pow(int(A[r, c]), -1, p)
        A[r, c:] = (A[r, c:] * inv) % p
        if nz.size > 1:
            idx = r + nz[1:]
            A[idx, c:] = (A[idx, c:] - np.outer(A[idx, c], A[r, c:])) % p
        r += 1
    return A[:r]


def rank_mod_p(matrix, p: int) -> int:
    check_prime(p)
    return row_echelon_mod_p(matrix, p).shape[0]


def _as_matrix(matrix) -> list[list]:
    rows = [list(row) for row in matrix]
    if rows:
        w = len(rows[0])
        if any(len(row) != w for row in rows):
            raise DomainError("ragged matrix")
    return rows


def _divide_exactly(nums: list, d) -> list:
    """Each entry of nums divided by d, which divides every one of them."""
    if d == 1:
        return nums
    if isinstance(d, TPolynomial):
        return [x.exact_div(d) for x in nums]
    out = [divmod(x, d) for x in nums]
    if any(rem for _, rem in out):  # cannot happen: Bareiss divisions are exact
        raise RuntimeError("fraction-free elimination lost exactness")
    return [q for q, _ in out]


def bareiss(m: list[list]) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) elimination of an integer or Z[t] matrix, in place.

    At each pivot, the entries right of the pivot column in every row below
    it become (pivot * entry - column entry * pivot-row entry) / previous
    pivot; each division is exact, as every entry is then a minor of the
    input.  Returns the pivot columns and the sign of the row swaps.  The
    last pivot m[rank - 1][pivots[-1]], times that sign, is the determinant
    of a square matrix of full rank.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        top = m[r]
        pv = top[c]
        for row in m[r + 1:]:
            f = row[c]
            row[c + 1:] = _divide_exactly([pv * x - f * y for x, y in zip(row[c + 1:], top[c + 1:])], prev)
            row[c] -= f
        prev = pv
        pivots.append(c)
    return pivots, sign


def _integer_rows(rows: list[list]) -> tuple[list[list], int]:
    """Rows over Z or Z[t], and the product of the scales that cleared them of fractions."""
    flat = [x for row in rows for x in row]
    if any(isinstance(x, TPolynomial) for x in flat):
        if not all(isinstance(x, (TPolynomial, int)) for x in flat):
            raise DomainError("cannot mix polynomial entries with non-integer scalars")
        return [[x if isinstance(x, TPolynomial) else TPolynomial.constant(x) for x in row] for row in rows], 1
    if not all(isinstance(x, (int, Fraction)) for x in flat):
        raise DomainError(f"unsupported entry type {type(flat[0]).__name__}")
    cleared = []
    total = 1
    for row in rows:
        fracs = [Fraction(x) for x in row]
        scale = lcm(*(f.denominator for f in fracs))
        cleared.append([int(f * scale) for f in fracs])
        total *= scale
    return cleared, total


def exact_rank(matrix) -> int:
    """Rank of a matrix of exact scalars (ints, Fractions, or FpScalars).

    No floating point is involved: prime-field input reduces mod p, rational
    input is cleared to integers row by row and eliminated fraction-free.
    """
    rows = _as_matrix(matrix)
    if not rows or not rows[0]:
        return 0
    flat = [x for row in rows for x in row]
    if any(isinstance(x, FpScalar) for x in flat):
        ps = {x.p for x in flat if isinstance(x, FpScalar)}
        if len(ps) != 1:
            raise DomainError("mixed prime-field moduli in one matrix")
        if not all(isinstance(x, (FpScalar, int)) for x in flat):
            raise DomainError("cannot mix F_p scalars with non-integer entries")
        p = ps.pop()
        ints = [[x.value if isinstance(x, FpScalar) else x % p for x in row] for row in rows]
        return rank_mod_p(ints, p)
    if any(isinstance(x, TPolynomial) for x in flat):
        raise DomainError(f"unsupported entry type {type(flat[0]).__name__}")
    return len(bareiss(_integer_rows(rows)[0])[0])


def exact_det(matrix):
    """Determinant of a square matrix over Z, Q, or Z[t], by Bareiss elimination."""
    m = _as_matrix(matrix)
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise DomainError("determinant of a non-square matrix")
    m, scale = _integer_rows(m)
    pivots, sign = bareiss(m)
    if len(pivots) < n:
        return m[0][0] - m[0][0]  # zero of the right kind
    det = sign * m[n - 1][n - 1]
    return det if scale == 1 else Fraction(det, scale)
