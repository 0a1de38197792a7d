"""Exact algebra beyond F_p: integer polynomials in the loop parameter t,
and exact rank and determinant routines that never touch floating point.

`brauer` takes its morphism coefficients and traces from here, the CLI
self-test its Gram ranks, and `modrep.jordan_type` its dense elimination
over F_p; no other request loads this module.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable

from .scalars import PARSE_DEGREE_CAP, DomainError, FpScalar, Record, check_cap, check_prime, coerced


_TERM_RE = re.compile(r"^(\d+)?(?:\*?t(?:\^(\d+))?)?$")


class TPolynomial(Record):
    """Integer-coefficient polynomial in the loop parameter t.

    Coefficients are indexed by degree; the top coefficient is nonzero
    unless the polynomial is zero (empty coefficient tuple).
    """

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

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

    @coerced
    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return TPolynomial(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __neg__(self):
        return TPolynomial(-c for c in self.coeffs)

    @coerced
    def __sub__(self, other):
        return self + (-other)

    @coerced
    def __rsub__(self, other):
        return (-self) + other

    @coerced
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

    @coerced
    def __eq__(self, other):
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
        return [[x if isinstance(x, TPolynomial) else TPolynomial((x,)) for x in row] for row in rows], 1
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
