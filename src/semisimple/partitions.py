"""Integer partitions as part tuples: box enumeration, the dimension
formulas, and the square sum over a box.

A partition is a weakly decreasing tuple of positive parts.  For a
partition lam of n with l parts put l_i = lam_i + l - 1 - i (i = 0 ..
l-1), the first-column hook lengths.  The Frobenius formula gives the
dimension of the symmetric-group irreducible,

    f_lam = n! prod_{i<j} (l_i - l_j) / prod_i l_i!,

and the content product turns it into the dimension of the Schur module,

    dim S^lam(K^d) = f_lam prod_i (d - i + lam_i - 1)! / (d - i - 1)! / n!,

zero when lam has more than d rows.  A quotient that is not integral
raises RuntimeError.  The hook length and hook content formulas are the
test oracles.  Enumeration inside a rows x cols box is one recursive
generator of part tuples; the growth bounds consume it directly, and
`box_square_sum` is the one sum of f_lam^2 over a box, which the Brauer
ranks, the Schur-Weyl hom dimension and the Plancherel bound all read.
"""

from __future__ import annotations

from itertools import combinations, starmap
from math import factorial, perm, prod
from operator import sub

from .scalars import DomainError


def box_partitions(n: int, rows: int, cols: int):
    """Part tuples of the partitions of n with at most `rows` parts, each
    at most `cols`, in ascending lexicographic order, each exactly once."""
    if n < 0 or rows < 0 or cols < 0:
        raise DomainError("box parameters must be nonnegative")
    prefix: list[int] = []

    def descend(remaining: int, max_rows: int, max_part: int):
        if max_rows == 0 or max_part == 0:
            return
        # smallest admissible first part keeps the output lexicographic
        for a in range(-(-remaining // max_rows), min(max_part, remaining) + 1):
            if a == remaining:
                yield (*prefix, a)
            else:
                prefix.append(a)
                yield from descend(remaining - a, max_rows - 1, a)
                prefix.pop()

    return descend(n, rows, cols) if n else iter([()])


def dimensions(parts: tuple[int, ...], d: int = 0) -> tuple[int, int]:
    """(f_lam, dim S^lam(K^d)) of the part tuple lam by the Frobenius formula.

    The Schur dimension is 0 when lam has more than d rows, so the default
    d = 0 costs nothing beyond f_lam.
    """
    n, ell = sum(parts), len(parts)
    firsts = [x - j for j, x in enumerate(parts, 1 - ell)]  # the l_i
    vandermonde = prod(starmap(sub, combinations(firsts, 2)))
    hooks = prod(map(factorial, firsts))
    f, rem = divmod(factorial(n) * vandermonde, hooks)
    if rem:
        raise RuntimeError(f"the Frobenius quotient of {parts} is not integral")
    if ell > d:
        return f, 0
    contents = prod([perm(d - 1 - i + x, x) for i, x in enumerate(parts)])
    schur, rem = divmod(vandermonde * contents, hooks)
    if rem:
        raise RuntimeError(f"the content product of {parts} at d={d} is not integral")
    return f, schur


def box_square_sum(n: int, rows: int, cols: int) -> int:
    """Sum of f_lam^2 over the partitions lam of n in the rows x cols box."""
    return sum(dimensions(parts)[0] ** 2 for parts in box_partitions(n, rows, cols))
