"""Integer partitions, their dimension formulas, and box-constrained enumeration.

For a partition lam of n with l parts put l_i = lam_i + l - 1 - i
(i = 0 .. l-1), the first-column hook lengths.  The Frobenius formula
gives the dimension of the symmetric-group irreducible,

    f_lam = n! prod_{i<j} (l_i - l_j) / prod_i l_i!,

and the content product turns it into the dimension of the Schur module,

    dim S^lam(K^d) = f_lam prod_i (d - i + lam_i - 1)! / (d - i - 1)! / n!,

zero when lam has more than d rows.  Both come from one factorial table,
and a quotient that is not integral raises RuntimeError.  The hook length
and hook content formulas are the test oracles.  Enumeration inside a
rows x cols box is one recursive generator of part tuples; the tensor-power
lower bounds consume it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations, starmap
from math import prod
from operator import mul, sub

from .scalars import DomainError


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(x) for x in self.parts)
        object.__setattr__(self, "parts", parts)
        if any(x < 1 for x in parts):
            raise DomainError("partition parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise DomainError("partition parts must be weakly decreasing")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __str__(self):
        return "(" + ",".join(map(str, self.parts)) + ")"


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


def enumerate_in_box(n: int, rows: int, cols: int) -> list[Partition]:
    """The partitions of box_partitions(n, rows, cols), in its order."""
    return [Partition(parts) for parts in box_partitions(n, rows, cols)]


@lru_cache(maxsize=32)
def factorial_table(m: int) -> tuple[int, ...]:
    """0!, 1!, .., m!"""
    return tuple(accumulate(range(1, m + 1), mul, initial=1))


def dimensions(parts: tuple[int, ...], d: int = 0) -> tuple[int, int]:
    """(f_lam, dim S^lam(K^d)) of the part tuple lam by the Frobenius formula.

    The Schur dimension is 0 when lam has more than d rows, so the default
    d = 0 costs nothing beyond f_lam.
    """
    n, ell = sum(parts), len(parts)
    fact = factorial_table(n if ell > d else n + d - 1)
    firsts = [x - j for j, x in enumerate(parts, 1 - ell)]  # the l_i
    vandermonde = prod(starmap(sub, combinations(firsts, 2)))
    hooks = prod(map(fact.__getitem__, firsts))
    f, rem = divmod(fact[n] * vandermonde, hooks)
    if rem:
        raise RuntimeError(f"the Frobenius quotient of {parts} is not integral")
    if ell > d:
        return f, 0
    contents = prod([fact[d - 1 - i + x] // fact[d - 1 - i] for i, x in enumerate(parts)])
    schur, rem = divmod(vandermonde * contents, hooks)
    if rem:
        raise RuntimeError(f"the content product of {parts} at d={d} is not integral")
    return f, schur


def dim_sym_irrep(lam: Partition) -> int:
    """Dimension of the symmetric-group irreducible attached to lam."""
    if not lam.parts:
        raise DomainError("empty partition has no symmetric-group label")
    return dimensions(lam.parts)[0]


def dim_schur(lam: Partition, d: int) -> int:
    """Dimension of the Schur module S^lam(K^d); zero exactly when lam has more than d rows."""
    if len(lam.parts) > d:
        return 0
    return dimensions(lam.parts, d)[1]
