"""Integer partitions, hook lengths, and box-constrained enumeration.

Dimensions of symmetric-group irreducibles come from the hook length
formula; dimensions of Schur modules S^lam(K^d) from the hook content
formula.  Enumeration inside a rows x cols box is the workhorse of the
tensor-power lower bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

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

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        out = [0] * self.parts[0]
        for part in self.parts:
            for j in range(part):
                out[j] += 1
        return Partition(tuple(out))

    def hook_lengths(self) -> list[list[int]]:
        conj = self.conjugate().parts
        return [
            [self.parts[i] - j + conj[j] - i - 1 for j in range(self.parts[i])]
            for i in range(len(self.parts))
        ]

    def __str__(self):
        return "(" + ",".join(map(str, self.parts)) + ")"


def enumerate_in_box(n: int, rows: int, cols: int) -> list[Partition]:
    """All partitions of n with at most `rows` parts, each at most `cols`.

    Returned in ascending lexicographic order of the part tuples, each
    partition exactly once.
    """
    if n < 0 or rows < 0 or cols < 0:
        raise DomainError("box parameters must be nonnegative")
    out: list[Partition] = []

    def descend(remaining: int, max_rows: int, max_part: int, prefix: list[int]):
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
            return
        if max_rows == 0 or max_part == 0:
            return
        # smallest admissible first part keeps the output lexicographic
        lo = -(-remaining // max_rows)  # ceil
        for a in range(lo, min(max_part, remaining) + 1):
            prefix.append(a)
            descend(remaining - a, max_rows - 1, a, prefix)
            prefix.pop()

    descend(n, rows, cols, [])
    return out


def dim_sym_irrep(lam: Partition) -> int:
    """Dimension of the symmetric-group irreducible attached to lam (hook lengths)."""
    if not lam.parts:
        raise DomainError("empty partition has no symmetric-group label")
    num = factorial(lam.size)
    for row in lam.hook_lengths():
        for h in row:
            num, rem = divmod(num, h)
            if rem != 0:
                raise RuntimeError(f"the hook lengths of {lam} do not divide {lam.size}!")
    return num


def dim_schur(lam: Partition, d: int) -> int:
    """Dimension of the Schur module S^lam(K^d) by the hook content formula.

    Zero exactly when lam has more than d rows.  The numerator is
    accumulated as one big integer and divided once at the end, so no
    intermediate value is ever non-integral.
    """
    if len(lam.parts) > d:
        return 0
    num = 1
    hooks = 1
    hook_rows = lam.hook_lengths()
    for i, part in enumerate(lam.parts):
        for j in range(part):
            num *= d + j - i
            hooks *= hook_rows[i][j]
    q, rem = divmod(num, hooks)
    if rem != 0:
        raise RuntimeError(f"the hook product of {lam} does not divide its content product at d={d}")
    return q
