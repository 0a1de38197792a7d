"""Integer partitions as part tuples: box enumeration, the dimension
formulas, and one walk over a box that carries them.

A partition is a weakly decreasing tuple of positive parts.  For a
partition lam of n with l parts put l_i = lam_i + l - 1 - i (i = 0 ..
l-1), the first-column hook lengths.  The Frobenius formula gives the
dimension of the symmetric-group irreducible,

    f_lam = n! prod_{i<j} (l_i - l_j) / prod_i l_i!,

and the content product turns it into the dimension of the Schur module,

    dim S^lam(K^d) = f_lam prod_i (d - i + lam_i - 1)! / (d - i - 1)! / n!,

zero when lam has more than d rows.  A quotient that is not integral
raises RuntimeError.  The hook length and hook content formulas are the
test oracles.  `box_partitions` and `dimensions` take one partition at a
time: they are the independent route the walk is tested against, and the
selftest's weighted-dimension identity reads them.

`box_walk` builds every partition in a rows x cols box from its bottom
row up, one number of rows l at a time.  The row with b rows below it
and part a has first-column hook length a + b, whatever rows come above
it, so the Vandermonde product and prod l_i! are carried down the walk: a
new row multiplies in its differences with the b hook lengths below it
and its own factorial, and a finished partition costs the one division
f_lam = n! Delta / prod l_i!, against O(l^2) products and l factorials
when each partition is taken alone.  Padded with z = rows - l zero rows,
lam has hook lengths l_i + z and z-1 .. 0, so

    dim S^lam(K^rows) = Delta prod_i perm(l_i + z, z) / prod_{j=z}^{rows-1} j!,

and the walk carries the content product prod_i perm(l_i + z, z) as
well.

`box_square_sum` is the one sum of f_lam^2 over a box: the Brauer ranks,
the Schur-Weyl hom dimension and the Plancherel bound all call it, and
the improved growth bound, which needs the largest Schur dimension over
the whole box, walks the box itself.  It takes one of two routes.

- The walk.  f_lam = f_lam', so the rows x cols box and the cols x rows
  box have the same sum, and the walk takes the smaller side as its row
  bound: fewer rows, fewer nodes.
- The tails.  When n <= rows + cols, no partition of n has both lam_1 >
  cols and more than rows rows, because lam_1 + l(lam) - 1 <= n.  By RSK
  (Schensted 1961) these are the permutations of n with an increasing
  subsequence longer than cols and those with a decreasing one longer
  than rows, two disjoint sets, so the box sum is n! - T(cols) - T(rows),
  where T(k) sums f_lam^2 over lam_1 > k (and, by conjugation, over
  l(lam) > k).  The walk reads T(k) with one more bound: the top row is
  at least k + 1, so a part with left - 1 rows above it, the top among
  them, is at most (remaining - k - 1) // (left - 1).

The route with fewer partitions runs.  The box holds as many partitions
as its conjugate: those with parts at most rows, less those with more
than cols rows (the sum of p(m) over m < n - cols); the tails hold the
rest of p(n).  The count adds one
part size at a time and stops once the tails are shown to be no smaller,
so a thin box, whose walk is cheap, costs a few passes over n + 1 numbers.

The second sum, `alcove_square_sum`, counts tableaux instead of
partitions: m_lam is the number of standard tableaux of shape lam whose
every prefix shape stays in the alcove lam_1 - lam_rows <= level (lam
padded with zeros to `rows` parts), grown one box per step over a dict of
shapes.  It is the Brauer rank at t in F_p with p <= d (see `brauer`).
When n < rows + level every such alcove shape of size n lies in the
rows x level box, every m_lam = f_lam, and the two sums agree; that is
its oracle, with elimination of the Gram matrix.
"""

from __future__ import annotations

from itertools import combinations, starmap
from math import comb, factorial, perm, prod
from operator import sub

from .scalars import DomainError


def _check_box(n: int, rows: int, cols: int):
    if n < 0 or rows < 0 or cols < 0:
        raise DomainError("box parameters must be nonnegative")


def box_partitions(n: int, rows: int, cols: int):
    """Part tuples of the partitions of n with at most `rows` parts, each
    at most `cols`, in ascending lexicographic order, each exactly once."""
    _check_box(n, rows, cols)
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


def box_walk(n: int, rows: int, cols: int, schur: bool = False):
    """(parts, f_lam, dim S^lam(K^rows)) for each partition lam of n in the
    rows x cols box, exactly once, by increasing number of rows but not
    lexicographically within one.  The Schur dimension is None unless
    `schur`."""
    _check_box(n, rows, cols)
    return _walk(n, rows, cols, schur) if n else iter([((), 1, 1 if schur else None)])


def _walk(n: int, rows: int, cols: int, schur: bool, least_top: int = 1):
    """box_walk for n >= 1, restricted to the partitions whose first part
    is at least `least_top`."""
    if n > rows * cols:  # no partition fits, and so cols >= 1 below
        return
    if least_top <= n <= cols:  # one row: f = 1, and S^(n) is Sym^n
        yield (n,), 1, comb(n + rows - 1, n) if schur else None
    n_fact = factorial(n)
    for ell in range(max(2, -(-n // cols)), min(rows, n) + 1):  # ell rows hold at most ell * cols
        z = rows - ell
        padding = prod(map(factorial, range(z, rows))) if schur else 1
        # a node: the sum left to place, the least next part, the parts top
        # first, their l_i bottom first, the Vandermonde, prod l_i! and the
        # content product of those rows
        stack = [(n, 1, (), (), 1, 1, 1)]
        while stack:
            remaining, low, parts, firsts, vand, hooks, contents = stack.pop()
            b = len(firsts)
            left = ell - b  # at least 2 rows to place, and every branch completes
            # the rows above a are at least a and the top at least least_top (so
            # no ell holds a partition past n - least_top + 1 rows); remaining <=
            # left * cols at every node, so a <= cols follows
            high = min(remaining // left, (remaining - least_top) // (left - 1))
            for a in range(max(low, remaining - (left - 1) * cols), high + 1):
                x = a + b
                v = vand * prod(map(x.__sub__, firsts))
                hs = hooks * factorial(x)
                c = contents * perm(x + z, z) if schur else 1
                if left > 2:
                    stack.append((remaining - a, a, (a,) + parts, firsts + (x,), v, hs, c))
                    continue
                top = remaining - a  # the top row is forced
                t = top + b + 1
                v *= prod(map(t.__sub__, firsts)) * (t - x)
                f, rem = divmod(n_fact * v, hs * factorial(t))
                dim_s = None
                if schur:
                    dim_s, rem_s = divmod(v * c * perm(t + z, z), padding)
                    rem = rem or rem_s
                if rem:
                    raise RuntimeError(f"the Frobenius quotient of {(top, a) + parts} is not integral")
                yield (top, a) + parts, f, dim_s


def box_square_sum(n: int, rows: int, cols: int) -> int:
    """Sum of f_lam^2 over the partitions lam of n in the rows x cols box;
    n! when the box holds every partition of n.  Walks the box or, when
    n <= rows + cols, the two tails outside it, whichever holds fewer
    partitions."""
    _check_box(n, rows, cols)
    rows, cols = sorted((rows, cols))  # f_lam = f_lam', and fewer rows walk faster
    if rows >= n:
        return factorial(n)
    if n <= rows + cols:
        inside, outside = _side_counts(n, rows, cols)
        if outside < inside:
            return _tail_square_sum(n, rows, cols)
    return sum(f * f for _, f, _ in _walk(n, rows, cols, False))


def _tail_square_sum(n: int, rows: int, cols: int) -> int:
    """n! less the sums of f_lam^2 over lam_1 > rows and over lam_1 > cols:
    the rows x cols box sum when n <= rows + cols."""
    return factorial(n) - sum(f * f for k in (rows, cols) for _, f, _ in _walk(n, n, n, False, k + 1))


def _side_counts(n: int, rows: int, cols: int) -> tuple[int, int]:
    """(inside, min(outside, inside)): the numbers of partitions of n in the
    rows x cols box and outside it, for rows <= cols and rows < n <= rows +
    cols.  After part j, counts[m] is the number of partitions of m into
    parts at most j; the count stops at the first j that shows the outside
    no smaller, so a thin box costs a few passes."""
    counts, inside = [1] + [0] * n, 0
    for j in range(1, n + 1):
        for m in range(j, n + 1):
            counts[m] += counts[m - j]
        if j == rows:
            # the conjugate box: parts at most rows, less the partitions made of a
            # first column of length c > cols and any partition of the n - c < rows
            # boxes right of it
            inside = counts[n] - sum(counts[: max(n - cols, 0)])
        if j >= rows and counts[n] >= 2 * inside:
            break
    return inside, min(counts[n] - inside, inside)


def alcove_square_sum(n: int, rows: int, level: int) -> int:
    """Sum of m_lam^2 over the partitions lam of n, where m_lam counts the
    standard tableaux of shape lam whose every prefix shape has at most
    `rows` rows and, padded with zeros to `rows` parts, lam_1 - lam_rows
    <= level."""
    _check_box(n, rows, level)
    counts = {(0,) * rows: 1}
    for _ in range(n):
        grown: dict[tuple[int, ...], int] = {}
        for shape, m in counts.items():
            for i in range(rows):
                new = (*shape[:i], shape[i] + 1, *shape[i + 1:])
                if (i == 0 or shape[i] < shape[i - 1]) and new[0] - new[-1] <= level:
                    grown[new] = grown.get(new, 0) + m
        counts = grown
    return sum(m * m for m in counts.values())
