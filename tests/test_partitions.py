"""Partition enumeration, dimension formula and box walk tests.

Oracles: a standalone partition counter for cardinalities, a
semistandard-tableau counter for Schur module dimensions (weight
enumeration, no hook lengths involved), and the hook length and hook
content formulas for the Frobenius-formula kernel and the box square sum.
The box walk is compared with the one-partition-at-a-time route,
`box_partitions` with `dimensions`; the two routes of the box square sum,
the walk of the box and n! less its two tails, are each checked against
the hook formula, and the counts that choose between them against the
enumeration.  The growth bounds are compared with the
two-pass route over the hook formulas and with the lexicographic route
over `dimensions` that they replaced.  The alcove square sum is checked
against the box square sum where the alcove is a box, against closed
walks on a path at two rows, and against level-rank duality.
"""

import math
from collections import Counter
from math import factorial, prod

import pytest

from semisimple import partitions
from semisimple.growth import improved_bound, plancherel_square_sum
from semisimple.partitions import alcove_square_sum, box_partitions, box_square_sum, box_walk, dimensions
from semisimple.scalars import DomainError


def count_partitions(n, max_part=None):
    """Independent recursive partition counter."""
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    if max_part == 0:
        return 0
    return sum(count_partitions(n - k, min(k, n - k)) for k in range(1, max_part + 1))


def count_ssyt(shape, d):
    """Semistandard tableaux of the given shape with entries in 1..d.

    Brute-force backtracking cell by cell: rows weakly increase, columns
    strictly increase.  This is the weight-enumeration dimension of the
    Schur module.
    """
    cells = [(i, j) for i, part in enumerate(shape) for j in range(part)]

    def fill(idx, values):
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, values[(i, j - 1)])
        if i > 0:
            lo = max(lo, values[(i - 1, j)] + 1)
        total = 0
        for v in range(lo, d + 1):
            values[(i, j)] = v
            total += fill(idx + 1, values)
        values.pop((i, j), None)
        return total

    return fill(0, {})


def conjugate(parts):
    """The column lengths of a partition."""
    return tuple(sum(1 for x in parts if x > j) for j in range(parts[0] if parts else 0))


def hook_lengths(lam):
    """Hook length of every cell (i, j) of the part tuple lam, row by row."""
    conj = conjugate(lam)
    return [[lam[i] - j + conj[j] - i - 1 for j in range(lam[i])] for i in range(len(lam))]


def hook_dim(lam):
    """f_lam = n! / (product of the hook lengths)."""
    num = factorial(sum(lam))
    for row in hook_lengths(lam):
        for h in row:
            num, rem = divmod(num, h)
            assert rem == 0
    return num


def hook_content_dim(lam, d):
    """dim S^lam(K^d) = product of (d + j - i) / product of the hook lengths."""
    if len(lam) > d:
        return 0
    num, hooks = 1, 1
    for i, row in enumerate(hook_lengths(lam)):
        for j, h in enumerate(row):
            num *= d + j - i
            hooks *= h
    q, rem = divmod(num, hooks)
    assert rem == 0
    return q


def two_pass_improved(p, d):
    """improved_bound's exact fields as it computed them before: the hook
    formulas over the row-constrained partitions, then over the box again."""
    best = best_lam = None
    row_sum = 0
    for lam in box_partitions(p - 1, d, p - 1):
        dim_s = hook_content_dim(lam, d)
        row_sum += hook_dim(lam)
        if best is None or dim_s > best:
            best, best_lam = dim_s, lam
    box_sum = sum(hook_dim(lam) for lam in box_partitions(p - 1, d, p - d))
    return best, best_lam, row_sum, box_sum


def lexicographic_improved(p, d):
    """improved_bound's exact fields by `dimensions`, one partition at a
    time in ascending lexicographic order, keeping the first largest Schur
    dimension."""
    best, best_lam, row_sum, box_sum = 0, (), 0, 0
    for lam in box_partitions(p - 1, d, p - 1):
        f, dim_s = dimensions(lam, d)
        row_sum += f
        box_sum += f if lam[0] <= p - d else 0
        if dim_s > best:
            best, best_lam = dim_s, lam
    return best, best_lam, row_sum, box_sum


def test_conjugate_involution():
    for n in range(9):
        for lam in box_partitions(n, n, n):
            assert conjugate(conjugate(lam)) == lam


def test_enumerate_in_box_examples():
    assert list(box_partitions(2, 1, 2)) == [(2,)]
    assert list(box_partitions(4, 2, 2)) == [(2, 2)]
    assert list(box_partitions(4, 2, 3)) == [(2, 2), (3, 1)]


def test_enumerate_in_box_is_lexicographic_and_unique():
    for n in range(1, 10):
        out = list(box_partitions(n, n, n))
        assert out == sorted(out)
        assert len(out) == len(set(out))


def test_enumerate_counts_match_partition_function():
    for n in range(21):
        assert len(list(box_partitions(n, n, n))) == count_partitions(n)


def test_enumerate_box_constraints_hold():
    for n in range(1, 11):
        for rows in range(5):
            for cols in range(5):
                for lam in box_partitions(n, rows, cols):
                    assert sum(lam) == n
                    assert len(lam) <= rows
                    assert all(part <= cols for part in lam)
                    assert all(x >= y >= 1 for x, y in zip(lam, lam[1:] + (1,)))


def test_dim_sym_irrep_examples():
    assert dimensions((6,))[0] == 1
    assert dimensions((2, 1))[0] == 2  # hooks 3, 1, 1
    assert box_square_sum(4, 4, 4) == 24


def test_dim_sym_irrep_sum_of_squares():
    for n in range(1, 13):
        total = sum(dimensions(lam)[0] ** 2 for lam in box_partitions(n, n, n))
        assert total == factorial(n)


def test_dim_schur_examples():
    for d in range(1, 6):
        assert dimensions((1,), d) == (1, d)
    assert dimensions((1, 1, 1), 2) == (1, 0)
    assert dimensions((2, 1), 3) == (2, 8)


def test_dim_schur_vs_tableau_oracle():
    for n in range(1, 7):
        for d in range(1, 5):
            for lam in box_partitions(n, n, n):
                assert dimensions(lam, d)[1] == count_ssyt(lam, d)


def test_weighted_dimension_identity():
    # sum over partitions with at most d rows of dim(irrep) * dim(Schur) = d^N
    for d in range(1, 5):
        for n in range(1, 11):
            total = sum(prod(dimensions(lam, d)) for lam in box_partitions(n, d, n))
            assert total == d**n


def test_kernel_matches_the_hook_formulas():
    # every partition of n <= 20: f_lam, and dim S^lam(K^d) for every d <= 8
    for n in range(21):
        for lam in box_partitions(n, n, n):
            f = hook_dim(lam)
            for d in range(9):
                assert dimensions(lam, d) == (f, hook_content_dim(lam, d))


def test_kernel_refuses_a_non_integral_quotient(monkeypatch):
    assert dimensions((2, 2), 5) == (2, 50)
    # the hooks are 3! 2! and the content factors perm(6, 2) perm(5, 2)
    monkeypatch.setattr(partitions, "factorial", lambda m: 7 if m == 3 else math.factorial(m))  # 3! read as 7
    with pytest.raises(RuntimeError, match="Frobenius"):
        dimensions((2, 2), 5)
    monkeypatch.setattr(partitions, "factorial", math.factorial)
    monkeypatch.setattr(partitions, "perm", lambda m, k: 31 if (m, k) == (6, 2) else math.perm(m, k))  # 6!/4! read as 31
    with pytest.raises(RuntimeError, match="content"):
        dimensions((2, 2), 5)


def test_box_square_sum_matches_the_hook_formula():
    # every box of at most 7 x 7, empty ones included; the empty partition of 0 fits every box
    for n in range(13):
        everything = list(box_partitions(n, n, n))
        for rows in range(8):
            for cols in range(8):
                inside = [lam for lam in everything if len(lam) <= rows and all(x <= cols for x in lam)]
                assert box_square_sum(n, rows, cols) == sum(hook_dim(lam) ** 2 for lam in inside)
    assert box_square_sum(0, 0, 0) == 1 and box_square_sum(5, 0, 5) == box_square_sum(5, 5, 0) == 0


def test_box_partitions_are_the_box_filter_of_all_partitions():
    # the unconstrained enumeration is checked against the partition counter above
    for n in range(11):
        everything = list(box_partitions(n, n, n))
        for rows in range(6):
            for cols in range(6):
                inside = [lam for lam in everything if len(lam) <= rows and all(x <= cols for x in lam)]
                assert list(box_partitions(n, rows, cols)) == inside
    with pytest.raises(DomainError):
        box_partitions(3, -1, 2)


def test_bounds_match_the_two_pass_hook_route():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        for d in range(1, p):
            imp = improved_bound(p, d)
            assert (imp.max_schur_dim, imp.max_partition, imp.row_sum, imp.box_sum) == two_pass_improved(p, d)
            assert plancherel_square_sum(p, d) == sum(
                hook_dim(lam) ** 2 for lam in box_partitions(p - 1, d, p - d)
            )


def test_walk_matches_the_one_partition_route():
    # every box with n <= 14 and rows, cols in [0, n + 1], empty ones included
    for n in range(15):
        for rows in range(n + 2):
            for cols in range(n + 2):
                want = Counter((lam, *dimensions(lam, rows)) for lam in box_partitions(n, rows, cols))
                assert Counter(box_walk(n, rows, cols, schur=True)) == want
                assert Counter(box_walk(n, rows, cols)) == Counter((lam, f, None) for lam, f, _ in want)
    assert list(box_walk(0, 0, 0, schur=True)) == [((), 1, 1)]
    assert list(box_walk(0, 3, 0)) == [((), 1, None)]
    assert list(box_walk(5, 0, 5)) == list(box_walk(5, 5, 0)) == list(box_walk(5, 2, 2)) == []
    for args in ((-1, 2, 2), (3, -1, 2), (3, 2, -1)):
        with pytest.raises(DomainError):
            box_walk(*args)  # refused on the call, before any partition is asked for


def test_walk_refuses_a_non_integral_quotient(monkeypatch):
    # (2, 2) in the 3 x 2 box: l = (3, 2), Delta = 1, content factors perm(4, 1) perm(3, 1), padding 1! 2!
    assert list(box_walk(4, 3, 2, schur=True))[0] == ((2, 2), 2, 6)
    monkeypatch.setattr(partitions, "factorial", lambda m: 7 if m == 3 else math.factorial(m))  # 3! read as 7
    with pytest.raises(RuntimeError, match="Frobenius"):
        list(box_walk(4, 3, 2))
    monkeypatch.setattr(partitions, "factorial", math.factorial)
    monkeypatch.setattr(partitions, "perm", lambda m, k: 5 if (m, k) == (4, 1) else math.perm(m, k))  # 4 read as 5
    with pytest.raises(RuntimeError, match="Frobenius"):
        list(box_walk(4, 3, 2, schur=True))


def test_tail_and_walk_routes_match_the_hook_formula():
    # each route called directly, for every n <= 16 and rows, cols in [0, n + 1]
    # with n <= rows + cols, where box_square_sum chooses between them
    for n in range(1, 17):
        hooks = {lam: hook_dim(lam) ** 2 for lam in box_partitions(n, n, n)}
        for rows in range(n + 2):
            for cols in range(n + 2):
                assert box_square_sum(n, rows, cols) == box_square_sum(n, cols, rows)
                if n > rows + cols:
                    continue
                want = sum(h for lam, h in hooks.items() if len(lam) <= rows and lam[0] <= cols)
                assert partitions._tail_square_sum(n, rows, cols) == want
                assert sum(f * f for _, f, _ in partitions._walk(n, rows, cols, False)) == want


def test_side_counts_match_the_enumeration():
    # (inside, min(outside, inside)) for rows <= cols and rows < n <= rows + cols
    for n in range(1, 21):
        total = len(list(box_partitions(n, n, n)))
        for rows in range(n):
            for cols in range(max(rows, n - rows), n + 2):
                inside = len(list(box_partitions(n, rows, cols)))
                assert partitions._side_counts(n, rows, cols) == (inside, min(total - inside, inside))


def test_tail_walk_refuses_a_non_integral_quotient(monkeypatch):
    # (2, 2) has l = (3, 2) and lies in the tail lam_1 > 1 of the 1 x 3 box, whose
    # tails sum to 23 and 1
    assert partitions._tail_square_sum(4, 1, 3) == 24 - 23 - 1 == 0
    monkeypatch.setattr(partitions, "factorial", lambda m: 7 if m == 3 else math.factorial(m))  # 3! read as 7
    with pytest.raises(RuntimeError, match="Frobenius"):
        partitions._tail_square_sum(4, 1, 3)


def test_box_square_sum_walks_the_smaller_side(monkeypatch):
    # partitions visited, counted without a clock: the balanced Plancherel box at
    # p = 47 holds 97,544 and its tails 8,014; the thinnest non-trivial one holds 23
    walk, visited = partitions._walk, []

    def counted(*args):
        for item in walk(*args):
            visited.append(item)
            yield item

    monkeypatch.setattr(partitions, "_walk", counted)
    for box, most in (((46, 23, 24), 10**4), ((46, 24, 23), 10**4), ((46, 2, 45), 100), ((46, 45, 2), 100)):
        visited.clear()
        box_square_sum(*box)
        assert len(visited) <= most, box


def test_box_square_sum_of_a_full_box_is_n_factorial():
    # Sum f_lam^2 over all partitions of n is n!; the sum over a box one row or column short is less
    for n in (1, 20, 40):
        assert box_square_sum(n, n, n) == box_square_sum(n, n + 3, 2 * n) == factorial(n)
    assert box_square_sum(20, 19, 20) == box_square_sum(20, 20, 19) == factorial(20) - 1


def test_improved_bound_matches_the_lexicographic_route():
    # the walk is not lexicographic, and two partitions reach M at (5, 3), (7, 5) and (13, 8)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for d in range(1, p):
            imp = improved_bound(p, d)
            assert (imp.max_schur_dim, imp.max_partition, imp.row_sum, imp.box_sum) == lexicographic_improved(p, d)
    assert [improved_bound(p, d).max_partition for p, d in ((5, 3), (7, 5), (13, 8))] == [
        (3, 1), (4, 2), (6, 3, 2, 1)]


def path_closed_walks(vertices, length):
    """Closed walks of the given length from an end of the path on `vertices` vertices."""
    counts = [1] + [0] * (vertices - 1)
    for _ in range(length):
        padded = [0, *counts, 0]
        counts = [padded[v] + padded[v + 2] for v in range(vertices)]
    return counts[0]


def test_alcove_square_sum_is_the_box_square_sum_below_rows_plus_level():
    # below p = rows + level no shape with `rows` rows reaches past the box,
    # so every tableau stays in the alcove; every n, empty alcoves included
    for p in (13, 17):
        for n in range(p + 1):
            for d in range(p):
                assert alcove_square_sum(d, n, p - n) == box_square_sum(d, n, p - n)


def test_alcove_square_sum_of_two_rows_counts_closed_walks_on_a_path():
    # at two rows a shape is its size and lam_1 - lam_2 in [0, p - 2], which
    # each box moves by one: sum m_lam^2 counts the closed walks of length 2d
    for p in (5, 7, 11, 13):
        for d in range(20):
            assert alcove_square_sum(d, 2, p - 2) == path_closed_walks(p - 1, 2 * d)


def test_alcove_square_sum_is_level_rank_symmetric():
    # GL_n at level p - n against GL_(p-n) at level n, past p too
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(p + 1):
            for d in range(14):
                assert alcove_square_sum(d, n, p - n) == alcove_square_sum(d, p - n, n)
    assert alcove_square_sum(0, 0, 0) == 1 and alcove_square_sum(4, 0, 5) == alcove_square_sum(4, 5, 0) == 0
    for args in ((-1, 2, 2), (3, -1, 2), (3, 2, -1)):
        with pytest.raises(DomainError):
            alcove_square_sum(*args)
