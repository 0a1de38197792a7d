"""Jordan block decomposition tests.

Tensor pairs and, for p odd, exterior squares of single blocks come from
graded Smith forms; other exterior powers of single blocks from SL_2
tilting characters (blocks no larger than p), a count of orbits (blocks
of p-power size) or rank profiles over F_p, those of sums from their
direct-sum splitting, and symmetric squares as V (x) V minus Lambda^2 V.  The independent oracles
are the rank profile of the dense Kronecker product U_m (x) U_n and of the
symmetric induced matrix Sym^2 U (both built here, nowhere in the
library), the rank profile of the exterior induced matrix of a single
block and of the whole module, the classical Clebsch-Gordan closed form
(valid whenever m + n - 1 <= p), and plain dimension bookkeeping.
"""

import itertools
import random
from math import comb

import numpy as np
import pytest

from semisimple import modrep
from semisimple.cli import main
from semisimple.modrep import (
    JordanModule,
    _graded_smith,
    _induced_matrix,
    _orbit_block,
    _tensor_pair,
    _tilting_block,
    _wedge2_block,
    _wedge_type,
    ext2,
    exterior_power,
    jordan_tensor,
    jordan_type,
    non_negligible_part,
    sym2,
    to_verlinde,
)
from semisimple.exact import rank_mod_p
from semisimple.scalars import CapExceeded, DomainError, is_prime
from semisimple.verlinde import FusionElement


def J(p, *blocks, e=1):
    return JordanModule(p, e, blocks)


def unipotent_matrix(blocks: tuple[int, ...]) -> np.ndarray:
    """Block-diagonal unipotent with one Jordan block (eigenvalue 1) per size."""
    n = sum(blocks)
    U = np.eye(n, dtype=np.int64)
    offset = 0
    for b in blocks:
        for i in range(b - 1):
            U[offset + i, offset + i + 1] = 1
        offset += b
    return U


def kronecker_tensor_pair(p, m, n):
    """J_m (x) J_n from the rank profile of the dense mn-dimensional Kronecker product."""
    return jordan_type(np.kron(unipotent_matrix((m,)), unipotent_matrix((n,))) % p, p)


def symmetric_induced_matrix(blocks):
    """Sym^2 U on the monomials e_i e_j (i <= j): U e_i is e_i + e_(i-1), or
    e_i at the start of a block, so the image of e_i e_j is the sum of the
    at most 4 monomials got by lowering some of i, j by one."""
    d = sum(blocks)
    starts = set(itertools.accumulate(blocks[:-1], initial=0))
    basis = list(itertools.combinations_with_replacement(range(d), 2))
    index = {mono: n for n, mono in enumerate(basis)}
    M = np.zeros((len(basis), len(basis)), dtype=np.int64)
    for col, mono in enumerate(basis):
        for image in itertools.product(*((i,) if i in starts else (i, i - 1) for i in mono)):
            M[index[tuple(sorted(image))], col] += 1
    return M


def whole_module_type(p, blocks, k=None):
    """Lambda^k V (Sym^2 V when k is None) from the rank profile of one
    induced matrix on the whole module, with no direct-sum splitting and
    no use of V (x) V."""
    if k is None:
        return jordan_type(symmetric_induced_matrix(blocks) % p, p)
    basis = list(itertools.combinations(range(sum(blocks)), k))
    return jordan_type(_induced_matrix(blocks, basis) % p, p)


def clebsch_gordan(m, n):
    """Characteristic-zero tensor decomposition of two Jordan blocks."""
    return tuple(sorted((abs(m - n) + 2 * i - 1 for i in range(1, min(m, n) + 1)), reverse=True))


def random_module(rng, p, max_dim, e=1):
    blocks = []
    remaining = rng.randint(1, max_dim)
    cap = p**e
    while remaining > 0:
        b = rng.randint(1, min(cap, remaining))
        blocks.append(b)
        remaining -= b
    return JordanModule(p, e, tuple(blocks))


def int_det_mod_p(rows: list[list[int]], p: int) -> int:
    """Determinant of a small integer matrix, reduced mod p."""
    n = len(rows)
    m = [[x % p for x in row] for row in rows]
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        inv = pow(m[c][c], -1, p)
        det = det * m[c][c] % p
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv % p
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[c])]
    return det % p


def minor_wedge_matrix(blocks, k, p):
    """Lambda^k U mod p entry by entry: the k x k minors of U."""
    U = unipotent_matrix(blocks).tolist()
    subsets = list(itertools.combinations(range(sum(blocks)), k))
    return np.array(
        [[int_det_mod_p([[U[r][c] for c in cset] for r in rset], p) for cset in subsets] for rset in subsets],
        dtype=np.int64,
    ).reshape(len(subsets), len(subsets))


def expanded_sym2_matrix(blocks, p):
    """Sym^2 U mod p by expanding U e_i . U e_j over all pairs of matrix entries."""
    U = unipotent_matrix(blocks)
    d = U.shape[0]
    basis = [(i, j) for i in range(d) for j in range(i, d)]
    index = {pair: n for n, pair in enumerate(basis)}
    S = np.zeros((len(basis), len(basis)), dtype=np.int64)
    for col, (i, j) in enumerate(basis):
        for k in range(d):
            for l in range(d):
                if U[k, i] and U[l, j]:
                    S[index[(k, l) if k <= l else (l, k)], col] += U[k, i] * U[l, j]
    return S % p


def block_lists(max_dim, largest):
    """Every block multiset of total size 1..max_dim with blocks <= largest."""
    def parts(n, top):
        if n == 0:
            yield ()
        for first in range(min(n, top), 0, -1):
            for rest in parts(n - first, first):
                yield (first,) + rest

    return [b for n in range(1, max_dim + 1) for b in parts(n, largest)]


# -- construction ----------------------------------------------------------------


def test_module_validation():
    with pytest.raises(DomainError):
        JordanModule(5, 1, (6,))  # block exceeds group order
    with pytest.raises(DomainError):
        JordanModule(5, 0, (1,))
    with pytest.raises(DomainError):
        JordanModule(6, 1, (1,))
    with pytest.raises(CapExceeded):
        JordanModule(2, 7, (1,))


def test_module_refuses_an_exponent_that_is_not_an_int():
    # 1.5 made a float group order and the document {"e": 1.5}; True passed as 1
    for e in (1.5, 1.0, True, "1"):
        with pytest.raises(DomainError, match="^order exponent must be an integer$"):
            JordanModule(5, e, (3,))
    assert JordanModule(5, 2, (3,)).to_json() == {"p": 5, "e": 2, "blocks": [3]}


def test_a_raised_order_cap_travels_with_the_module():
    # a cap passed to one module bounds every module derived from it, and no other
    for v in (JordanModule(2, 7, (3,), cap=128), JordanModule(3, 4, (5,), cap=81)):
        derived = [jordan_tensor(v, v), ext2(v), non_negligible_part(v), ext2(jordan_tensor(v, v))]
        if v.p > 2:
            derived += [sym2(v), exterior_power(v, 0), exterior_power(v, 2)]
        assert all(w.cap == v.cap and (w.p, w.e) == (v.p, v.e) for w in derived)
        assert v == JordanModule(v.p, v.e, v.blocks, cap=v.p**v.e + 1)  # the cap is not part of the value
        with pytest.raises(CapExceeded):
            JordanModule(v.p, v.e, v.blocks)


def test_blocks_are_a_sorted_multiset():
    assert J(5, 1, 3, 1).blocks == (3, 1, 1)
    assert J(5, 2, 3) == J(5, 3, 2)


def test_unipotent_order_divides_group_order():
    import numpy as np

    for p, e in [(2, 3), (3, 2), (5, 1), (7, 1)]:
        order = p**e
        for blocks in [(order,), (order, 2), (3, 1)]:
            blocks = tuple(b for b in blocks if b <= order)
            U = unipotent_matrix(blocks)
            power = np.eye(U.shape[0], dtype=np.int64)
            for _ in range(order):
                power = (power @ U) % p
            assert (power == np.eye(U.shape[0], dtype=np.int64)).all()


def test_jordan_type_rejects_non_unipotent():
    import numpy as np

    with pytest.raises(DomainError):
        jordan_type(np.array([[2]]), 5)


def test_jordan_type_reads_off_the_unipotent():
    for p in (2, 3, 5, 7):
        for blocks in [(1,), (2, 1), (3, 3), (5, 2, 1) if p >= 5 else (2, 2, 1)]:
            blocks = tuple(b for b in blocks if b <= p)
            U = unipotent_matrix(blocks)
            assert jordan_type(U, p) == tuple(sorted(blocks, reverse=True))


@pytest.mark.parametrize("p", [2**27 - 39, 2**31 - 1])
def test_jordan_type_refuses_entries_too_large_for_exact_float_products(p):
    # N^2 = 0 mod p because y*z + w*v = 0 mod p, but the float64 product
    # rounds y*z + w*v (about p^2 > 2^53) and would report N^2 != 0, type (3, 1, 1)
    y, z, w = p - 2, p - 3, p - 5
    v = -y * z * pow(w, -1, p) % p
    N = np.zeros((5, 5), dtype=np.int64)
    N[0, 1], N[0, 2], N[0, 3], N[2, 4], N[3, 4] = 1, y, w, z, v
    square = [[sum(int(N[i, k]) * int(N[k, j]) for k in range(5)) % p for j in range(5)] for i in range(5)]
    ranks = [5, rank_mod_p(N.tolist(), p), rank_mod_p(square, p)]
    assert ranks == [5, 2, 0]  # exact profile: blocks (2, 2, 1)
    with pytest.raises(CapExceeded, match="2\\^53"):
        jordan_type(np.eye(5, dtype=np.int64) + N, p)
    # the bound is n*(p-1)*max(N): entries at most 2 stay exact far past p = 2^31
    assert jordan_type(unipotent_matrix((3, 2)), p) == (3, 2)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_jordan_type_of_a_random_conjugate_of_a_jordan_form(p):
    # below 2^24 the products are taken in float32: they must give the ranks of the exact type
    rng = random.Random(p)
    for _ in range(6):
        blocks = [rng.randint(1, 2 * p + 3) for _ in range(rng.randint(1, 6))]
        U = unipotent_matrix(tuple(blocks))
        n = len(U)
        for _ in range(4 * n):  # U -> E U E^-1 with E = I + c e_ij: a row added, then a column taken away
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if i != j:
                c = rng.randrange(1, p) if p > 2 else 1
                U[i] = (U[i] + c * U[j]) % p
                U[:, j] = (U[:, j] - c * U[:, i]) % p
        assert n * (p - 1) ** 2 < 2**24
        assert jordan_type(U, p) == tuple(sorted(blocks, reverse=True)), (p, blocks)


def test_jordan_type_takes_float64_products_just_past_float32s_bound():
    # N = u v^T with v.u = 16 p = 0 mod p, so N^2 = 0 and N has rank 1: type (2, 1^15).  The
    # bound n*(p-1)*max(N) is just past 2^24, and the inner sum 1015 + 16 * 1030^2 of the first
    # level is odd and above 2^24, so a float32 product would round it and report N^2 != 0
    p, n = 1031, 17
    u, v = np.array([16] + [1] * (n - 1)), np.array([1] + [p - 1] * (n - 1))
    N = np.outer(u, v) % p
    assert 2**24 < n * (p - 1) * int(N.max()) < 1.1 * 2**24
    total = int(N[0, 1]) + 16 * (p - 1) ** 2
    assert total % 2 == 1 and total > 2**24 and int(np.float32(total)) != total
    assert jordan_type(np.eye(n, dtype=np.int64) + N, p) == (2,) + (1,) * (n - 2)


# -- tensor ----------------------------------------------------------------------


def test_tensor_unit():
    for p in (3, 5, 7):
        for n in range(1, p + 1):
            assert jordan_tensor(J(p, 1), J(p, n)) == J(p, n)


def test_tensor_examples():
    assert jordan_tensor(J(5, 3), J(5, 3)) == J(5, 1, 3, 5)
    assert jordan_tensor(J(7, 2), J(7, 3)) == J(7, 2, 4)


def test_tensor_classical_range_matches_clebsch_gordan():
    for p in (5, 7, 11, 13):
        for m in range(1, p + 1):
            for n in range(1, p + 1):
                if m + n - 1 <= p:
                    expected = clebsch_gordan(m, n)
                    assert jordan_tensor(J(p, m), J(p, n)).blocks == expected


def test_tensor_pairs_match_the_kronecker_rank_profile():
    # every pair at every order p^e <= 16 (436 pairs), then a seeded sample
    # at the larger orders, kept to m*n <= 600 so the dense oracle stays cheap
    orders = [(p, e) for p in (2, 3, 5, 7, 11, 13) for e in (1, 2, 3, 4) if p**e <= 16]
    pairs = [(p, e, m, n) for p, e in orders for m in range(1, p**e + 1) for n in range(m, p**e + 1)]
    assert len(pairs) == 436
    rng = random.Random(43)
    for p, e in [(5, 2), (3, 3), (2, 5), (7, 2), (2, 6)]:
        small = [(m, n) for m in range(1, p**e + 1) for n in range(1, p**e + 1) if m * n <= 600]
        pairs += [(p, e, m, n) for m, n in rng.sample(small, 6)]
    for p, e, m, n in pairs:
        assert _tensor_pair(p, min(m, n), max(m, n)) == kronecker_tensor_pair(p, m, n), (p, e, m, n)


def test_tensor_pairs_share_one_cache_entry_in_either_order():
    _tensor_pair.cache_clear()
    assert jordan_tensor(J(7, 2), J(7, 5)) == jordan_tensor(J(7, 5), J(7, 2))
    assert jordan_tensor(J(7, 2, e=2), J(7, 5, e=2)).blocks == (6, 4)
    assert _tensor_pair.cache_info().currsize == 1


def test_tensor_dimension_bookkeeping():
    rng = random.Random(23)
    for p in (2, 3, 5, 7):
        for _ in range(10):
            a = random_module(rng, p, 8)
            b = random_module(rng, p, 8)
            assert jordan_tensor(a, b).dim == a.dim * b.dim


def test_tensor_commutative_and_associative():
    for p in (3, 5, 7):
        singles = [J(p, k) for k in range(1, p + 1)]
        for a in singles:
            for b in singles:
                assert jordan_tensor(a, b) == jordan_tensor(b, a)
        rng = random.Random(29)
        for _ in range(8):
            a, b, c = (rng.choice(singles) for _ in range(3))
            assert jordan_tensor(jordan_tensor(a, b), c) == jordan_tensor(a, jordan_tensor(b, c))


def test_tensor_requires_matching_group():
    with pytest.raises(DomainError):
        jordan_tensor(J(5, 2), J(7, 2))
    with pytest.raises(DomainError):
        jordan_tensor(J(2, 2, e=2), J(2, 2, e=3))


def test_two_group_squares():
    # order 4: J3 (x) J3 = J1 + J4 + J4 over F_2
    sq = jordan_tensor(J(2, 3, e=2), J(2, 3, e=2))
    assert sq == JordanModule(2, 2, (4, 4, 1))


# -- symmetric and exterior squares ------------------------------------------------


def test_square_examples():
    assert ext2(J(7, 2)) == J(7, 1)
    assert sym2(J(5, 3)) == J(5, 5, 1)
    assert ext2(J(5, 3)) == J(5, 3)


def test_square_dimensions():
    for p in (3, 5, 7):
        rng = random.Random(31)
        for _ in range(6):
            v = random_module(rng, p, 6)
            d = v.dim
            assert sym2(v).dim == d * (d + 1) // 2
            assert ext2(v).dim == d * (d - 1) // 2


def test_square_decomposition_recombines():
    # Sym^2 V + Lambda^2 V = V (x) V for p odd, each square from its own
    # whole-module induced matrix and the tensor square from tensor pairs
    rng = random.Random(37)
    for p in (3, 5, 7):
        for _ in range(12):
            v = random_module(rng, p, 6)
            combined = whole_module_type(p, v.blocks) + whole_module_type(p, v.blocks, 2)
            assert tuple(sorted(combined, reverse=True)) == jordan_tensor(v, v).blocks


def test_sym2_refused_at_two():
    with pytest.raises(DomainError):
        sym2(J(2, 2))
    # ext2 is characteristic-free
    assert ext2(J(2, 2)).dim == 1


def test_sym2_fails_loudly_when_lambda2_is_not_inside_the_tensor_square(monkeypatch):
    monkeypatch.setattr(modrep, "_wedge_type", lambda p, blocks, k: (4,))
    with pytest.raises(RuntimeError, match="not contained"):
        sym2(J(5, 3))


def test_ext2_of_a_line_is_zero():
    assert ext2(J(5, 1)).is_zero


def dense_wedge2(p, n):
    """Lambda^2 J_n from the rank profile of its C(n, 2)-dimensional induced matrix."""
    return jordan_type(_induced_matrix((n,), list(itertools.combinations(range(n), 2))) % p, p)


def test_exterior_squares_of_single_blocks_match_the_induced_matrix():
    # every block at p^e in {3, 5, 7, 9, 11, 13, 25, 27}, then the largest at 7^2
    cases = [(p, n) for p, q in [(3, 3), (5, 5), (7, 7), (3, 9), (11, 11), (13, 13), (5, 25), (3, 27)]
             for n in range(1, q + 1)]
    cases += [(7, n) for n in (24, 25, 48, 49)]
    for p, n in cases:
        oracle = dense_wedge2(p, n)
        assert _wedge_type(p, (n,), 2) == oracle, (p, n)
        if n >= 2:
            assert _wedge2_block(p, n) == oracle, (p, n)


def test_graded_smith_refuses_a_nonzero_entry_at_a_negative_degree():
    # degrees a_r + b_c: [[1, 3], [-1, 1]]
    with pytest.raises(RuntimeError, match="negative degree"):
        _graded_smith([[1, 0], [2, 1]], [0, -2], [1, 3], 5, 2)
    assert _graded_smith([[1, 0], [0, 1]], [0, -2], [1, 3], 5, 2) == (1, 1)


def test_graded_smith_refuses_column_degrees_out_of_order():
    with pytest.raises(RuntimeError, match="nondecreasing"):
        _graded_smith([[1, 0], [0, 1]], [0, 0], [3, 1], 5, 4)


def test_graded_smith_forms_at_a_prime_past_every_block_are_clebsch_gordan():
    # p > m + n - 1: the characteristic-zero decomposition, and Lambda^2 J_n
    # takes every other summand of J_n (x) J_n, from 2n - 3 down
    p = 4294967311
    for n in range(1, 13):
        for m in range(1, n + 1):
            assert _tensor_pair(p, m, n) == clebsch_gordan(m, n), (m, n)
    for n in range(2, 14):
        assert _wedge2_block(p, n) == clebsch_gordan(n, n)[1::2], n


def test_squares_at_p_odd_build_no_induced_matrix(monkeypatch, capsys):
    # oracles first, from the dense route, then the route without it
    small = [(5, 1, (3, 2)), (7, 2, (12, 5)), (3, 2, (9, 4, 1))]
    expected = {(p, blocks): (whole_module_type(p, blocks), whole_module_type(p, blocks, 2)) for p, _, blocks in small}

    def refuse(*args):
        raise AssertionError("no induced matrix for a square at p odd")

    monkeypatch.setattr(modrep, "_induced_matrix", refuse)
    _wedge_type.cache_clear()
    for p, e, blocks in small:
        v = JordanModule(p, e, blocks)
        assert (sym2(v).blocks, ext2(v).blocks) == expected[p, blocks]
    assert ext2(J(7, 49, 42, e=2)).blocks == (49,) * 83 + (7,) * 4
    assert sym2(J(7, 49, 40, e=2)).dim == 89 * 90 // 2
    # p = 2 and the cube still take the dense route
    with pytest.raises(AssertionError, match="no induced matrix"):
        ext2(J(2, 5, e=3))
    with pytest.raises(AssertionError, match="no induced matrix"):
        exterior_power(J(5, 6, e=2), 3)
    # the cap still refuses on the whole dimension, before any route is taken
    for blocks, op in [("49,42", "sym2"), ("49,43", "ext2")]:
        assert main(["decompose", "--p", "7", "--e", "2", "--blocks", blocks, "--op", op]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err == "cap exceeded: induced matrix of dimension 4186 exceeds the cap 4096\n"


# -- exterior powers ----------------------------------------------------------------


def test_exterior_power_edges():
    v = J(5, 3, 2)
    assert exterior_power(v, 0) == J(5, 1)
    assert exterior_power(J(5, 4), 4) == J(5, 1)
    with pytest.raises(DomainError):
        exterior_power(v, 6)
    with pytest.raises(DomainError):
        exterior_power(J(2, 2), 1)


def test_exterior_power_dimensions():
    for p in (3, 5, 7):
        rng = random.Random(41)
        for _ in range(4):
            v = random_module(rng, p, 7)
            for k in range(v.dim + 1):
                assert exterior_power(v, k).dim == comb(v.dim, k)


def test_exterior_power_example_dimension():
    assert exterior_power(JordanModule(5, 1, (5, 2)), 3).dim == comb(7, 3)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_induced_matrices_match_minor_and_pair_oracles(p):
    # every module of dimension <= 7 at orders p and p^2: the direct
    # expansion against the k x k minors of U, then the Jordan types; for
    # p > 2 also exterior_power, which builds Lambda^(d-k) for k > d/2, and
    # the test-side Sym^2 induced matrix against the expansion over all
    # pairs of entries of U, whose type sym2 must give
    for e in (1, 2):
        for blocks in block_lists(7, p**e):
            d = sum(blocks)
            for k in range(d + 1):
                basis = list(itertools.combinations(range(d), k))
                oracle = minor_wedge_matrix(blocks, k, p)
                assert np.array_equal(_induced_matrix(blocks, basis) % p, oracle)
                assert _wedge_type(p, blocks, k) == jordan_type(oracle, p)
                if p > 2:
                    assert exterior_power(JordanModule(p, e, blocks), k).blocks == jordan_type(oracle, p)
            if p > 2:
                oracle = expanded_sym2_matrix(blocks, p)
                assert np.array_equal(symmetric_induced_matrix(blocks) % p, oracle)
                assert sym2(JordanModule(p, e, blocks)).blocks == jordan_type(oracle, p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_direct_sum_splitting_matches_the_whole_module_route(p):
    # every module of dimension <= 8 at orders p and p^2, every k and Sym^2
    _wedge_type.cache_clear()
    for e in (1, 2):
        for blocks in block_lists(8, p**e):
            v = JordanModule(p, e, blocks)
            for k in range(v.dim + 1):
                assert exterior_power(v, k).blocks == whole_module_type(p, blocks, k)
            assert sym2(v).blocks == whole_module_type(p, blocks)


@pytest.mark.parametrize("p, e, b", [(5, 2, 25), (3, 3, 27)])
def test_sym2_of_a_full_block_matches_the_symmetric_induced_matrix(p, e, b):
    v = JordanModule(p, e, (b,))
    assert sym2(v).blocks == whole_module_type(p, (b,))


def test_exterior_powers_of_many_blocks_at_degrees_0_and_1():
    # Lambda^0 V = K and Lambda^1 V = V; no split recursion, whatever the number of blocks
    for blocks in [(1,) * 3000, (3, 2, 1) * 600]:
        v = JordanModule(3, 1, blocks)
        assert exterior_power(v, 0).blocks == exterior_power(v, v.dim).blocks == (1,)
        assert exterior_power(v, 1).blocks == exterior_power(v, v.dim - 1).blocks == v.blocks
    with pytest.raises(CapExceeded):
        exterior_power(JordanModule(3, 1, (1,) * 4097), 1)


def dense_wedge(p, n, k):
    """Lambda^k J_n from the rank profile of its C(n, k)-dimensional induced matrix."""
    return jordan_type(_induced_matrix((n,), list(itertools.combinations(range(n), k))) % p, p)


def test_exterior_powers_of_blocks_no_larger_than_p_match_the_induced_matrix():
    cases = [(p, n, k) for p in (3, 5, 7, 11, 13) for n in range(1, p + 1) for k in range(3, n // 2 + 1)
             if comb(n, k) <= 500]
    for p, n, k in cases:
        oracle = dense_wedge(p, n, k)
        assert _wedge_type(p, (n,), k) == _tilting_block(p, n, k) == oracle, (p, n, k)
    assert len(cases) == 29


def test_exterior_powers_of_blocks_no_larger_than_p_sum_to_the_dimension_within_j_p():
    # every prime p <= 64, n <= p and 3 <= k <= n/2 within the cap; the route checks the sum itself
    cases = 0
    for p in filter(is_prime, range(2, 65)):
        for n in range(6, p + 1):
            for k in range(3, n // 2 + 1):
                if comb(n, k) <= 4096:
                    blocks = _tilting_block(p, n, k)
                    assert sum(blocks) == comb(n, k) and max(blocks) <= p, (p, n, k)
                    cases += 1
    assert cases == 564
    # past the block sizes the type is the characteristic-zero one: Lambda^3 J_6 = J_10 + J_6 + J_4
    assert _tilting_block(4294967311, 6, 3) == (10, 6, 4)


def test_tilting_peeling_refuses_a_wrong_character(monkeypatch):
    # with each T(m) cut to the weights m and -m, a weight past p - 2 leaves a part of dimension 2,
    # and below it the blocks no longer sum to C(n, k)
    monkeypatch.setattr(modrep, "_tilting_character", lambda p, m: {m: 1, -m: 1})
    with pytest.raises(RuntimeError, match="not divisible by p"):
        _tilting_block(7, 6, 3)
    with pytest.raises(RuntimeError, match="do not sum"):
        _tilting_block(13, 6, 3)


def test_exterior_powers_of_p_power_blocks_match_the_induced_matrix():
    cases = [(p, q, k) for p, q in [(2, 4), (2, 8), (2, 16), (2, 32), (2, 64), (3, 9), (3, 27), (5, 25), (7, 49)]
             for k in range(1, q // 2 + 1) if comb(q, k) <= 1300]
    for p, q, k in cases:
        oracle = dense_wedge(p, q, k)
        assert _wedge_type(p, (q,), k) == _orbit_block(p, q, k) == oracle, (p, q, k)
    assert _orbit_block(2, 64, 2) == (64,) * 31 + (32,)
    assert _orbit_block(3, 27, 3) == (27,) * 108 + (9,)
    # on a set whose size is not a power of p the k-subsets are no whole orbits of p-power size
    with pytest.raises(RuntimeError, match="no whole orbits"):
        _orbit_block(3, 6, 2)


def test_exterior_powers_of_small_and_p_power_blocks_build_no_matrix(monkeypatch, capsys):
    # oracles first, from the dense route on the whole module, then the routes without it
    small = [(7, (7, 5)), (13, (8, 1)), (5, (4, 3, 1)), (2, (8, 2)), (3, (9, 2))]
    expected = {(p, blocks): [whole_module_type(p, blocks, k) for k in range(sum(blocks) + 1)]
                for p, blocks in small}  # C(12, 6) = 924 at most

    def refuse(*args):
        raise AssertionError("no induced matrix for blocks no larger than p or of p-power size")

    monkeypatch.setattr(modrep, "_induced_matrix", refuse)
    monkeypatch.setattr(modrep, "jordan_type", refuse)
    _wedge_type.cache_clear()
    for p, blocks in small:
        assert [_wedge_type(p, blocks, k) for k in range(sum(blocks) + 1)] == expected[p, blocks], (p, blocks)
    assert exterior_power(J(61, 30), 3).dim == comb(30, 3)
    assert ext2(J(2, 64, e=6)).blocks == (64,) * 31 + (32,)
    assert exterior_power(J(3, 27, e=3), 3).blocks == (27,) * 108 + (9,)
    # a block larger than p of another size still takes the dense route
    with pytest.raises(AssertionError, match="no induced matrix"):
        exterior_power(J(3, 7, e=2), 3)
    # the cap still refuses on the whole dimension, before any route is taken
    for argv in [("--p", "61", "--blocks", "30,1", "--op", "wedge", "--k", "3"),
                 ("--p", "2", "--e", "6", "--blocks", "64,28", "--op", "ext2")]:
        assert main(["decompose", *argv]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("cap exceeded: induced matrix of dimension ")


# -- negligible filtering and the fusion image ---------------------------------------


def test_non_negligible_part():
    assert non_negligible_part(J(5, 5)).is_zero
    assert non_negligible_part(J(5, 1, 3, 5)) == J(5, 1, 3)
    assert non_negligible_part(JordanModule(2, 2, (4, 4, 1))) == JordanModule(2, 2, (1,))


def test_to_verlinde():
    assert to_verlinde(J(5, 3)) == FusionElement.simple(5, 3)
    assert to_verlinde(J(5, 5)).is_zero
    assert to_verlinde(J(5, 2, 2, 5)) == FusionElement(5, (0, 2, 0, 0))
    with pytest.raises(DomainError):
        to_verlinde(J(2, 3, e=2))
