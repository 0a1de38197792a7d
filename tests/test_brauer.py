"""Walled diagram category tests.

The two-diagram endomorphism algebra of [1,1] pins down every convention:
its non-identity basis element a satisfies a o a = t a, traces to t, and
produces the Gram matrix [[t^2, t], [t, t^2]].  Gram ranks at integer
parameter values are cross-checked against the character-theoretic hom
dimension, which shares no code with the diagram machinery.  The library
builds Gram matrices as S_d group matrices and reads their ranks off the
content products of the partitions of d where F_p[S_d] is semisimple, and
off the alcove tableaux of GL_n where it is not; diagram stacking and
elimination (Bareiss over Q, rank_mod_p over F_p) below are the oracle
for both steps, with degree-7 eliminations pinned and the
Fibonacci ranks at t = +-2 mod 5 past them.  Semisimplicity of End([r, s])
is read off the walled Brauer criterion; the rank of the regular trace
form is its oracle, over Q through degree 5 and mod a large prime at
degree 6.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semisimple import brauer, scalars
from semisimple.brauer import (
    BiObject,
    DiagramMorphism,
    WalledDiagram,
    _closure_loops,
    _gram_exponents,
    _stack,
    algebra_is_semisimple,
    braiding,
    compose,
    endomorphism_trace_form,
    gram_matrix,
    hom_basis,
    identity,
    identity_diagram,
    negligible_rank,
    schur_weyl_homdim,
    tensor,
    trace,
)
from semisimple.partitions import box_partitions, dimensions
from semisimple.scalars import CapExceeded, DomainError, FpScalar, T, TPolynomial, exact_det, exact_rank, rank_mod_p

B11 = BiObject(1, 1)


def arc_morphism():
    """The cup-cap element a of End([1,1]): bottom pair plus top pair."""
    dia = WalledDiagram(B11, B11, ((0, 1), (2, 3)))
    return DiagramMorphism.from_diagram(dia)


def small_objects(max_total):
    return [
        BiObject(r, s)
        for total in range(max_total + 1)
        for r in range(total + 1)
        for s in [total - r]
    ]


# -- objects and diagrams -----------------------------------------------------


def test_biobject_dual_and_tensor():
    assert BiObject(2, 1).dual() == BiObject(1, 2)
    assert BiObject(1, 0) @ BiObject(0, 1) == B11
    with pytest.raises(DomainError):
        BiObject(-1, 0)


def test_diagram_wall_constraints():
    # cross-row pair joining an up to a down endpoint is rejected
    with pytest.raises(DomainError, match="does not join an outgoing endpoint to an incoming one"):
        WalledDiagram(BiObject(1, 0), BiObject(0, 1), ((0, 1),))
    # in-row pair of two same-direction endpoints is rejected
    with pytest.raises(DomainError, match="does not join an outgoing endpoint to an incoming one"):
        WalledDiagram(BiObject(2, 0), BiObject(1, 1), ((0, 1), (2, 3)))
    # not a perfect matching
    with pytest.raises(DomainError):
        WalledDiagram(B11, B11, ((0, 1), (2, 2)))
    # float and bool endpoints: 0.0 == 0 and True == 1 pass the matching check
    for pairs in (((0, 1.0),), ((0.0, 1),), ((0, True),), ((False, 1),)):
        with pytest.raises(DomainError, match="integers"):
            WalledDiagram(BiObject(1, 0), BiObject(1, 0), pairs)
    # an entry that is not two endpoints, as a tuple and as the JSON lists `brauer compose` reads:
    # a triple beside a single, a bare endpoint
    for pairs in (((0, 1, 2), (3,)), ((0, 1), 2)):
        listed = json.loads(json.dumps(pairs))
        for doc in ({"pairs": listed}, {"terms": [{"pairs": listed}]}):
            with pytest.raises(DomainError, match="two endpoints"):
                DiagramMorphism.from_json({"source": [1, 1], "target": [1, 1], **doc})
        with pytest.raises(DomainError, match="two endpoints"):
            WalledDiagram(B11, B11, pairs)
    # a string endpoint beside integers is refused before a mixed pair is sorted
    with pytest.raises(DomainError, match="integers"):
        WalledDiagram(B11, B11, ((0, "1"), (2, 3)))


def perfect_matchings(points):
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for i, other in enumerate(rest):
        for tail in perfect_matchings(rest[:i] + rest[i + 1:]):
            yield ((first, other),) + tail


def endpoint_row_and_direction(source, target, i):
    """(row, direction) of endpoint i read off the documented numbering:
    row 0 bottom, direction 0 up."""
    if i < source.total:
        return 0, int(i >= source.r)
    return 1, int(i - source.total >= target.r)


def test_diagram_validation_matches_the_numbering_rule():
    # every matching of every pair of objects with at most 8 endpoints
    for source in small_objects(8):
        for target in small_objects(8 - source.total):
            for pairs in perfect_matchings(list(range(source.total + target.total))):
                kinds = [(endpoint_row_and_direction(source, target, x), endpoint_row_and_direction(source, target, y))
                         for x, y in pairs]
                # a pair in one row changes direction, a pair across the rows keeps it
                valid = all((row_x == row_y) != (dir_x == dir_y) for (row_x, dir_x), (row_y, dir_y) in kinds)
                if valid:
                    assert WalledDiagram(source, target, pairs).pairs == tuple(sorted(pairs))
                else:
                    with pytest.raises(DomainError):
                        WalledDiagram(source, target, pairs)


def test_walks_follow_paths_and_count_cycles():
    # ends 0 and 5 meet only the first matching: the path 0-1-2-3-4-5
    # alternates, and 6-7 is a cycle of both
    first = [1, 0, 3, 2, 5, 4, 7, 6]
    second = [None, 2, 1, 4, 3, None, 7, 6]
    far, cycles = brauer._walks(first, second, (0, 5))
    assert far == {0: 5, 5: 0} and cycles == 1


def test_stacked_pairs_are_in_normal_form():
    # the trace form looks stacked pairs up among the basis pairs, so they must be the public constructor's
    stacks = 0
    for a, b, c in itertools.product(small_objects(4), repeat=3):
        for top, bottom in itertools.product(hom_basis(b, c), hom_basis(a, b)):
            pairs, _ = _stack(top, bottom)
            assert pairs == WalledDiagram(a, c, pairs).pairs
            stacks += 1
    assert stacks == 4419


def test_hom_basis_sizes():
    assert len(hom_basis(B11, B11)) == 2
    assert hom_basis(BiObject(1, 0), BiObject(0, 1)) == []
    assert len(hom_basis(BiObject(2, 0), BiObject(2, 0))) == 2


def test_hom_basis_factorial_law_totals_up_to_4():
    for source in small_objects(4):
        for target in small_objects(4):
            d = source.r + target.s
            basis = hom_basis(source, target)
            if d == source.s + target.r:
                assert len(basis) == factorial(d)
                assert len(set(basis)) == len(basis)
            else:
                assert basis == []


def test_hom_basis_cap():
    with pytest.raises(CapExceeded):
        hom_basis(BiObject(4, 3), BiObject(4, 3))
    with pytest.raises(CapExceeded):
        gram_matrix(BiObject(4, 3), BiObject(4, 3))
    with pytest.raises(CapExceeded):
        negligible_rank(BiObject(2, 2), BiObject(2, 2), 3, cap=3)


# -- composition --------------------------------------------------------------


def test_arc_squares_to_t_times_arc():
    a = arc_morphism()
    assert compose(a, a) == T * a


def test_identity_is_neutral():
    rng = random.Random(3)
    for obj in small_objects(3):
        basis = hom_basis(obj, obj)
        for _ in range(5):
            f = DiagramMorphism.from_diagram(rng.choice(basis), rng.randint(1, 4))
            assert compose(identity(obj), f) == f
            assert compose(f, identity(obj)) == f


def test_swap_composes_to_identity_without_loops():
    obj = BiObject(2, 0)
    swap = next(
        DiagramMorphism.from_diagram(d)
        for d in hom_basis(obj, obj)
        if d != identity_diagram(obj)
    )
    assert compose(swap, swap) == identity(obj)


def test_composition_is_bilinear_over_polynomial_coefficients():
    a = arc_morphism()
    ident = identity(B11)
    assert compose(T * a, T * a) == T**3 * a
    assert compose(a + ident, a) == compose(a, a) + a
    assert compose(2 * a - ident, ident) == 2 * a - ident


def test_compose_rejects_middle_mismatch():
    with pytest.raises(DomainError):
        compose(identity(B11), identity(BiObject(2, 0)))


def test_morphism_rebuilds_from_its_own_terms():
    f = arc_morphism() + 3 * identity(B11)
    assert DiagramMorphism(f.source, f.target, f.terms) == f


def test_morphism_sum_takes_only_morphisms_of_one_hom_space():
    f = arc_morphism()
    with pytest.raises(TypeError):
        f + 1
    with pytest.raises(TypeError):
        f - 1
    with pytest.raises(DomainError, match="different objects"):
        f + identity(BiObject(2, 0))


def test_composition_associative_random_triples():
    rng = random.Random(5)
    for obj in (B11, BiObject(2, 1)):
        basis = hom_basis(obj, obj)
        for _ in range(25):
            f, g, h = (
                DiagramMorphism.from_diagram(rng.choice(basis), rng.randint(-2, 3) or 1)
                for _ in range(3)
            )
            assert compose(compose(f, g), h) == compose(f, compose(g, h))
    # mixed objects: [2,2] -> [1,1] -> [1,1] -> [1,1]
    h_basis = hom_basis(BiObject(2, 2), B11)
    e_basis = hom_basis(B11, B11)
    for _ in range(25):
        h = DiagramMorphism.from_diagram(rng.choice(h_basis))
        g = DiagramMorphism.from_diagram(rng.choice(e_basis))
        f = DiagramMorphism.from_diagram(rng.choice(e_basis))
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


# -- tensor and braiding -------------------------------------------------------


def test_tensor_of_identities():
    assert tensor(identity(BiObject(1, 0)), identity(BiObject(0, 1))) == identity(B11)


def test_tensor_with_identity_strand_single_diagram():
    a = arc_morphism()
    result = tensor(a, identity(BiObject(1, 0)))
    assert len(result.terms) == 1
    assert list(result.terms.values())[0] == T**0


def test_tensor_square_of_arcs():
    a = arc_morphism()
    aa = tensor(a, a)
    assert compose(aa, aa) == T**2 * aa


def test_tensor_work_is_capped_before_the_first_pair():
    obj = BiObject(3, 3)
    f = DiagramMorphism(obj, obj, [(d, TPolynomial.parse("t^60000")) for d in hom_basis(obj, obj)[:20]])
    with pytest.raises(CapExceeded, match="a product of 20 by 20 terms"):
        tensor(f, f)
    with pytest.raises(CapExceeded, match="a product of 20 by 20 terms"):
        compose(f, f)
    small = DiagramMorphism(obj, obj, [(d, TPolynomial.parse("t^600")) for d in hom_basis(obj, obj)[:20]])
    assert len(tensor(small, small).terms) == 400


def test_braiding_is_involution():
    for a in small_objects(2):
        for b in small_objects(2):
            back_and_forth = compose(braiding(b, a), braiding(a, b))
            assert back_and_forth == identity(a @ b)


def test_braiding_unit():
    for b in small_objects(2):
        assert braiding(BiObject(0, 0), b) == identity(b)
        assert braiding(b, BiObject(0, 0)) == identity(b)


def test_braiding_hexagon():
    a, b, c = BiObject(1, 0), BiObject(1, 0), BiObject(0, 1)
    lhs = braiding(a @ b, c)
    rhs = compose(tensor(braiding(a, c), identity(b)), tensor(identity(a), braiding(b, c)))
    assert lhs == rhs
    lhs2 = braiding(a, b @ c)
    rhs2 = compose(tensor(identity(b), braiding(a, c)), tensor(braiding(a, b), identity(c)))
    assert lhs2 == rhs2


def test_braiding_naturality():
    rng = random.Random(9)
    objs = small_objects(2)
    for a1 in objs:
        for a2 in objs:
            fb = hom_basis(a1, a2)
            if not fb:
                continue
            for b1 in objs:
                for b2 in objs:
                    gb = hom_basis(b1, b2)
                    if not gb:
                        continue
                    f = DiagramMorphism.from_diagram(rng.choice(fb), rng.randint(1, 3))
                    g = DiagramMorphism.from_diagram(rng.choice(gb), rng.randint(1, 3))
                    assert compose(braiding(a2, b2), tensor(f, g)) == compose(
                        tensor(g, f), braiding(a1, b1)
                    )


# -- trace and Gram matrices ---------------------------------------------------


def test_trace_examples():
    assert trace(identity(B11)) == T**2
    assert trace(arc_morphism()) == T
    assert trace(identity(BiObject(0, 0))) == T**0


def test_trace_needs_endomorphism():
    f = DiagramMorphism.from_diagram(hom_basis(BiObject(2, 1), BiObject(1, 0))[0])
    with pytest.raises(DomainError):
        trace(f)


def test_trace_cyclicity_all_basis_pairs():
    objs = small_objects(3)
    for x in objs:
        for y in objs:
            for fd in hom_basis(x, y):
                for gd in hom_basis(y, x):
                    f = DiagramMorphism.from_diagram(fd)
                    g = DiagramMorphism.from_diagram(gd)
                    assert trace(compose(f, g)) == trace(compose(g, f))


def test_gram_matrix_symbolic():
    g = gram_matrix(B11, B11)
    assert g == [[T**2, T], [T, T**2]] or g == [[T**2, T], [T, T**2]][::-1]
    assert exact_det(g) == T**4 - T**2


def test_gram_matrix_evaluations():
    assert gram_matrix(B11, B11, 0) == [[0, 0], [0, 0]]
    assert negligible_rank(B11, B11, 0) == (0, 0)
    assert negligible_rank(B11, B11, 1) == (1, 1)
    assert negligible_rank(B11, B11, -1) == (1, 1)  # negative values evaluate fine
    assert negligible_rank(B11, B11, Fraction(7, 2)) == (2, 2)
    assert negligible_rank(BiObject(2, 0), BiObject(2, 0), 1) == (1, 1)


def test_gram_rank_over_prime_field():
    rank, dim = negligible_rank(B11, B11, FpScalar(3, 5))
    assert rank == dim == 2  # 3 is generic mod 5: det = t^4 - t^2 = 81 - 9 != 0


def test_negligible_rank_requires_exact_value():
    with pytest.raises(DomainError):
        negligible_rank(B11, B11, "symbolic")
    with pytest.raises(DomainError):
        negligible_rank(B11, B11, 0.5)


def test_gram_determinant_root_set():
    det = exact_det(gram_matrix(B11, B11))
    roots = [x for x in range(-5, 6) if det.evaluate(x) == 0]
    assert roots == [-1, 0, 1]


# -- group-matrix Gram route against the stacking oracle -------------------------


@lru_cache(maxsize=None)
def stacked_gram_matrix(source, target):
    """Symbolic Gram matrix by diagram stacking: entry (i, j) is the trace of
    d_i o flip(d_j), with one factor of t per loop that stacking or closing
    up leaves."""
    basis = hom_basis(source, target)
    flipped = [d.flip() for d in basis]
    rows = []
    for di in basis:
        row = []
        for fj in flipped:
            pairs, loops = _stack(di, fj)
            row.append(T ** (loops + _closure_loops(WalledDiagram(target, target, pairs))))
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None, typed=True)
def bareiss_rank(matrix, t):
    """Rank over Q (Bareiss) or F_p of a symbolic matrix evaluated at t."""
    return exact_rank([[x.evaluate(t) for x in row] for row in matrix])


def spaces_of_degree(d):
    return [(BiObject(r, s), BiObject(d - s, d - r)) for r in range(d + 1) for s in range(d + 1)]


#: Every hom space of degree <= 4 and two of degree 5, one of them not an
#: endomorphism space.
ORACLE_SPACES = [space for d in range(5) for space in spaces_of_degree(d)] + [
    (BiObject(3, 2), BiObject(3, 2)),
    (BiObject(1, 3), BiObject(2, 4)),
]

ORACLE_T = [0, 1, -1, 2, -2, 3, -3, 4, -4, 5, 7, Fraction(7, 2), Fraction(-5, 3), Fraction(9, 2)]
ORACLE_T += [FpScalar(x, p) for p in (7, 11) for x in range(p)]


def content_rank(d, t):
    """Sum of f_lam^2 over the partitions lam of d whose content product
    prod (t + j - i) over the boxes (i, j) is nonzero, over Q or in F_p."""
    return sum(
        dimensions(lam)[0] ** 2
        for lam in box_partitions(d, d, d)
        if all(t + j - i != 0 for i, part in enumerate(lam) for j in range(part))
    )


@pytest.mark.parametrize("obj", [BiObject(2, 1), BiObject(2, 2)], ids=str)
def test_symbolic_gram_determinant_is_the_content_product(obj):
    # past 2 x 2, Bareiss over Z[t] divides by earlier pivots (TPolynomial.exact_div)
    d = obj.total
    expected = T**0
    for lam in box_partitions(d, d, d):
        f = dimensions(lam)[0]
        for i, part in enumerate(lam):
            for j in range(part):
                expected = expected * (T + (j - i)) ** (f * f)
    if d == 3:
        assert expected == T**6 * (T + 1) ** 5 * (T - 1) ** 5 * (T + 2) * (T - 2)
    assert exact_det(gram_matrix(obj, obj)) == expected


def test_gram_exponents_match_stacked_loop_counts():
    for source, target in ORACLE_SPACES:
        oracle = stacked_gram_matrix(source, target)
        exponents = _gram_exponents(source.r + target.s)
        assert exponents == [[x.degree() for x in row] for row in oracle]
        assert gram_matrix(source, target) == [list(row) for row in oracle]


def test_gram_matrix_values_match_stacked_oracle():
    for source, target in ORACLE_SPACES:
        oracle = stacked_gram_matrix(source, target)
        for t in (3, Fraction(7, 2), FpScalar(3, 7)):
            got = gram_matrix(source, target, t)
            assert got == [[x.evaluate(t) for x in row] for row in oracle]
            assert all(type(x) is type(t) for row in got for x in row)


def test_negligible_rank_matches_bareiss_on_stacked_oracle():
    for source, target in ORACLE_SPACES:
        oracle = stacked_gram_matrix(source, target)
        for t in ORACLE_T:
            assert negligible_rank(source, target, t) == (bareiss_rank(oracle, t),) * 2
    assert negligible_rank(BiObject(1, 0), BiObject(0, 1), 3) == (0, 0)
    assert gram_matrix(BiObject(2, 1), BiObject(2, 0), 3) == []


def test_negligible_rank_prime_choice_trap():
    # t = 5 on End([2,2]) (degree 4): 5 divides t, and 7 divides t + 2,
    # where 2 is a content of the partition (3, 1), so neither is faithful
    obj = BiObject(2, 2)
    assert negligible_rank(obj, obj, FpScalar(5, 5)) == (0, 0)
    assert negligible_rank(obj, obj, FpScalar(5, 7)) == (14, 14)
    assert negligible_rank(obj, obj, 5) == (24, 24)


def test_negligible_rank_exact_for_a_prime_above_the_int64_bound(monkeypatch):
    # (p - 1)^2 >= 2^63: int64 elimination would wrap and report 24
    obj = BiObject(2, 2)
    assert negligible_rank(obj, obj, FpScalar(3, 2**32 + 15)) == (23, 23)
    # p > 2^63: t = -1 has the residue p - 1, which as a float would round
    # to 2^64 and make the rank-1 Gram matrix [[1, -1], [-1, 1]] read as
    # rank 2.  2^64 - 59 is prime; trial division would take hours to say so.
    monkeypatch.setattr(scalars, "check_prime", lambda p: p)
    obj = BiObject(1, 1)
    assert negligible_rank(obj, obj, FpScalar(-1, 2**64 - 59)) == (1, 1)
    assert negligible_rank(obj, obj, FpScalar(3, 2**64 - 59)) == (2, 2)


def test_is_prime_runs_once_per_modulus():
    # every F_p arithmetic result checks its p; the primality test of
    # 2^32 + 15 runs once, the other checks are cache hits
    scalars.is_prime.cache_clear()
    gram_matrix(BiObject(3, 1), BiObject(3, 1), FpScalar(3, 2**32 + 15))
    info = scalars.is_prime.cache_info()
    assert info.misses == 1 and info.hits > 0


def test_negligible_rank_eliminates_at_no_prime(monkeypatch):
    # for p > d the rank is read off the partitions of d, for p <= d off the
    # alcove tableaux; neither eliminates, so no call reaches the kernel
    calls = []
    echelon = scalars.row_echelon_mod_p
    monkeypatch.setattr(scalars, "row_echelon_mod_p", lambda m, p: calls.append((p, len(m))) or echelon(m, p))
    for p in (2, 3, 5, 13, 2**32 + 15):
        for r in range(4):
            d = r + 1
            obj = BiObject(r, 1)  # degree d; the Gram matrix is t^E
            exponents = _gram_exponents(d)
            for t in sorted({0, 1, 2, p - 1, 12345 % p} | {-c % p for c in range(-r, r + 1)}):
                want = rank_mod_p([[pow(t, e, p) for e in row] for row in exponents], p)
                calls.clear()
                assert negligible_rank(obj, obj, FpScalar(t, p)) == (want, want)
                assert calls == []


#: The rational t of ORACLE_T, every residue mod the small primes, and
#: mod 2^32 + 15 the residues -c of the contents c of degree <= 5 with a
#: few others.
ELIMINATION_T = [t for t in ORACLE_T if not isinstance(t, FpScalar)]
ELIMINATION_T += [FpScalar(x, p) for p in (2, 3, 5, 7, 11, 13) for x in range(p)]
ELIMINATION_T += [FpScalar(x, 2**32 + 15) for x in (*range(-4, 5), 7, 12345, 2**31)]


@lru_cache(maxsize=None, typed=True)
def eliminated_rank(d, t):
    """Rank of the degree-d Gram matrix t^E by elimination: rank_mod_p over
    F_p, Bareiss over Q."""
    if isinstance(t, FpScalar):
        powers = np.array([pow(t.value, k, t.p) for k in range(d + 1)], dtype=object)
        return rank_mod_p(powers[_gram_exponents(d)], t.p)
    return bareiss_rank(tuple(map(tuple, gram_matrix(*spaces_of_degree(d)[0]))), t)


def test_negligible_rank_matches_elimination_on_every_space_of_degree_at_most_5():
    for d in range(6):
        for source, target in spaces_of_degree(d):
            for t in ELIMINATION_T:
                assert negligible_rank(source, target, t) == (eliminated_rank(d, t),) * 2


def test_negligible_rank_matches_elimination_at_degree_6_mod_2_3_and_5():
    # every residue of p <= d: ten 720 x 720 eliminations against the alcove count
    for t in [FpScalar(x, p) for p in (2, 3, 5) for x in range(p)]:
        for source, target in spaces_of_degree(6):
            assert negligible_rank(source, target, t) == (eliminated_rank(6, t),) * 2


#: Ranks at degree 7, each from eliminating the 5040 x 5040 Gram matrix
#: t^E mod p with scalars.row_echelon_mod_p, the route the alcove count
#: replaced (`brauer rank --r 4 --s 3 --cap-brauer-degree 7`, 37-123 s and
#: about 0.8 GB each on a 2-core host, so they are pinned here and not
#: recomputed).
DEGREE_7_ELIMINATED = {FpScalar(2, 5): 233, FpScalar(3, 5): 233, FpScalar(2, 7): 417, FpScalar(3, 7): 2403}


def test_negligible_rank_at_degree_7_matches_the_pinned_eliminations():
    for t, rank in DEGREE_7_ELIMINATED.items():
        for source, target in (spaces_of_degree(7)[0], (BiObject(4, 3), BiObject(4, 3))):
            assert negligible_rank(source, target, t, cap=7) == (rank, rank)


def test_negligible_rank_at_two_mod_5_is_a_fibonacci_number():
    # t = 2 is GL_2 at level 3, and t = -2 its level-rank dual GL_3 at
    # level 2: the alcove is a path of 4 shapes (lam_1 - lam_2 in 0..3),
    # whose closed walks of length 2d from an end number F_(2d-1)
    fib = [0, 1]
    while len(fib) < 60:
        fib.append(fib[-1] + fib[-2])
    for d in range(1, 30):
        obj = BiObject(d, 0)
        for t in (2, -2):
            assert negligible_rank(obj, obj, FpScalar(t, 5), cap=d) == (fib[2 * d - 1],) * 2


@given(
    st.integers(1, 5).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d), st.integers(0, d))),
    st.integers(-40, 40),
    st.integers(1, 12),
    st.sampled_from([None, 7, 11, 13, 2**31 - 1]),
)
def test_negligible_rank_is_the_content_rank(space, a, b, p):
    # p is None: t = a/b in Q; else t = a in F_p, p > d
    d, r, s = space
    t = Fraction(a, b) if p is None else FpScalar(a, p)
    assert negligible_rank(BiObject(r, s), BiObject(d - s, d - r), t) == (content_rank(d, t),) * 2


# -- algebra radical vs categorical radical -------------------------------------


def test_regular_trace_form_symbolic():
    form = endomorphism_trace_form(B11)
    assert exact_det(form) == T**2
    roots = [x for x in range(-5, 6) if exact_det(form).evaluate(x) == 0]
    assert roots == [0]


def test_algebra_semisimple_only_fails_at_zero():
    for t in [-3, -1, 0, 1, 2, Fraction(1, 2), Fraction(7, 2)]:
        assert algebra_is_semisimple(B11, t) == (t != 0)


def test_radicals_differ_at_plus_minus_one():
    # at t = 1 the algebra End([1,1]) is semisimple but the categorical
    # pairing is degenerate: the two notions of radical are distinct
    assert algebra_is_semisimple(B11, 1)
    assert negligible_rank(B11, B11, 1)[0] < len(hom_basis(B11, B11))


def test_permutation_algebra_is_parameter_independent():
    # composing permutation diagrams never closes a loop, so End([2,0]) is
    # the group algebra of the two-element group for every t: its regular
    # trace form is the constant [[2,0],[0,2]] even where the categorical
    # pairing drops rank
    obj = BiObject(2, 0)
    form = endomorphism_trace_form(obj)
    assert form == [[TPolynomial((2,)), TPolynomial()], [TPolynomial(), TPolynomial((2,))]]
    for t in (-1, 0, 1, 2):
        assert algebra_is_semisimple(obj, t)
    assert negligible_rank(obj, obj, 0)[0] == 0
    assert negligible_rank(obj, obj, 1)[0] == 1



def _trace_form_is_nondegenerate(obj, t):
    """The oracle: Dickson's criterion, Bareiss over Q on the d! x d! regular trace form."""
    form = endomorphism_trace_form(obj, t)
    return exact_rank(form) == len(form)


@pytest.mark.parametrize("obj", small_objects(4), ids=str)
def test_semisimplicity_criterion_matches_the_trace_form(obj):
    for t in [*range(-5, 6), Fraction(1, 2), Fraction(-7, 3)]:
        assert algebra_is_semisimple(obj, t) == _trace_form_is_nondegenerate(obj, t), t


@pytest.mark.parametrize("r, s, t, expected", [
    (3, 2, 3, False), (3, 2, -4, True), (4, 1, -3, False), (4, 1, 4, True), (1, 4, 0, False),
])
def test_semisimplicity_criterion_at_degree_five_boundaries(r, s, t, expected):
    # |t| = d - 2 is the last non-semisimple integer, and t = 0 leaves (1, 4) out
    obj = BiObject(r, s)
    assert algebra_is_semisimple(obj, t) == _trace_form_is_nondegenerate(obj, t) == expected


def test_semisimplicity_criterion_at_degree_six():
    # full rank mod a prime implies full rank over Q, so B_{3,3}(5) is semisimple
    obj = BiObject(3, 3)
    assert rank_mod_p(endomorphism_trace_form(obj, 5), 1000003) == factorial(6)
    assert algebra_is_semisimple(obj, 5)


@pytest.mark.parametrize("t", [FpScalar(2, 5), 0.5, "symbolic"], ids=["fp", "float", "symbolic"])
def test_semisimplicity_needs_a_rational_parameter(t):
    # the parameter is checked before the degree: degree 7 is past the default cap
    with pytest.raises(DomainError):
        algebra_is_semisimple(BiObject(4, 3), t)


def test_semisimplicity_keeps_the_degree_cap():
    with pytest.raises(CapExceeded, match=r"hom space of degree 7 \(7! diagrams\)"):
        algebra_is_semisimple(BiObject(4, 3), 6)
    start = time.perf_counter()
    obj = BiObject(4, 3)
    assert not algebra_is_semisimple(obj, 5, cap=7)
    assert algebra_is_semisimple(obj, 6, cap=7)
    assert algebra_is_semisimple(obj, Fraction(1, 2), cap=7)
    for r in range(7):
        for s in range(7 - r):
            for t in [*range(-7, 8), Fraction(1, 2), Fraction(-7, 3)]:
                algebra_is_semisimple(BiObject(r, s), t)
    assert time.perf_counter() - start < 1  # 479 calls; one 720 x 720 form took minutes


# -- character oracle ------------------------------------------------------------


def test_schur_weyl_homdim_examples():
    assert schur_weyl_homdim(1, B11, B11) == 1
    for n in (2, 3, 4, 5):
        assert schur_weyl_homdim(n, B11, B11) == 2
    assert schur_weyl_homdim(2, BiObject(3, 0), BiObject(3, 0)) == 5
    assert schur_weyl_homdim(2, BiObject(1, 0), BiObject(0, 1)) == 0


def test_gram_rank_matches_character_dimension():
    # at t = n negligible_rank sums over the box schur_weyl_homdim sums over,
    # so the Gram matrix is eliminated as well (Bareiss, at most 24 x 24)
    for obj in small_objects(4):
        for n in range(1, 6):
            rank, _ = negligible_rank(obj, obj, n)
            assert rank == exact_rank(gram_matrix(obj, obj, n)) == schur_weyl_homdim(n, obj, obj)


# -- serialization ----------------------------------------------------------------


def test_diagram_json_round_trip():
    for d in hom_basis(BiObject(2, 1), BiObject(1, 2)):
        assert WalledDiagram.from_json(d.to_json()) == d


def test_morphism_json_round_trip():
    a = arc_morphism()
    f = compose(a, a) + 3 * identity(B11)
    doc = f.to_json()
    assert DiagramMorphism.from_json(doc) == f


# -- concrete realization oracle ---------------------------------------------
#
# Every walled diagram is realized as an honest linear map on tensor powers
# of K^n: one Kronecker delta per pair.  Diagram-level operations must then
# match plain matrix algebra with the loop parameter evaluated at n.  This
# shares no code with the stacking machinery.


def diagram_matrix(d, n):
    import itertools as it

    import numpy as np

    bottom = d.source.total
    top = d.target.total
    M = np.zeros((n**top, n**bottom), dtype=np.int64)
    for col, bot_idx in enumerate(it.product(range(n), repeat=bottom)):
        for row, top_idx in enumerate(it.product(range(n), repeat=top)):
            idx = bot_idx + top_idx
            if all(idx[x] == idx[y] for x, y in d.pairs):
                M[row, col] = 1
    return M


def morphism_matrix(f, n):
    import numpy as np

    total = np.zeros((n**f.target.total, n**f.source.total), dtype=np.int64)
    for dia, coeff in f.terms.items():
        total = total + diagram_matrix(dia, n) * coeff.evaluate(n)
    return total


def test_composition_matches_matrix_semantics():
    rng = random.Random(101)
    objs = small_objects(2)
    for n in (2, 3):
        for x in objs:
            for y in objs:
                gb = hom_basis(x, y)
                if not gb:
                    continue
                for z in objs:
                    fb = hom_basis(y, z)
                    if not fb:
                        continue
                    g = DiagramMorphism.from_diagram(rng.choice(gb), rng.randint(1, 3))
                    f = DiagramMorphism.from_diagram(rng.choice(fb), rng.randint(1, 3))
                    lhs = morphism_matrix(compose(f, g), n)
                    rhs = morphism_matrix(f, n) @ morphism_matrix(g, n)
                    assert (lhs == rhs).all()


def test_trace_matches_matrix_semantics():
    import numpy as np

    for n in (2, 3):
        for obj in small_objects(2):
            for dia in hom_basis(obj, obj):
                f = DiagramMorphism.from_diagram(dia)
                assert trace(f).evaluate(n) == int(np.trace(morphism_matrix(f, n)))


def test_braiding_matches_matrix_semantics():
    import numpy as np

    for n in (2, 3):
        for a in small_objects(2):
            for b in small_objects(2):
                forward = morphism_matrix(braiding(a, b), n)
                backward = morphism_matrix(braiding(b, a), n)
                assert (backward @ forward == np.eye(forward.shape[0], dtype=np.int64)).all()


def test_flip_is_transpose_in_matrix_semantics():
    for n in (2, 3):
        for x in small_objects(2):
            for y in small_objects(2):
                for dia in hom_basis(x, y):
                    assert (diagram_matrix(dia.flip(), n) == diagram_matrix(dia, n).T).all()


def test_gram_entries_are_frobenius_pairings():
    import numpy as np

    for n in (2, 3):
        for x in small_objects(2):
            for y in small_objects(2):
                basis = hom_basis(x, y)
                if not basis:
                    continue
                gram = gram_matrix(x, y, n)
                mats = [diagram_matrix(d, n) for d in basis]
                for i in range(len(basis)):
                    for j in range(len(basis)):
                        assert gram[i][j] == int(np.trace(mats[i] @ mats[j].T))


def _interleave_map(a: BiObject, b: BiObject) -> list:
    """For each slot of the flattened a (x) b row, its slot in (a row, b row)."""
    out = []
    out += list(range(a.r))                                   # ups of a
    out += [a.total + j for j in range(b.r)]                  # ups of b
    out += [a.r + i for i in range(a.s)]                      # downs of a
    out += [a.total + b.r + j for j in range(b.s)]            # downs of b
    return out


def test_tensor_is_a_reindexed_kronecker_product():
    import itertools as it

    import numpy as np

    rng = random.Random(103)

    def index_map(a, b, n):
        slots = _interleave_map(a, b)
        k = len(slots)
        mapping = []
        for digits in it.product(range(n), repeat=k):
            kron_digits = [0] * k
            for flat_slot, juxt_slot in enumerate(slots):
                kron_digits[juxt_slot] = digits[flat_slot]
            pos = 0
            for d in kron_digits:
                pos = pos * n + d
            mapping.append(pos)
        return mapping

    objs = small_objects(2)
    for n in (2, 3):
        for _ in range(30):
            a1, a2, b1, b2 = (rng.choice(objs) for _ in range(4))
            fb, gb = hom_basis(a1, a2), hom_basis(b1, b2)
            if not fb or not gb:
                continue
            f = DiagramMorphism.from_diagram(rng.choice(fb), rng.randint(1, 3))
            g = DiagramMorphism.from_diagram(rng.choice(gb), rng.randint(1, 3))
            flat = morphism_matrix(tensor(f, g), n)
            kron = np.kron(morphism_matrix(f, n), morphism_matrix(g, n))
            rows = index_map(a2, b2, n)
            cols = index_map(a1, b1, n)
            assert (flat == kron[np.ix_(rows, cols)]).all()
