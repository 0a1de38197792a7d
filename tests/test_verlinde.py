"""Fusion ring tests.

The truncated product rule is never trusted alone: it is checked against
the prime-field Kronecker decomposition of Jordan blocks for every p up
to 13, and the closed-form Frobenius-Perron dimension against a numeric
power-iteration eigenvalue.
"""

import random

import numpy as np
import pytest
from mpmath import mp

from conftest import as_mpf

from semisimple import verlinde
from semisimple.modrep import JordanModule, jordan_tensor, to_verlinde
from semisimple.scalars import FUSION_ENTRY_CAP, WORKING_DPS, CapExceeded, DomainError, FpScalar, q_int
from semisimple.verlinde import (
    FusionElement,
    cat_dim,
    fp_dim,
    fusion,
    fusion_table,
    in_plus_subring,
    is_invertible,
    product,
)

PRIMES_19 = (2, 3, 5, 7, 11, 13, 17, 19)


def simple(p, k):
    return FusionElement.simple(p, k)


def random_element(rng, p, max_mult=3):
    m = tuple(rng.randint(0, max_mult) for _ in range(p - 1))
    if not any(m):
        return FusionElement.unit(p)
    return FusionElement(p, m)


# -- the rule ---------------------------------------------------------------


def test_fusion_examples():
    assert fusion(5, 3, 3) == FusionElement(5, (1, 0, 1, 0))
    for p in (3, 5, 7, 11):
        for k in range(1, p):
            assert fusion(p, 1, k) == simple(p, k)
    assert fusion(7, 4, 5) == FusionElement(7, (0, 1, 0, 1, 0, 0))


def test_fusion_label_range():
    with pytest.raises(DomainError):
        fusion(5, 0, 1)
    with pytest.raises(DomainError):
        fusion(5, 5, 1)


def test_fusion_multiplicities_are_boolean():
    for p in PRIMES_19:
        for i in range(1, p):
            for j in range(1, p):
                assert set(fusion(p, i, j).multiplicities) <= {0, 1}


def test_self_duality_unit_multiplicity():
    for p in PRIMES_19:
        for k in range(1, p):
            assert fusion(p, k, k).multiplicities[0] == 1


def test_ver2_is_trivial():
    assert fusion(2, 1, 1) == FusionElement.unit(2)
    assert len(list(fusion_table(2))) == 1


def test_ver3_sign_rule():
    assert product(simple(3, 2), simple(3, 2)) == FusionElement.unit(3)


# -- ring structure -----------------------------------------------------------


def test_product_examples():
    x = FusionElement(5, (0, 2, 0, 0))
    assert product(x, simple(5, 2)) == FusionElement(5, (2, 0, 2, 0))
    for p in (3, 5, 7):
        y = FusionElement(p, tuple(range(1, p)))
        assert product(y, FusionElement.unit(p)) == y


def test_product_commutative():
    rng = random.Random(43)
    for p in PRIMES_19:
        for _ in range(5):
            x, y = random_element(rng, p), random_element(rng, p)
            assert product(x, y) == product(y, x)


def test_product_associative_full_basis_check():
    for p in PRIMES_19:
        basis = [simple(p, k) for k in range(1, p)]
        for a in basis:
            for b in basis:
                ab = product(a, b)
                for c in basis:
                    assert product(ab, c) == product(a, product(b, c))


def test_product_rejects_mixed_primes():
    with pytest.raises(DomainError):
        product(simple(5, 1), simple(7, 1))


def test_sum_adds_multiplicities_and_distributes_over_the_product():
    rng = random.Random(61)
    for p in (2, 3, 5, 7, 13):
        for _ in range(5):
            x, y, z = (random_element(rng, p) for _ in range(3))
            assert (x + y).multiplicities == tuple(a + b for a, b in zip(x.multiplicities, y.multiplicities))
            assert product(x + y, z) == product(x, z) + product(y, z)
    with pytest.raises(DomainError):
        simple(5, 1) + simple(7, 1)
    with pytest.raises(TypeError):
        simple(5, 1) + 1


# -- dimensions -----------------------------------------------------------------


def test_cat_dim_examples():
    assert cat_dim(FusionElement.unit(7)) == FpScalar(1, 7)
    for p in (3, 5, 7, 11):
        assert cat_dim(simple(p, p - 1)) == FpScalar(-1, p)
    assert cat_dim(FusionElement(5, (0, 1, 0, 1))) == FpScalar(1, 5)


def perron_frobenius_dim(x, tol=1e-12, max_iter=100000):
    """Largest eigenvalue of the multiplication matrix of x, by power iteration.

    Iterates on M + I so periodic multiplication matrices (permutations)
    still converge.  Column j of M is the product x (x) L_j.
    """
    n = x.p - 1
    M = np.array([product(x, simple(x.p, j)).multiplicities for j in range(1, n + 1)], dtype=float).T
    shifted = M + np.eye(n)
    v = np.ones(n)
    lam = 0.0
    for _ in range(max_iter):
        w = shifted @ v
        new_lam = float(np.max(w))
        w /= new_lam
        if abs(new_lam - lam) < tol and float(np.max(np.abs(w - v))) < tol:
            return new_lam - 1.0
        v, lam = w, new_lam
    raise RuntimeError("power iteration did not converge")


def test_fp_dim_examples():
    with mp.workdps(WORKING_DPS):
        assert fp_dim(FusionElement.unit(11)) == 1
        golden = (1 + mp.sqrt(5)) / 2
        assert abs(as_mpf(fp_dim(simple(5, 2))) - golden) < mp.mpf("1e-40")
        # [3] at p = 7 is 1 + 2cos(2pi/7), the largest root of x^3 - 2x^2 - x + 1
        roots = mp.polyroots([1, -2, -1, 1])
        largest = max(r.real for r in roots)
        assert abs(as_mpf(fp_dim(simple(7, 3))) - largest) < mp.mpf("1e-30")
        assert abs(as_mpf(fp_dim(simple(7, 3))) - mp.mpf("2.2469796037174670610500097680")) < mp.mpf("1e-27")


def test_fp_dim_is_the_sum_of_q_integers():
    # the folded weights in one recurrence, against one q-integer per label
    rng = random.Random(61)
    with mp.workdps(WORKING_DPS):
        for p in (2, 3, 5, 7, 13, 23, 101, 397):
            for _ in range(5):
                x = random_element(rng, p, max_mult=9)
                terms = sum(m * as_mpf(q_int(p, k)) for k, m in enumerate(x.multiplicities, start=1))
                assert abs(as_mpf(fp_dim(x)) - terms) <= mp.mpf("1e-45") * terms, p
            for k in range(1, p):
                assert fp_dim(simple(p, k)) == q_int(p, k)


def test_dimension_homomorphisms():
    rng = random.Random(47)
    with mp.workdps(WORKING_DPS):
        eps = mp.mpf("1e-30")
        for p in PRIMES_19:
            for _ in range(4):
                x, y = random_element(rng, p), random_element(rng, p)
                xy = product(x, y)
                assert cat_dim(xy) == cat_dim(x) * cat_dim(y)
                assert abs(as_mpf(fp_dim(xy)) - as_mpf(fp_dim(x)) * as_mpf(fp_dim(y))) < eps


def test_fp_dim_matches_perron_frobenius_eigenvalue():
    rng = random.Random(53)
    for p in PRIMES_19:
        for k in range(1, p):
            assert abs(float(fp_dim(simple(p, k))) - perron_frobenius_dim(simple(p, k))) < 1e-11
        x = random_element(rng, p)
        assert abs(float(fp_dim(x)) - perron_frobenius_dim(x)) < 1e-10


# -- invertibility ------------------------------------------------------------------


def test_invertibility_examples():
    for p in (3, 5, 7, 11):
        assert is_invertible(simple(p, 1))
        assert is_invertible(simple(p, p - 1))
    assert not is_invertible(simple(5, 3))
    assert not is_invertible(2 * simple(5, 1))
    with pytest.raises(DomainError):
        is_invertible(FusionElement.zero(5))


def test_simple_square_forces_invertibility():
    # if the square of a basis label is again a single basis label, the
    # label is invertible
    for p in PRIMES_19:
        for k in range(1, p):
            square = fusion(p, k, k)
            if square.length == 1:
                assert is_invertible(simple(p, k))


def test_fusion_keeps_no_table_at_module_level():
    # every product is read off the Clebsch-Gordan range, so no cache grows with p^2
    list(fusion_table(13))
    assert [name for name, value in vars(verlinde).items() if hasattr(value, "cache_info")] == []


def test_fusion_element_constructors_refuse_a_huge_prime_at_once():
    # p - 1 = 2^31 - 2 multiplicities would be a tuple of about 16 GB
    p = 2**31 - 1
    for make in (FusionElement.zero, FusionElement.unit, lambda q: FusionElement.simple(q, 2)):
        with pytest.raises(CapExceeded, match="exceeds the cap"):
            make(p)
    # below the cap they answer as before
    assert 17 - 1 <= FUSION_ENTRY_CAP and FusionElement.zero(17).is_zero and FusionElement.unit(17).length == 1


def test_plus_subring_predicate():
    assert in_plus_subring(FusionElement(7, (1, 0, 2, 0, 0, 0)))
    assert not in_plus_subring(FusionElement(7, (0, 1, 0, 0, 0, 0)))


# -- the central oracle equivalence ---------------------------------------------------


def test_fusion_matches_jordan_blocks_up_to_13():
    for p in (2, 3, 5, 7, 11, 13):
        singles = {k: JordanModule(p, 1, (k,)) for k in range(1, p + 1)}
        for m in range(1, p):
            for n in range(m, p):
                via_blocks = to_verlinde(jordan_tensor(singles[m], singles[n]))
                assert via_blocks == fusion(p, m, n)
        # blocks of size p are annihilated
        for n in range(1, p + 1):
            assert to_verlinde(jordan_tensor(singles[p], singles[n])).is_zero


def test_semisimplification_is_monoidal_on_sums():
    rng = random.Random(59)
    for p in (3, 5, 7):
        for _ in range(8):
            blocks_a = tuple(rng.randint(1, p) for _ in range(rng.randint(1, 3)))
            blocks_b = tuple(rng.randint(1, p) for _ in range(rng.randint(1, 3)))
            a = JordanModule(p, 1, blocks_a)
            b = JordanModule(p, 1, blocks_b)
            assert to_verlinde(jordan_tensor(a, b)) == product(to_verlinde(a), to_verlinde(b))


# -- serialization ----------------------------------------------------------------------


def test_fusion_element_json_round_trip():
    x = FusionElement(5, (1, 0, 2, 0))
    assert FusionElement.from_json(x.to_json()) == x
