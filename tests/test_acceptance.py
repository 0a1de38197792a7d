"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (run pytest with -s
to see them, or rely on the verbose test names).  Criteria with a runtime
budget are timed with cold caches so the measurement is honest.
"""

import random
import time
from fractions import Fraction
from math import comb, factorial, prod

from mpmath import mp

from conftest import as_mpf, rounded_root

import semisimple.modrep as modrep_mod
from semisimple.brauer import (
    BiObject,
    DiagramMorphism,
    WalledDiagram,
    algebra_is_semisimple,
    compose,
    endomorphism_trace_form,
    gram_matrix,
    hom_basis,
    negligible_rank,
    schur_weyl_homdim,
)
from semisimple.growth import (
    growth_rate,
    invariant_report,
    module_growth_rate,
    padic_digits,
    plancherel_bound,
    plancherel_square_sum,
    recover_multiplicities,
    square_difference_vector,
    exterior_dimension_sequence,
)
from semisimple.modrep import JordanModule, jordan_tensor, to_verlinde
from semisimple.partitions import box_partitions, dimensions
from semisimple.scalars import WORKING_DPS, T, exact_det, exact_rank, q_int
from semisimple.verlinde import (
    FusionElement,
    fusion,
    fusion_table,
    is_invertible,
)

PRIMES_13 = (2, 3, 5, 7, 11, 13)


def report(number, ok, text):
    verdict = "PASS" if ok else "FAIL"
    print(f"CRITERION {number:2d}: {verdict} - {text}")
    assert ok, f"criterion {number}: {text}"


def cold_caches():
    modrep_mod._tensor_pair.cache_clear()
    modrep_mod._wedge_type.cache_clear()


def test_criterion_01_fusion_vs_block_decomposition():
    """Fusion rule == non-negligible Kronecker decomposition, p <= 13, < 10 s."""
    cold_caches()
    start = time.monotonic()
    ok = True
    for p in PRIMES_13:
        singles = {k: JordanModule(p, 1, (k,)) for k in range(1, p + 1)}
        for m in range(1, p + 1):
            for n in range(1, p + 1):
                via_blocks = to_verlinde(jordan_tensor(singles[m], singles[n]))
                expected = (
                    fusion(p, m, n)
                    if m < p and n < p
                    else FusionElement.zero(p)
                )
                if via_blocks != expected:
                    ok = False
    elapsed = time.monotonic() - start
    report(1, ok and elapsed < 10, f"fusion oracle equivalence in {elapsed:.2f}s (< 10 s)")


def test_criterion_02_ver5_table_value():
    """The p = 5 fusion table contains L3 (x) L3 = 1 + L3."""
    table = {(i, j): x for i, j, x in fusion_table(5)}
    ok = table[(3, 3)] == FusionElement(5, (1, 0, 1, 0))
    report(2, ok, "L3 (x) L3 = 1 + L3 in the p = 5 table")


def test_criterion_03_two_strand_endomorphism_algebra():
    """a o a = t a; two basis diagrams; Gram det t^4 - t^2; algebra radical at 0."""
    obj = BiObject(1, 1)
    basis = hom_basis(obj, obj)
    a = DiagramMorphism.from_diagram(WalledDiagram(obj, obj, ((0, 1), (2, 3))))
    ok = len(basis) == 2
    ok = ok and compose(a, a) == T * a
    ok = ok and exact_det(gram_matrix(obj, obj)) == T**4 - T**2
    form_det = exact_det(endomorphism_trace_form(obj))
    ok = ok and form_det == T**2
    for t in (-3, -2, -1, 0, 1, 2, 3, Fraction(1, 2), Fraction(-5, 3)):
        ok = ok and algebra_is_semisimple(obj, t) == (t != 0)
    report(3, ok, "two-strand algebra: a^2 = ta, Gram det t^4 - t^2, radical only at t = 0")


def test_criterion_04_gram_rank_vs_characters():
    """Gram rank at t = n equals the character hom dimension, r+s <= 3, < 60 s.

    The Gram matrix itself is eliminated (Bareiss, at most 6 x 6): at t = n
    negligible_rank sums over the same box as schur_weyl_homdim.
    """
    start = time.monotonic()
    ok = True
    for r in range(4):
        for s in range(4 - r):
            obj = BiObject(r, s)
            for n in range(1, 6):
                rank, quotient = negligible_rank(obj, obj, n)
                expected = schur_weyl_homdim(n, obj, obj)
                if rank != expected or quotient != expected or exact_rank(gram_matrix(obj, obj, n)) != expected:
                    ok = False
    elapsed = time.monotonic() - start
    report(4, ok and elapsed < 60, f"Gram rank vs characters in {elapsed:.2f}s (< 60 s)")


def test_criterion_05_hom_dimension_law():
    """|hom basis| = d! iff balanced, 0 otherwise, for all r,s,u,v <= 3."""
    ok = True
    for r in range(4):
        for s in range(4):
            for u in range(4):
                for v in range(4):
                    basis = hom_basis(BiObject(r, s), BiObject(u, v))
                    if r + v == s + u:
                        ok = ok and len(basis) == factorial(r + v)
                    else:
                        ok = ok and basis == []
    report(5, ok, "hom dimension law d! over all objects with entries <= 3")


def test_criterion_06_weighted_dimension_identity():
    """Sum of dim(irrep) * dim(Schur) over <= d rows equals d^N."""
    ok = True
    ns = set(range(1, 13)) | {p - 1 for p in (5, 7, 11, 13)}
    for d in range(1, 5):
        for n in sorted(ns):
            total = sum(prod(dimensions(lam, d)) for lam in box_partitions(n, d, n))
            ok = ok and total == d**n
    report(6, ok, "weighted dimension identity for d <= 4, N <= 12")


def test_criterion_07_growth_values():
    """Growth of the 2-block is [2]_q; p = 5 gives the golden ratio; 4-block gives 1."""
    ok = True
    for p in (5, 7, 11, 13):
        rate = module_growth_rate(JordanModule(p, 1, (2,)))
        ok = ok and rate.m == tuple(1 if k == 2 else 0 for k in range(1, p))
        ok = ok and rate.exact_form == "[2]_q"
    with mp.workdps(WORKING_DPS):
        golden = (1 + mp.sqrt(5)) / 2
        eps = mp.mpf("1e-12")
        ok = ok and abs(as_mpf(module_growth_rate(JordanModule(5, 1, (2,))).numeric) - golden) < eps
        boundary = module_growth_rate(JordanModule(5, 1, (4,)))
        ok = ok and boundary.m == (0, 0, 0, 1)
        ok = ok and abs(as_mpf(boundary.numeric) - 1) < eps
    report(7, ok, "growth values [2]_q, golden ratio at p = 5, and the boundary value 1")


def test_criterion_08_reports_and_recovery_on_random_modules():
    """Divisibility, dimension equality, and recovery for 500 modules per prime."""
    rng = random.Random(2024)
    ok = True
    for p in (5, 7, 11, 13):
        for _ in range(500):
            blocks = []
            remaining = rng.randint(1, p - 1)
            while remaining > 0:
                b = rng.randint(1, remaining)
                blocks.append(b)
                remaining -= b
            v = JordanModule(p, 1, tuple(blocks))
            rep = invariant_report(v)
            ok = ok and rep.divisibility_mod_p and rep.dimension_match
            recovered = recover_multiplicities(p, rep.m, square_difference_vector(v))
            ok = ok and recovered == rep.m
    report(8, ok, "reports and multiplicity recovery on 500 random modules per prime")


def test_criterion_09_padic_digit_extraction():
    """Binomial sequences give base-p digits; the exterior-power path gives 7."""
    rng = random.Random(4040)
    ok = True
    for p in (2, 3, 5, 7, 11, 13):
        for _ in range(100):
            d = rng.randint(1, p**3)
            dims = [comb(d, n) % p for n in range(d + 1)]
            digits = list(padic_digits(p, dims).digits)
            expected = []
            m = d
            while m:
                expected.append(m % p)
                m //= p
            ok = ok and digits == expected
    seq = exterior_dimension_sequence(JordanModule(5, 1, (5, 2)))
    ok = ok and padic_digits(5, seq).as_integer() == 7
    report(9, ok, "digit extraction matches base-p expansions; exterior path gives t = 7")


def test_criterion_10_bound_sanity():
    """plancherel(p, d) <= [d]_q + 1e-9 for p <= 23; the p=5, d=2 value is 13^(1/8)."""
    start = time.monotonic()
    ok = True
    with mp.workdps(WORKING_DPS):
        eps = mp.mpf("1e-9")
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            for d in range(1, p):
                if as_mpf(plancherel_bound(p, d)) > as_mpf(q_int(p, d, 1)) + eps:
                    ok = False
        ok = ok and plancherel_square_sum(5, 2) == 13
        ok = ok and plancherel_bound(5, 2) == rounded_root(13, 8)
    elapsed = time.monotonic() - start
    report(10, ok and elapsed < 30, f"bound sanity sweep in {elapsed:.2f}s (< 30 s)")


def test_criterion_11_two_group_odd_squares():
    """For Z/4 and Z/8, odd blocks square to the unit plus even blocks, < 5 s."""
    cold_caches()
    start = time.monotonic()
    ok = True
    for e in (2, 3):
        order = 2**e
        for k in range(1, order + 1, 2):
            v = JordanModule(2, e, (k,))
            square = jordan_tensor(v, v)
            odd_blocks = [b for b in square.blocks if b % 2 == 1]
            ok = ok and odd_blocks == [1]
    elapsed = time.monotonic() - start
    report(11, ok and elapsed < 5, f"odd-block squares over 2-groups in {elapsed:.2f}s (< 5 s)")


def test_criterion_12_growth_floor_sweep():
    """Non-invertible simples have growth >= sqrt(2), >= golden for p > 2,
    with equality exactly at the two p = 5 labels."""
    ok = True
    with mp.workdps(WORKING_DPS):
        eps = mp.mpf("1e-12")
        golden = (1 + mp.sqrt(5)) / 2
        equality = []
        for p in (2, 3, 5, 7, 11, 13, 17, 19):
            for k in range(1, p):
                x = FusionElement.simple(p, k)
                if is_invertible(x):
                    continue
                value = as_mpf(growth_rate(x).numeric)
                ok = ok and value >= mp.sqrt(2) - eps
                if p > 2:
                    ok = ok and value >= golden - eps
                if abs(value - golden) < eps:
                    equality.append((p, k))
        ok = ok and equality == [(5, 2), (5, 3)]
    report(12, ok, "growth floor sweep with the p = 5 equality cases identified")
