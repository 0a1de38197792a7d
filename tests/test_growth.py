"""Growth invariant tests.

Every numeric claim has an exact counterpart: growth rates are compared
on multiplicity vectors, digit extraction against base-p expansions and
against dividing out one (1 + z) at a time, the binomial exterior-power
dimensions against the Jordan types of the induced matrices, and the
recovery of multiplicities against the directly counted blocks and
against the integer linear system over Z[q] that the two growth
identities form.  The empirical length sequence is used only as a
convergence witness.
"""

import decimal
import json
import os
import random
import subprocess
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

from conftest import as_mpf, rounded_root

from semisimple.growth import (
    GrowthRate,
    PadicDigits,
    binomials_mod_p,
    exterior_dimension_sequence,
    growth_rate,
    improved_bound,
    invariant_report,
    module_growth_rate,
    padic_digits,
    plancherel_bound,
    plancherel_square_sum,
    recover_multiplicities,
    square_difference_vector,
    tensor_power_length,
)
from semisimple import modrep, reals
from semisimple.cli import main
from semisimple.modrep import JordanModule, ext2, exterior_power, sym2, to_verlinde
from semisimple.partitions import box_partitions, dimensions
from semisimple.scalars import WORKING_DPS, CapExceeded, DomainError, FpScalar, q_int
from semisimple.verlinde import FusionElement, fp_dim, is_invertible


def J(p, *blocks):
    return JordanModule(p, 1, blocks)


def simple(p, k):
    return FusionElement.simple(p, k)


def base_p_digits(n, p):
    digits = []
    while n:
        digits.append(n % p)
        n //= p
    return tuple(digits)


def random_small_module(rng, p, max_dim):
    blocks = []
    remaining = rng.randint(1, max_dim)
    while remaining > 0:
        b = rng.randint(1, remaining)
        blocks.append(b)
        remaining -= b
    return JordanModule(p, 1, tuple(blocks))


# -- lengths and rates --------------------------------------------------------


def test_tensor_power_length_examples():
    for n in (1, 3, 6):
        assert tensor_power_length(FusionElement.unit(7), n) == 1
    assert tensor_power_length(simple(5, 3), 2) == 2
    assert tensor_power_length(simple(5, 3), 4) == 5
    with pytest.raises(DomainError):
        tensor_power_length(FusionElement.zero(5), 1)


def test_length_supermultiplicative():
    rng = random.Random(61)
    for p in (3, 5, 7, 11, 13):
        for _ in range(6):
            m = tuple(rng.randint(0, 2) for _ in range(p - 1))
            if not any(m):
                continue
            x = FusionElement(p, m)
            for n in range(1, 5):
                for k in range(1, 9 - n):
                    assert tensor_power_length(x, n + k) >= tensor_power_length(
                        x, n
                    ) * tensor_power_length(x, k)


def test_length_roots_approach_fp_dim_from_below():
    rng = random.Random(67)
    with mp.workdps(WORKING_DPS):
        one_plus = 1 + mp.mpf("1e-12")
        for p in (5, 7, 11):
            for _ in range(4):
                m = tuple(rng.randint(0, 2) for _ in range(p - 1))
                if not any(m):
                    continue
                x = FusionElement(p, m)
                limit = as_mpf(fp_dim(x))
                for n in range(1, 11):
                    root = mp.root(mp.mpf(tensor_power_length(x, n)), n)
                    assert root <= limit * one_plus
                # monotone along divisor chains
                for a, b in [(1, 2), (2, 4), (4, 8), (1, 3), (3, 9), (2, 6), (5, 10)]:
                    ra = mp.root(mp.mpf(tensor_power_length(x, a)), a)
                    rb = mp.root(mp.mpf(tensor_power_length(x, b)), b)
                    assert ra <= rb * one_plus


def test_growth_rate_basics():
    r = growth_rate(FusionElement.unit(5))
    assert r.m == (1, 0, 0, 0)
    assert r.numeric == 1
    with pytest.raises(DomainError):
        growth_rate(FusionElement.zero(5))


def test_growth_rate_equality_is_exact_not_numeric():
    # [1] and [4] at p = 5 both evaluate to 1.0 but are different rates
    r1 = GrowthRate(5, (1, 0, 0, 0))
    r4 = GrowthRate(5, (0, 0, 0, 1))
    with mp.workdps(WORKING_DPS):
        assert abs(as_mpf(r1.numeric) - as_mpf(r4.numeric)) < mp.mpf("1e-40")
    assert r1 != r4
    assert r1 == GrowthRate(5, [1, 0, 0, 0]) and hash(r1) == hash((5, (1, 0, 0, 0)))
    assert len({r1, r4, GrowthRate(5, (1, 0, 0, 0))}) == 2


def test_growth_rate_validates_like_a_fusion_element_and_computes_its_value():
    for p, m in ((4, (1, 0, 0)), (5, (1, 0, 0)), (5, (1, 0, 0, -1))):
        with pytest.raises(DomainError):
            GrowthRate(p, m)
    with pytest.raises(TypeError):
        GrowthRate(5, (1, 0, 0, 0), numeric=3)
    assert GrowthRate(5, (1, 0, 0, 0)).numeric == 1


def test_growth_rate_additivity():
    r = growth_rate(FusionElement(7, (1, 1, 0, 0, 0, 0)))
    with mp.workdps(WORKING_DPS):
        expected = 1 + 2 * mp.cospi(mp.mpf(1) / 7)  # 1 + [2] via the half-angle form
        assert abs(as_mpf(r.numeric) - expected) < mp.mpf("1e-40")


def test_module_growth_rate_examples():
    for p in (5, 7, 11, 13):
        for d in range(1, p):
            rate = module_growth_rate(J(p, d))
            assert rate.m == tuple(1 if k == d else 0 for k in range(1, p))
    with pytest.raises(DomainError):
        module_growth_rate(J(5, 5))
    doubled = module_growth_rate(J(5, 2, 2))
    with mp.workdps(WORKING_DPS):
        assert abs(as_mpf(doubled.numeric) - (1 + mp.sqrt(5))) < mp.mpf("1e-40")
    assert doubled.exact_form == "2[2]_q"


def test_each_dimension_takes_one_cosine_and_no_sine(monkeypatch):
    # q-integers come from the recurrence: one fixed-point cosine per call, never one per
    # label (no module computes a sine: test_source.test_no_module_computes_a_sine)
    calls = Counter()
    cospi = reals._cospi

    def counted(*args):
        calls["cospi"] += 1
        return cospi(*args)

    monkeypatch.setattr(reals, "_cospi", counted)
    rng = random.Random(29)
    for p in (2, 3, 13, 101):
        m = [rng.randrange(3) for _ in range(p - 1)]
        m[-1] += 1
        for compute in (lambda: fp_dim(FusionElement(p, m)), lambda: GrowthRate(p, m),
                        lambda: q_int(p, p - 1), lambda: q_int(p, (p + 1) // 2, 2)):
            calls.clear()
            compute()
            assert calls == {"cospi": 1}, p


def test_growth_rate_of_a_lone_middle_label_at_a_large_prime_in_bounded_time():
    # a lone label near p / 2 walks about p / 2 recurrence steps; building the
    # p - 1 multiplicities costs about as much again.  Best of three, so that a
    # busy host does not fail it.
    p = 1000003
    m = FusionElement.simple(p, (p - 1) // 2).multiplicities
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        rate = GrowthRate(p, m)
        best = min(best, time.perf_counter() - start)
    assert best < 2
    assert rate.numeric == q_int(p, (p - 1) // 2)


# -- multiplicity recovery -------------------------------------------------------


def qpow_vec(p, exp):
    """q^exp on the basis 1, q, ..., q^(p-2) of Z[q], q a primitive 2p-th root
    of unity: q^p = -1 and 1 - q + q^2 - ... + q^(p-1) = 0."""
    e = exp % (2 * p)
    sign = 1
    if e >= p:
        sign, e = -1, e - p
    if e < p - 1:
        return [sign if j == e else 0 for j in range(p - 1)]
    return [sign * (-1) ** (j + 1) for j in range(p - 1)]


def qint_vec(p, k, power):
    """[k] at q^power on the same basis: the sum of q^(power*(k-1-2i))."""
    acc = [0] * (p - 1)
    for i in range(k):
        for j, c in enumerate(qpow_vec(p, power * (k - 1 - 2 * i))):
            acc[j] += c
    return acc


def zq_system_recover(p, cases):
    """Both growth identities as one 2(p-1) x (p-1) system over Z, in the
    power basis of Z[q], solved by Gauss-Jordan elimination over Fractions
    for the right-hand sides of all (growth_vec, square_diff_vec) cases at
    once.  Each outcome is a multiplicity tuple or a refusal message."""
    n = p - 1
    rows = [[Fraction(0)] * (n + len(cases)) for _ in range(2 * n)]
    for k in range(1, p):
        for i, (a, b) in enumerate(zip(qint_vec(p, k, 1), qint_vec(p, k, 2))):
            rows[i][k - 1] += a
            rows[n + i][k - 1] += b
            for col, (g, s) in enumerate(cases, start=n):
                rows[i][col] += g[k - 1] * a
                rows[n + i][col] += s[k - 1] * a
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[r])]
        r += 1
    out = []
    for col in range(n, n + len(cases)):
        solution = [row[col] for row in rows[:n]]
        if any(row[col] for row in rows[r:]):
            out.append("inconsistent growth data")
        elif r < n:
            out.append("growth data does not determine the multiplicities")
        elif any(x.denominator != 1 or x < 0 for x in solution):
            out.append("no nonnegative integral solution for the multiplicities")
        else:
            out.append(tuple(int(x) for x in solution))
    return out


def outcome(f, *args):
    try:
        return f(*args)
    except DomainError as exc:
        return str(exc)


def psi2_vector(p, m):
    """Sym^2 - Lambda^2 of sum_k m_k L_k in the q-integer basis, by the
    Clebsch-Gordan form Sym^2 V_k - Lambda^2 V_k = sum_i (-1)^i V_(2k-1-2i),
    read at q with [p]_q = 0 and [p + j]_q = -[j]_q."""
    out = [0] * (p - 1)
    for k, mult in enumerate(m, start=1):
        for i in range(k):
            j, sign = 2 * k - 1 - 2 * i, (-1) ** i
            if j > p:
                j, sign = j - p, -sign
            if j != p:
                out[j - 1] += sign * mult
    return out


def move_carriers(rng, p, vec):
    """The same value on other carriers: weight moved between [j] and [p-j]."""
    vec = list(vec)
    for j in range(1, p):
        t = rng.randint(min(0, vec[j - 1]), max(0, vec[j - 1]))
        vec[j - 1] -= t
        vec[p - j - 1] += t
    return vec



def test_recover_examples():
    v = J(5, 2)
    assert recover_multiplicities(5, (0, 1, 0, 0), square_difference_vector(v)) == (0, 1, 0, 0)
    u = J(5, 1)
    assert recover_multiplicities(5, (1, 0, 0, 0), square_difference_vector(u)) == (1, 0, 0, 0)
    w = J(7, 3)
    assert recover_multiplicities(
        7, to_verlinde(w).multiplicities, square_difference_vector(w)
    ) == (0, 0, 1, 0, 0, 0)


def test_recover_disambiguates_equal_values():
    # [1] and [4] agree numerically at p = 5; the square data must separate
    # them, whichever carrier expresses the growth value
    v = J(5, 4)
    assert recover_multiplicities(5, (1, 0, 0, 0), square_difference_vector(v)) == (0, 0, 0, 1)
    assert recover_multiplicities(5, (0, 0, 0, 1), square_difference_vector(v)) == (0, 0, 0, 1)


def test_recover_accepts_any_carrier_of_the_same_value():
    # [3] and [2] agree at p = 5, so either carrier describes the same growth
    v = J(5, 2)
    diff = square_difference_vector(v)
    assert recover_multiplicities(5, (0, 0, 1, 0), diff) == (0, 1, 0, 0)


def test_recover_rejects_inconsistent_data():
    diff = square_difference_vector(J(5, 2))
    with pytest.raises(DomainError):
        recover_multiplicities(5, (1, 0, 0, 0), diff)  # growth value 1 is impossible here
    with pytest.raises(DomainError):
        recover_multiplicities(2, (1,), (1,))


def test_square_identity_holds_numerically():
    # the growth of sym2 minus ext2 equals the multiplicity sum against the
    # squared-parameter q-integers, checked here at 50 digits as a witness
    rng = random.Random(83)
    with mp.workdps(WORKING_DPS):
        eps = mp.mpf("1e-35")
        for p in (5, 7, 11):
            for _ in range(10):
                v = random_small_module(rng, p, p - 1)
                m = to_verlinde(v).multiplicities
                lhs = as_mpf(fp_dim(to_verlinde(sym2(v)))) - as_mpf(fp_dim(to_verlinde(ext2(v))))
                rhs = mp.fsum(
                    mult * as_mpf(q_int(p, k, 2)) for k, mult in enumerate(m, start=1) if mult
                )
                assert abs(lhs - rhs) < eps


def test_recover_matches_the_zq_system_on_module_data():
    rng = random.Random(89)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        data = []
        for _ in range(6):
            v = random_small_module(rng, p, min(p - 1, 8))
            data.append((to_verlinde(v).multiplicities, square_difference_vector(v)))
        for _ in range(6):
            m = tuple(rng.choice((0, 0, 1, 2)) for _ in range(p - 1))
            data.append((m, psi2_vector(p, m)))
        cases, expected = [], []
        for m, diff in data:
            cases += [(m, diff), (move_carriers(rng, p, m), move_carriers(rng, p, diff))]
            expected += [m, m]
        for _ in range(6):  # moved carriers with the growth value perturbed
            m, diff = rng.choice(data)
            g = move_carriers(rng, p, m)
            g[rng.randrange(p - 1)] += rng.choice((-1, 1))
            cases.append((g, diff))
        oracle = zq_system_recover(p, cases)
        assert oracle[:len(expected)] == expected
        assert [outcome(recover_multiplicities, p, g, s) for g, s in cases] == oracle


@given(st.data())
def test_recover_matches_the_zq_system_on_integer_vectors(data):
    p = data.draw(st.sampled_from((3, 5, 7, 11, 13, 17, 19, 23)))
    vec = st.lists(st.integers(-3, 6), min_size=p - 1, max_size=p - 1)
    g, s = data.draw(vec), data.draw(vec)
    assert [outcome(recover_multiplicities, p, g, s)] == zq_system_recover(p, [(g, s)])


def test_recover_round_trip_random_modules():
    rng = random.Random(71)
    for p in (3, 5, 7, 11, 13):
        for _ in range(200):
            v = random_small_module(rng, p, p - 1)
            m = to_verlinde(v).multiplicities
            assert recover_multiplicities(p, m, square_difference_vector(v)) == m


# -- structural reports ------------------------------------------------------------


def test_invariant_report_small_block():
    r = invariant_report(J(5, 3))
    assert r.checks() == {"ii": True, "iii": True, "iv": True}
    assert r.rate.exact_form == "[3]_q"
    with mp.workdps(WORKING_DPS):
        assert abs(r.rate.numeric - q_int(5, 3, 1)) == 0
        assert r.rate.numeric < 3


def test_invariant_report_boundary_block():
    r = invariant_report(J(5, 4))
    assert r.m == (0, 0, 0, 1)
    with mp.workdps(WORKING_DPS):
        assert abs(as_mpf(r.rate.numeric) - 1) < mp.mpf("1e-40")
    assert r.checks() == {"ii": True, "iii": True, "iv": True}


def test_invariant_report_negligible_block():
    r = invariant_report(J(7, 7))
    assert r.m == (0, 0, 0, 0, 0, 0)
    assert r.divisibility_mod_p
    assert r.dimension_match is None  # dim 7 exceeds p - 1
    assert r.growth_below_dim is True  # faithful, rate 0 < 7


def test_invariant_report_non_faithful():
    r = invariant_report(J(5, 1, 1))
    assert r.growth_below_dim is None
    assert r.dimension_match is True


def test_divisibility_holds_for_any_dimension():
    rng = random.Random(73)
    for p in (3, 5, 7):
        for _ in range(20):
            blocks = tuple(rng.randint(1, p) for _ in range(rng.randint(1, 4)))
            assert invariant_report(JordanModule(p, 1, blocks)).divisibility_mod_p


# -- p-adic digits -------------------------------------------------------------------


def test_padic_digits_unit_sequence():
    assert padic_digits(5, [1, 0, 0, 0, 0, 0]).digits == (0, 0)
    assert padic_digits(5, [1]).digits == ()


def test_padic_digits_binomial_example():
    dims = [comb(7, n) % 5 for n in range(8)]
    got = padic_digits(5, dims)
    assert got.digits == (2, 1)
    assert got.as_integer() == 7


def test_padic_digits_read_every_entry_type_alike():
    # plain ints are reduced in one pass; bools, numpy integers and F_p scalars by the loop
    import numpy as np

    row = [comb(7, n) for n in range(8)]  # 7 = 2 + 1*5, unreduced
    # an array, an iterator, a tuple: read once, entry by entry, never as raw memory
    for dims in (row, [x - 5 for x in row], list(map(np.int64, row)), [FpScalar(x, 5) for x in row],
                 [FpScalar(1, 5), *row[1:]], np.array(row), iter(row), tuple(row)):
        assert padic_digits(5, dims).digits == (2, 1)
    assert padic_digits(5, iter([1, 2, 1])).digits == padic_digits(5, [1, 2, 1]).digits == (2,)
    assert padic_digits(5, [True, True]).digits == padic_digits(5, [1, np.int8(1)]).digits == (1,)
    assert padic_digits(5, [True, False]).digits == (0,)
    with pytest.raises(DomainError, match="mixed moduli"):
        padic_digits(5, [1, FpScalar(2, 5), FpScalar(1, 7)])
    with pytest.raises(DomainError, match="start with 1"):
        padic_digits(5, [False, True])


def peel_digits(p, dims):
    """Digits by dividing out (1 + z) t times over the whole series, then
    requiring the quotient to be a series in z^p."""
    series = [int(x) % p for x in dims]
    if not series or series[0] != 1:
        raise DomainError("the dimension sequence must start with 1")
    digits = []
    while len(series) > 1:
        t = series[1]
        for _ in range(t):
            prev, out = 0, []
            for c in series:
                prev = (c - prev) % p
                out.append(prev)
            series = out
        if any(c for i, c in enumerate(series) if i % p):
            raise DomainError("dimension sequence is not a product of binomial factors")
        digits.append(t)
        series = series[0::p]
    return tuple(digits)


def test_padic_digits_match_the_peel():
    rng = random.Random(97)
    for p in (2, 3, 5, 7, 11, 13):
        for _ in range(120):
            n = rng.randint(0, 3 * p * p)
            seq = [comb(n, k) % p for k in range(rng.choice((n + 1, rng.randint(1, n + 2 * p))))]
            kind = rng.randrange(3)
            if kind == 1:  # one coefficient off
                i = rng.randrange(len(seq))
                seq[i] = (seq[i] + rng.randint(1, p - 1)) % p
            elif kind == 2:
                seq = [1] + [rng.randrange(p) for _ in range(rng.randint(0, 3 * p))]
            got = outcome(lambda: padic_digits(p, seq).digits)
            assert got == outcome(peel_digits, p, seq)
    # either side of byte residues, past p^2 so that the third digit's blocks are built; the
    # peel costs length * sum(t_i) here, so the row is the Lucas oracle's and the digits base p
    for p in (251, 257):
        n, row = lucas_row(p)
        seq = list(row)
        assert padic_digits(p, seq).digits == base_p_digits(n, p)
        seq[p * p + 2 * p] = (seq[p * p + 2 * p] + 1) % p  # one entry of the top block off
        with pytest.raises(DomainError, match="not a product"):
            padic_digits(p, seq)


def test_padic_digits_read_a_list_a_tuple_and_an_iterator_alike_past_byte_residues():
    p = 257
    n, row = lucas_row(p)
    for dims in (list(row), row, iter(row)):
        assert padic_digits(p, dims).digits == base_p_digits(n, p) == (2, 3, 1)


def test_lucas_row_with_every_level_zero_block():
    # first digit p - 1: the digit row C(p - 1, b) = (-1)^b fills all of z^0 .. z^(p - 1)
    p = 251
    n = p - 1 + 3 * p
    row = binomials_mod_p(n, p, n + 1)
    assert row == [comb(n, k) % p for k in range(n + 1)]
    assert padic_digits(p, row).digits == (p - 1, 3)


def test_padic_digits_lucas_random():
    rng = random.Random(79)
    for p in (2, 3, 5, 7):
        for _ in range(25):
            d = rng.randint(1, p**3)
            dims = [comb(d, n) % p for n in range(d + 1)]
            assert padic_digits(p, dims).digits == base_p_digits(d, p)


def lucas_binomial(n, k, p):
    """C(n, k) mod p as the product of C(n_i, k_i) over the base-p digits (Lucas)."""
    c = 1
    while k and c:
        c = c * comb(n % p, k % p) % p
        n, k = n // p, k // p
    return c


@lru_cache
def lucas_row(p):
    """n = p^2 + 3p + 2, digits (2, 3, 1), and its row mod p entry by entry, past p^2."""
    n = p * p + 3 * p + 2
    return n, tuple(lucas_binomial(n, k, p) for k in range(n + 1))


def test_binomials_mod_p_match_comb():
    for n in range(301):
        row = [comb(n, k) for k in range(n + 9)]
        for p in (2, 3, 5, 7):
            for length in (0, 1, n // 2, n + 1, n + 9):
                assert binomials_mod_p(n, p, length) == [c % p for c in row[:length]]
    for p in (251, 257):  # either side of byte residues, past p^2
        n, row = lucas_row(p)
        assert binomials_mod_p(n, p, n + 1) == list(row)
        assert binomials_mod_p(n, p, p * p + 5) == list(row[:p * p + 5])
    with pytest.raises(DomainError):
        binomials_mod_p(5, 4, 6)


_NEGATIVE_ROW = """
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))  # a digit list without end fails in memory, not in swap
from semisimple.growth import binomials_mod_p
from semisimple.scalars import DomainError
start = time.perf_counter()
try:
    binomials_mod_p(-1, 5, 3)
except DomainError:
    print(time.perf_counter() - start)
"""


def test_binomials_mod_p_refuse_a_negative_row_at_once():
    # divmod(-1, p) is (-1, p - 1), so a digit loop on n < 0 never ends:
    # run it in a child that the timeout and a 512 MB address-space limit stop
    src = str(Path(modrep.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _NEGATIVE_ROW], capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 1
    assert main(["padic", "--p", "5", "--binomial", "-1"]) == 2


def test_binomials_mod_p_refuse_a_negative_length():
    # the CLI refuses --length -1 before the call; the library refuses it as it refuses a negative n
    for length in (-1, -10**30):
        with pytest.raises(DomainError, match="length"):
            binomials_mod_p(5, 3, length)
    assert binomials_mod_p(5, 3, 0) == []


def test_binomials_mod_p_match_comb_on_sampled_entries_of_long_rows():
    # comb(n, k) takes seconds for k near n / 2 at n = 10^6, so k is sampled within 20000 of either end
    rng = random.Random(1009)
    n, p = 10**6, 5  # nine base-5 digits
    row = binomials_mod_p(n, p, n + 1)
    assert len(row) == n + 1
    ends = [*range(20000), *range(n - 20000, n + 1)]
    for k in (0, 1, 4, 5, 624, 625, 3125, 15625, n - 15625, n - 1, n, *rng.sample(ends, 10)):
        assert row[k] == comb(n, k) % p, k
    p = 10007
    n = 3 * p * p + 5 * p + 7  # three base-p digits, the last past any row under the cap
    length = 3 * p
    row = binomials_mod_p(n, p, length)
    for k in (0, 1, 6, 7, 8, p - 1, p, p + 7, p + 8, 2 * p + 3, 3 * p - 1, *rng.sample(range(length), 5)):
        assert row[k] == comb(n, k) % p, k


def test_padic_digits_at_a_huge_prime_cost_their_length():
    p = 2**61 - 1
    assert padic_digits(p, [1, 3, 3, 1]).digits == (3,)
    assert padic_digits(p, [1, 3, 3, 1, 0, 0]).digits == (3,)
    with pytest.raises(DomainError, match="not a product"):
        padic_digits(p, [1, 3, 3, 2])


_HUGE_PRIME_ROW = """
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))  # a table sized by p fails in memory, not in swap
from semisimple.growth import binomials_mod_p
p = 2**61 - 1
start = time.perf_counter()
row = binomials_mod_p(p - 1, p, 5)
assert row == [1, p - 1, 1, p - 1, 1], row
assert binomials_mod_p(p - 2, p, 5) == [1, p - 2, 3, p - 4, 5]
print(time.perf_counter() - start)
"""


def test_binomials_mod_p_at_a_huge_prime_in_bounded_time_and_memory():
    # a digit row or factorial table sized by the digit p - 1 would never finish:
    # run it in a child that the timeout and a 512 MB address-space limit stop
    src = str(Path(modrep.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _HUGE_PRIME_ROW], capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 1


def test_padic_digits_exterior_path():
    v = JordanModule(5, 1, (5, 2))
    seq = exterior_dimension_sequence(v)
    assert [x.value for x in seq] == [comb(7, n) % 5 for n in range(8)]
    assert padic_digits(5, seq).as_integer() == 7


def block_multisets(n, top):
    """Every multiset of block sizes <= top summing to n, largest first."""
    if n == 0:
        yield ()
    for first in range(min(n, top), 0, -1):
        for rest in block_multisets(n - first, first):
            yield (first,) + rest


def test_exterior_dimension_sequence_matches_the_induced_matrix_route():
    # every module of dimension <= 8 at p^e <= 64: the dimensions of the
    # Jordan types of the induced matrices, and the digits they give
    for p in (3, 5, 7, 11, 13):
        for e in (1, 2):
            if p**e > 64:
                continue
            for d in range(1, 9):
                for blocks in block_multisets(d, p**e):
                    v = JordanModule(p, e, blocks)
                    seq = exterior_dimension_sequence(v)
                    assert [FpScalar(exterior_power(v, k).dim, p) for k in range(d + 1)] == seq
                    assert padic_digits(p, seq).as_integer() == d


def test_exterior_dimension_sequence_builds_no_matrix(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("no induced matrix or rank profile is needed")

    for name in ("jordan_type", "_induced_matrix", "_wedge_type"):
        monkeypatch.setattr(modrep, name, refuse)
    seq = exterior_dimension_sequence(JordanModule(7, 2, (12, 2)))
    assert [x.value for x in seq] == [comb(14, n) % 7 for n in range(15)]
    assert main(["padic", "--p", "13", "--blocks", "12,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dims"] == [comb(13, n) % 13 for n in range(14)] and doc["digits"] == [0, 1]
    # the refusals of the exterior powers themselves stand, and come first
    with pytest.raises(CapExceeded, match="induced matrix of dimension 5005 exceeds the cap 4096"):
        exterior_dimension_sequence(JordanModule(13, 1, (12, 3)))
    with pytest.raises(DomainError, match="only offered for p > 2"):
        exterior_dimension_sequence(JordanModule(2, 1, (2, 1)))


def test_padic_digits_fail_loudly():
    with pytest.raises(DomainError):
        padic_digits(5, [1, 0, 1, 0, 0, 0])  # z^2 coefficient cannot appear
    with pytest.raises(DomainError):
        padic_digits(5, [0, 1])  # must start with 1
    with pytest.raises(DomainError):
        padic_digits(5, [1, FpScalar(1, 7)])  # mixed moduli


def test_padic_digits_validation():
    with pytest.raises(DomainError):
        PadicDigits(5, (5,))
    assert PadicDigits(5, (2, 1)).as_integer() == 7


# -- bounds ---------------------------------------------------------------------------


def test_plancherel_examples():
    assert plancherel_square_sum(5, 1) == 1
    assert plancherel_square_sum(5, 2) == 13  # dims 3 and 2 in the 2x3 box
    assert plancherel_bound(5, 1) == 1
    assert plancherel_bound(5, 2) == rounded_root(13, 8)


def test_plancherel_below_sharp_value():
    with mp.workdps(WORKING_DPS):
        eps = mp.mpf("1e-9")
        for p in (2, 3, 5, 7, 11, 13):
            for d in range(1, p):
                assert as_mpf(plancherel_bound(p, d)) <= as_mpf(q_int(p, d, 1)) + eps


def test_plancherel_cap():
    with pytest.raises(CapExceeded):
        plancherel_square_sum(53, 2)
    with pytest.raises(DomainError):
        plancherel_square_sum(5, 5)


def test_improved_bound_trivial_column():
    for p in (5, 7, 11):
        imp = improved_bound(p, 1)
        assert imp.max_schur_dim == 1
        assert imp.ratio == Fraction(1)
        with mp.workdps(WORKING_DPS):
            assert imp.bound == 1


def test_improved_bound_two_rows():
    imp = improved_bound(7, 2)
    assert imp.max_schur_dim == 7
    assert imp.max_partition == (6,)
    # four admissible shapes with at most 2 rows
    assert len(list(box_partitions(6, 2, 6))) == 4


def test_improved_bound_inequality_chain():
    # the exact inequality: the row-constrained sum times M dominates d^(p-1)
    for p, d in [(7, 2), (11, 3), (13, 4)]:
        imp = improved_bound(p, d)
        assert imp.row_sum * imp.max_schur_dim >= d ** (p - 1)
        row_sum = sum(dimensions(lam)[0] for lam in box_partitions(p - 1, d, p - 1))
        assert imp.row_sum == row_sum


# -- the small-growth sweep ------------------------------------------------------------


def test_non_invertible_simples_growth_floor():
    with mp.workdps(WORKING_DPS):
        eps = mp.mpf("1e-12")
        golden = (1 + mp.sqrt(5)) / 2
        equality_cases = []
        for p in (2, 3, 5, 7, 11, 13, 17, 19):
            for k in range(1, p):
                x = simple(p, k)
                if is_invertible(x):
                    continue
                value = as_mpf(growth_rate(x).numeric)
                assert value >= mp.sqrt(2) - eps
                if p > 2:
                    assert value >= golden - eps
                if abs(value - golden) < eps:
                    equality_cases.append((p, k))
        assert equality_cases == [(5, 2), (5, 3)]


def test_reals_neither_read_nor_change_the_callers_decimal_context():
    # every real is taken in a decimal context of its own: neither this thread's low precision
    # and floor rounding nor another thread that keeps changing its own context moves a digit
    def reals_of():
        return [fp_dim(FusionElement(23, tuple(range(22)))), q_int(101, 37, 2), plancherel_bound(13, 4),
                improved_bound(11, 3).bound, GrowthRate(7, (1, 2, 0, 0, 0, 1)).numeric]

    expected = reals_of()
    assert [len(x.as_tuple().digits) for x in expected] == [WORKING_DPS] * 5
    stop = threading.Event()

    def churn():
        own = decimal.getcontext()
        while not stop.is_set():
            own.prec, own.rounding = (3, decimal.ROUND_CEILING) if own.prec != 3 else (9, decimal.ROUND_DOWN)
            decimal.Decimal(1) / 3

    other = threading.Thread(target=churn)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    other.start()
    done = wrong = 0
    try:
        with decimal.localcontext() as caller:
            caller.prec, caller.rounding = 5, decimal.ROUND_FLOOR
            caller.clear_flags()
            end = time.perf_counter() + 0.5
            while time.perf_counter() < end:
                wrong += reals_of() != expected
                done += 1
            assert decimal.getcontext() is caller
            assert (caller.prec, caller.rounding) == (5, decimal.ROUND_FLOOR)
            assert [signal for signal, raised in caller.flags.items() if raised] == []
    finally:
        stop.set()
        other.join(10)
        sys.setswitchinterval(interval)
    assert not other.is_alive()
    assert done > 10 and wrong == 0


def test_reals_leave_mpmaths_global_precision_alone(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("mpmath's process-wide precision was changed")

    monkeypatch.setattr(mp, "workdps", refuse)
    assert fp_dim(FusionElement.simple(7, 3)) > 2
    assert invariant_report(JordanModule(7, 1, (3, 2))).growth_below_dim
    assert plancherel_bound(5, 2) > 1
    assert improved_bound(7, 2).bound > 1
    assert main(["invariants", "--p", "5", "--blocks", "3,2", "--bounds"]) == 0
    assert "b_numeric" in capsys.readouterr().out
