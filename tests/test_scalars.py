"""Exact arithmetic kernel tests.

The rank routine is checked against an independent oracle that enumerates
all square submatrix determinants (cofactor expansion), so the two paths
share no code.
"""

import math
import operator
import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import pytest
from mpmath import mp

from conftest import as_mpf

from semisimple.scalars import (
    PARSE_DEGREE_CAP,
    PRIME_CAP,
    WORKING_DPS,
    FUSION_ENTRY_CAP,
    CapExceeded,
    DomainError,
    FpScalar,
    T,
    TPolynomial,
    exact_det,
    exact_rank,
    is_prime,
    q_int,
    rank_mod_p,
    row_echelon_mod_p,
)
from semisimple import reals
from semisimple.cli import _fmt_real

PRIMES_TO_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


# -- oracles ----------------------------------------------------------------


def cofactor_det(m):
    """Recursive cofactor determinant over Fractions (independent of Bareiss)."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in m[1:]]
        total += (-1) ** j * Fraction(m[0][j]) * cofactor_det(minor)
    return total


def trial_division_is_prime(n):
    """Primality by trial division up to sqrt(n)."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def minor_rank(m):
    """Rank as the largest k with a nonzero k x k submatrix determinant."""
    rows, cols = len(m), len(m[0])
    for k in range(min(rows, cols), 0, -1):
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                sub = [[m[i][j] for j in ci] for i in ri]
                if cofactor_det(sub) != 0:
                    return k
    return 0


# -- polynomials ------------------------------------------------------------


def test_poly_eval_examples():
    f = TPolynomial([0, -1, 1])  # t^2 - t
    assert f.evaluate(1) == 0
    assert T.evaluate(5) == 5
    assert f.evaluate(FpScalar(3, 5)) == FpScalar(1, 5)  # 9 - 3 = 6 = 1 mod 5


def test_poly_eval_rational():
    f = T**2 - T
    assert f.evaluate(Fraction(7, 2)) == Fraction(35, 4)


def test_poly_product_evaluation_homomorphism():
    rng = random.Random(7)
    for _ in range(50):
        f = TPolynomial([rng.randint(-4, 4) for _ in range(rng.randint(0, 5))])
        g = TPolynomial([rng.randint(-4, 4) for _ in range(rng.randint(0, 5))])
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert (f * g).evaluate(x) == f.evaluate(x) * g.evaluate(x)


def test_poly_product_of_sparse_polynomials_matches_the_dense_loop():
    # terms far apart in degree, zeros between them: the product loops only
    # over nonzero terms and must equal the schoolbook sum over every pair
    rng = random.Random(11)

    def sparse():
        coeffs = [0] * 400
        for _ in range(rng.randint(1, 8)):
            coeffs[rng.randrange(400)] = rng.choice([-9, -2, -1, 1, 3, 7])
        return TPolynomial(coeffs)

    for _ in range(10):
        f, g = sparse(), sparse()
        dense = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
        for i, a in enumerate(f.coeffs):
            for j, b in enumerate(g.coeffs):
                dense[i + j] += a * b
        assert (f * g).coeffs == TPolynomial(dense).coeffs
        assert (f * g) == (g * f)
    assert (TPolynomial() * T).is_zero and (T * TPolynomial()).is_zero


def test_poly_normal_form_and_degree():
    assert TPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert TPolynomial([]).is_zero
    assert TPolynomial([0]).is_zero
    assert (T**3).degree() == 3


def test_poly_str_and_parse_round_trip():
    cases = [T**4 - T**2, 2 * T + 1, -T, TPolynomial([5]), TPolynomial(), T**2 - 3 * T + 2]
    for f in cases:
        assert TPolynomial.parse(str(f)) == f
    assert str(T**4 - T**2) == "t^4 - t^2"
    assert str(TPolynomial()) == "0"


def test_poly_constants_hash_as_the_ints_they_equal():
    assert TPolynomial((5,)) == 5 and 5 in {TPolynomial((5,))} and TPolynomial((5,)) in {5}
    assert TPolynomial() == 0 and 0 in {TPolynomial()}
    assert len({TPolynomial((2, 1)), 2 + T, T + 2}) == 1


def test_poly_constant_equals_no_bool():
    # True hashes as 1, so an equal bool would find the constant 1 in a set of polynomials
    assert TPolynomial((1,)) != True and True not in {TPolynomial((1,))}
    assert TPolynomial() != False and False not in {TPolynomial()}


def test_poly_reflected_subtraction_names_its_operator():
    assert 3 - T == TPolynomial((3, -1))
    with pytest.raises(TypeError, match="for -: 'str' and 'TPolynomial'"):
        "x" - T


def test_poly_exact_div():
    f = (T**2 - 1) * (T + 3)
    assert f.exact_div(T + 3) == T**2 - 1
    with pytest.raises(DomainError):
        (T**2 + 1).exact_div(T + 1)


def test_poly_horner_agreement():
    # evaluation at integers agrees with an explicit power expansion
    f = TPolynomial([3, -2, 0, 5])
    for x in range(-4, 5):
        assert f.evaluate(x) == 3 - 2 * x + 5 * x**3


# -- prime fields -----------------------------------------------------------


def test_fp_scalar_arithmetic():
    a = FpScalar(3, 5)
    assert a + a == FpScalar(1, 5)
    assert a * a == FpScalar(4, 5)
    assert a / FpScalar(2, 5) == FpScalar(4, 5)  # 3 * 3 = 9 = 4, since 2*3=6=1
    assert -a == FpScalar(2, 5)


def test_fp_scalar_equals_only_its_canonical_int_and_hashes_as_it():
    x = FpScalar(2, 5)
    assert x == 2 and 2 in {x} and x in {2}
    assert x != 7 and 7 not in {x}  # 7 = 2 mod 5, but equal values must hash alike
    assert FpScalar(1, 5) != True and True not in {FpScalar(1, 5)}


@pytest.mark.parametrize("x", [FpScalar(2, 5), TPolynomial((1,)), T])
@pytest.mark.parametrize("flag", [True, False])
def test_scalar_operators_refuse_bools(x, flag):
    # a bool is no number here, as it is no morphism coefficient: Python raises TypeError
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(x, flag)
        with pytest.raises(TypeError):
            op(flag, x)
    assert int(flag) + x - int(flag) == x  # the int of the same value is taken


def test_fp_scalar_requires_prime():
    with pytest.raises(DomainError):
        FpScalar(1, 6)
    with pytest.raises(DomainError):
        FpScalar(0, 1)


def test_fp_scalar_no_mixed_moduli():
    with pytest.raises(DomainError):
        FpScalar(1, 5) + FpScalar(1, 7)


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_matches_trial_division_below_10_5():
    assert all(is_prime.__wrapped__(n) == trial_division_is_prime(n) for n in range(-2, 10**5))


@pytest.mark.parametrize("n", [
    3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
    3825123056546413051,  # strong pseudoprime to every prime base up to 23
    2**61 - 1,  # a Mersenne prime; trial division would take 1.5 * 10^9 steps
])
def test_is_prime_on_strong_pseudoprimes_and_a_large_prime(n):
    assert is_prime(n) == (n == 2**61 - 1)
    if n != 2**61 - 1:
        assert not trial_division_is_prime(n)


def test_is_prime_false_from_the_cap_on():
    assert is_prime(PRIME_CAP - 59)  # the largest prime below 2^64
    assert not is_prime(PRIME_CAP + 13)  # prime, but past the cap


# -- q-integers -------------------------------------------------------------


def test_q_int_golden_ratio():
    with mp.workdps(WORKING_DPS):
        golden = (1 + mp.sqrt(5)) / 2
        assert abs(as_mpf(q_int(5, 2, 1)) - golden) < mp.mpf("1e-40")


def test_q_int_unit_and_frozen_value():
    for p in (3, 5, 7, 11):
        assert q_int(p, 1, 1) == 1
    # sin(3*pi/7)/sin(pi/7), evaluated directly at high precision
    with mp.workdps(WORKING_DPS):
        assert abs(as_mpf(q_int(7, 3, 1)) - mp.mpf("2.2469796037174670610500097680")) < mp.mpf("1e-27")


def test_q_int_of_label_one_is_exactly_one_at_p_2():
    # the q^2 quotient sin(2 pi / p) / sin(2 pi / p) is 0/0 at p = 2
    assert q_int(2, 1, 1) == 1
    assert q_int(2, 1, 2) == 1


def sine_quotient(p, k, power):
    """[k] at q^power as sin(pi k power/p) / sin(pi power/p), at the working precision.

    At power 2 the numerator's argument, rounded once, is ill-conditioned
    where 2k is near p: the quotient loses about log10(p) digits there."""
    if power == 1:
        k = min(k, p - k)
    if k == 1:
        return mp.mpf(1)
    return mp.sinpi(mp.mpf(k * power) / p) / mp.sinpi(mp.mpf(power) / p)


def assert_q_int_matches_the_sine_quotient(p, k, power):
    got, want = q_int(p, k, power), sine_quotient(p, k, power)
    assert abs(as_mpf(got) - want) < mp.mpf("1e-45") * abs(want), (p, k, power)
    assert _fmt_real(got) == mp.nstr(want, 30), (p, k, power)


def test_q_int_recurrence_matches_the_sine_quotient():
    with mp.workdps(WORKING_DPS):
        for p in filter(trial_division_is_prime, range(200)):
            for power in (1, 2):
                for k in range(1, p):
                    assert_q_int_matches_the_sine_quotient(p, k, power)
        # values both types hold exactly, one for each way of printing: zero, an integer,
        # exponents past either end of fixed notation, a rounding at the 31st digit that
        # carries, and a digit 1 far past the 30th
        for value, exact in ((Decimal(0), mp.mpf(0)), (Decimal(3), mp.mpf(3)), (Decimal(-3), mp.mpf(-3)),
                             (Decimal(2**110), mp.ldexp(1, 110)), (Decimal(f"{5**40}e-40"), mp.ldexp(1, -40)),
                             (Decimal(f"{(2**110 - 1) * 5**110}e-110"), 1 - mp.ldexp(1, -110)),
                             (Decimal(f"{(2**100 + 1) * 5**100}e-100"), 1 + mp.ldexp(1, -100))):
            assert _fmt_real(value) == mp.nstr(exact, 30), value


def test_q_int_recurrence_matches_the_sine_quotient_at_a_large_prime():
    # about p / 2 recurrence steps, where an error in cos(pi / p) is amplified most
    p = 1000003
    with mp.workdps(WORKING_DPS):
        for power in (1, 2):
            for k in (2, (p - 1) // 2, p - 2):
                assert_q_int_matches_the_sine_quotient(p, k, power)


def test_q_int_at_a_prime_past_the_entry_cap_walks_only_small_labels():
    # the recurrence walks k steps and builds no vector: a small label (after
    # the fold at power 1) answers at once, a label past FUSION_ENTRY_CAP is refused
    p = 2**61 - 1
    assert is_prime(p) and p < PRIME_CAP
    with mp.workdps(WORKING_DPS):
        for k, power in ((2, 1), (p - 2, 1), (2, 2), (3, 2)):
            assert_q_int_matches_the_sine_quotient(p, k, power)
    assert q_int(p, p - 2) == q_int(p, 2)
    for k, power in (((p - 1) // 2, 1), (FUSION_ENTRY_CAP + 1, 1), (p - 2, 2)):
        with pytest.raises(CapExceeded, match="q-integer label"):
            q_int(p, k, power)


def test_pi_literal_covers_the_largest_prime_below_the_cap(monkeypatch):
    # the fixed-point cosine reads pi off one 512-bit literal, which must hold the
    # guard bits of the largest prime below PRIME_CAP, the one that asks for the most bits
    with mp.workprec(600):
        assert reals._PI == int(mp.floor(mp.ldexp(mp.pi, reals._PI_BITS)))
    asked = []
    cospi = reals._cospi

    def recorded(a, b, bits):
        asked.append(bits)
        return cospi(a, b, bits)

    monkeypatch.setattr(reals, "_cospi", recorded)
    p = PRIME_CAP - 59
    with mp.workdps(WORKING_DPS):
        assert_q_int_matches_the_sine_quotient(p, 2, 2)
    assert len(asked) == 1 and asked[0] + reals._GUARD <= reals._PI_BITS


def test_q_int_palindrome_symmetry():
    # [k] = [p - k] exactly: both run the recurrence to the smaller label
    for p in PRIMES_TO_50:
        for k in range(1, p):
            assert q_int(p, k, 1) == q_int(p, p - k, 1)


def test_q_int_rejects_bad_labels():
    with pytest.raises(DomainError):
        q_int(5, 0, 1)
    with pytest.raises(DomainError):
        q_int(5, 5, 1)
    with pytest.raises(DomainError):
        q_int(5, 2, 3)
    with pytest.raises(DomainError):
        q_int(4, 2, 1)  # 4 is not a prime


# -- exact rank and determinant ----------------------------------------------


def test_exact_rank_examples():
    assert exact_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert exact_rank([[0, 0, 0, 0], [0, 0, 0, 0]]) == 0
    one = FpScalar(1, 5)
    assert exact_rank([[one, one], [one, one]]) == 1


def test_exact_rank_fractions():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 1)]]
    assert exact_rank(m) == 2
    m[1] = [3 * x for x in m[0]]
    assert exact_rank(m) == 1


def test_exact_rank_vs_minor_oracle():
    rng = random.Random(11)
    for _ in range(120):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        assert exact_rank(m) == minor_rank(m)


def test_exact_rank_mod_p_vs_minor_oracle():
    # the minor oracle works mod p by checking determinants against 0 mod p
    rng = random.Random(13)
    p = 5
    for _ in range(60):
        n = rng.randint(1, 4)
        raw = [[rng.randint(0, p - 1) for _ in range(n)] for _ in range(n)]
        m = [[FpScalar(x, p) for x in row] for row in raw]
        best = 0
        for k in range(n, 0, -1):
            found = False
            for ri in combinations(range(n), k):
                for ci in combinations(range(n), k):
                    sub = [[raw[i][j] for j in ci] for i in ri]
                    if cofactor_det(sub) % p != 0:
                        found = True
                        break
                if found:
                    break
            if found:
                best = k
                break
        assert exact_rank(m) == best


@pytest.mark.parametrize("p", [181, 191, 2**32 + 15])
def test_rank_mod_p_exact_above_the_int64_product_bound(p):
    # both sides of the int16 bound (p - 1)^2 < 2^15, and p = 2^32 + 15, where
    # (p - 1)^2 >= 2^63 and int64 products of two residues would wrap
    rng = random.Random(19)
    for _ in range(20):
        left = [[rng.randrange(p) for _ in range(5)] for _ in range(6)]
        right = [[rng.randrange(p) for _ in range(6)] for _ in range(5)]
        m = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)] for row in left]
        assert rank_mod_p(m, p) == 5


def test_rank_mod_p_reduces_entries_before_narrowing_them():
    # a Python int past int64, and int64 entries past int16, are residues once reduced
    import numpy as np

    assert rank_mod_p([[2**70, 1], [1, 1]], 5) == 2  # 2^70 = 4 mod 5
    assert rank_mod_p([[2**70 + 2, 1], [1, 1]], 5) == 1
    big = np.array([[40000, 3], [70004, 100001]], dtype=np.int64)  # [[2, 3], [4, 6]] mod 7
    assert rank_mod_p(big, 7) == 1
    assert rank_mod_p(big, 13) == 2
    assert row_echelon_mod_p(big, 7).tolist() == [[1, 5]]


def test_exact_det_matches_cofactor_oracle():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert exact_det([row[:] for row in m]) == cofactor_det(m)


def test_exact_det_polynomial():
    m = [[T**2, T], [T, T**2]]
    assert exact_det(m) == T**4 - T**2


def test_mod2_echelon_matches_generic_elimination():
    # the one elimination at p = 2 against a plain XOR elimination
    import numpy as np

    def plain_rank(m):
        a = m.copy() % 2
        rows, cols = a.shape
        r = 0
        for c in range(cols):
            if r == rows:
                break
            nz = np.nonzero(a[r:, c])[0]
            if nz.size == 0:
                continue
            piv = r + int(nz[0])
            a[[r, piv]] = a[[piv, r]]
            idx = np.nonzero(a[r + 1:, c])[0]
            if idx.size:
                a[r + 1 + idx] = (a[r + 1 + idx] + a[r]) % 2
            r += 1
        return r

    rng = np.random.default_rng(17)
    for _ in range(150):
        rows = int(rng.integers(1, 40))
        cols = int(rng.integers(1, 70))
        m = rng.integers(0, 2, size=(rows, cols)).astype(np.int64)
        want = plain_rank(m)
        assert rank_mod_p(m, 2) == want
        echelon = row_echelon_mod_p(m, 2)
        assert echelon.shape[0] == want
        if echelon.size:
            # the echelon rows span the same row space
            assert rank_mod_p(np.vstack([m, echelon]), 2) == want


def test_mod2_echelon_of_transposed_and_fortran_ordered_input():
    # the rank at p = 2 does not depend on the input's memory layout
    import numpy as np

    m = np.random.default_rng(5).integers(0, 2, size=(20, 200)).astype(np.int64)
    for x in (m, m.T):
        want = rank_mod_p(np.ascontiguousarray(x), 2)
        assert rank_mod_p(x, 2) == want
        assert rank_mod_p(np.asfortranarray(x), 2) == want


def test_poly_parse_refuses_a_degree_past_the_cap_before_allocating():
    assert TPolynomial.parse(f"t^{PARSE_DEGREE_CAP}") == TPolynomial([0] * PARSE_DEGREE_CAP + [1])
    for text in (f"t^{PARSE_DEGREE_CAP + 1}", "1 + t^100000000000"):
        with pytest.raises(CapExceeded):
            TPolynomial.parse(text)


def test_poly_power_squares_repeatedly(monkeypatch):
    # n multiplications would make T**4000 quadratic; squaring makes at most two per bit of n
    calls = 0
    mul = TPolynomial.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(TPolynomial, "__mul__", counted)
    assert T**4000 == TPolynomial([0] * 4000 + [1])
    assert calls <= 2 * math.ceil(math.log2(4000)) + 1
    monkeypatch.undo()
    assert T**60000 == TPolynomial([0] * 60000 + [1])
    for n in range(41):
        assert (1 + T)**n == TPolynomial([math.comb(n, k) for k in range(n + 1)])
    with pytest.raises(DomainError):
        T**-1
