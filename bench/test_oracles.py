"""The benchmark's reference values, checked on small hand-worked cases."""

from fractions import Fraction
from math import comb, cos, factorial, pi, sqrt

import pytest

import oracles as o
from workloads import check_document


def test_partitions_and_hook_lengths():
    assert o.partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert o.partitions(5, 2, 3) == ((3, 2),)
    assert [o.hook_dim(lam) for lam in o.partitions(4)] == [1, 3, 2, 3, 1]
    assert o.hook_dim((4, 2, 1)) == 35  # 7! / (6*4*2*1 * 3*1 * 1)
    for d in range(1, 7):
        assert sum(o.hook_dim(lam) ** 2 for lam in o.partitions(d)) == factorial(d)


def test_hook_content_dimensions():
    assert o.schur_dim((2,), 2) == 3  # Sym^2 of K^2
    assert o.schur_dim((1, 1), 2) == 1  # Lambda^2 of K^2
    assert o.schur_dim((1, 1, 1), 2) == 0
    assert o.schur_dim((2, 1), 3) == 8  # adjoint of GL_3


def test_content_rank():
    assert o.content_rank(4, 2) == 14  # (4), (3,1), (2,2): 1 + 9 + 4
    assert o.content_rank(4, 3) == 23
    assert o.content_rank(5, 3) == 103  # drops (2,1,1,1) and (1^5)
    assert o.content_rank(5, 3, 7) == 102  # also (5), whose last content is 4 = -3 mod 7
    assert o.content_rank(3, Fraction(7, 2)) == 6  # full rank d! off the integers
    assert o.content_rank(4, 0, 5) == 0  # every diagram has a content-0 box
    assert o.homdim(2, 3) == 5  # f_(3)^2 + f_(2,1)^2


def test_bound_sums():
    assert o.plancherel_square_sum(5, 2) == 13  # (3,1) and (2,2) in the 2 x 3 box
    assert o.improved_parts(5, 2) == (5, 6, 5)  # M = dim Sym^4 K^2; 1+3+2; 3+2


def test_truncated_clebsch_gordan():
    assert o.cg(5, 3, 3) == [1, 0, 1, 0]
    assert o.cg(7, 2, 3) == [0, 1, 0, 1, 0, 0]
    assert o.cg(5, 4, 4) == [1, 0, 0, 0]  # L_{p-1} is invertible
    assert o.pretty([1, 0, 2, 0]) == "1 + 2.L3"


def test_jordan_tensor_closed_form():
    assert o.single_tensor_e1(5, 3, 3) == [5, 3, 1]
    assert o.single_tensor_e1(3, 2, 2) == [3, 1]
    assert o.single_tensor_e1(7, 3, 4) == [6, 4, 2]
    assert o.single_tensor_e1(5, 2, 5) == [5, 5]
    assert o.tensor_e1(5, [1, 2], [2]) == [3, 2, 1]
    assert o.verlinde_image(5, [5, 3, 3, 1]) == [1, 0, 2, 0]


def test_psi2_closed_form():
    assert o.psi2(7, 1) == [1, 0, 0, 0, 0, 0]
    assert o.psi2(5, 2) == [-1, 0, 1, 0]  # Sym^2 J2 = J3, Lambda^2 J2 = J1
    assert o.psi2(5, 3) == [1, 0, -1, 0]  # L5 -> 0
    assert o.psi2(5, 4) == [-1, 0, 0, 0]  # L7 -> -L3 cancels +L3
    assert o.square_difference(5, [1, 1, 0, 0]) == [0, 0, 1, 0]


def test_digits_and_lucas():
    assert o.base_digits(17, 3) == [2, 2, 1]
    assert o.base_digits(25, 5) == [0, 0, 1]
    assert o.base_digits(0, 5) == []
    assert o.lucas_binom(17, 5, 3) == 2  # C(17, 5) = 6188
    for p in (2, 3, 5):
        for n in range(40):
            assert [o.lucas_binom(n, k, p) for k in range(n + 1)] == [comb(n, k) % p for k in range(n + 1)]


def test_float_fp_dimension():
    assert o.fp_dim_float(5, [0, 0, 1, 0]) == pytest.approx((1 + sqrt(5)) / 2)
    assert o.fp_dim_float(7, [0, 1, 0, 0, 0, 0]) == pytest.approx(2 * cos(pi / 7))
    assert o.fp_dim_float(11, [3] + [0] * 9) == pytest.approx(3)
    assert o.growth_form([2, 0, 1, 0]) == "2 + [3]_q"
    assert o.growth_form([0, 2, 0, 0]) == "2[2]_q"


def test_document_check_catches_a_wrong_value():
    doc = {"p": 5, "i": 3, "j": 3, "m": [1, 0, 1, 0], "pretty": "1 + L3"}
    right = {"p": 5, "i": 3, "j": 3, "m": o.cg(5, 3, 3), "pretty": "1 + L3"}
    wrong = dict(right, m=[1, 0, 0, 0])
    assert check_document(doc, right) is None
    assert "m: got [1, 0, 1, 0]" in check_document(doc, wrong)
    bound = {"p": 5, "d": 2, "square_sum": 13, "bound": 13 ** (1 / 8)}
    assert check_document({"p": 5, "d": 2, "square_sum": 13, "bound": "1.37837"}, bound) is not None
    assert check_document({"p": 5, "d": 2, "square_sum": 13, "bound": repr(13 ** (1 / 8))}, bound) is None
