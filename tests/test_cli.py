"""Command-line surface tests: exit codes, determinism, round trips."""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semisimple
from semisimple import modrep, verlinde
from semisimple.brauer import BiObject, DiagramMorphism, compose, hom_basis, schur_weyl_homdim
from semisimple.cli import main
from semisimple.growth import padic_digits
from semisimple.modrep import JordanModule
from semisimple.scalars import CapExceeded, T, TPolynomial
from semisimple.verlinde import FusionElement, fusion


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fusion_single(capsys):
    code, out, _ = run(capsys, "fusion", "--p", "5", "--i", "3", "--j", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == [1, 0, 1, 0]
    assert FusionElement.from_json(doc) == fusion(5, 3, 3)


def test_fusion_table_contains_the_square(capsys):
    code, out, _ = run(capsys, "fusion", "--p", "5", "--table")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["table"]) == 16
    entry = next(row for row in doc["table"] if row["i"] == 3 and row["j"] == 3)
    assert entry["m"] == [1, 0, 1, 0]


def test_gram_symbolic_document(capsys):
    code, out, _ = run(capsys, "brauer", "gram", "--r", "1", "--s", "1", "--t", "symbolic")
    assert code == 0
    matrix = json.loads(out)
    assert matrix == [["t^2", "t"], ["t", "t^2"]]
    parsed = [[TPolynomial.parse(x) for x in row] for row in matrix]
    assert parsed == [[T**2, T], [T, T**2]]


def test_invariants_document(capsys):
    code, out, _ = run(capsys, "invariants", "--p", "5", "--blocks", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == [0, 0, 1, 0]
    assert doc["b"] == "[3]_q"
    assert doc["checks"] == {"ii": True, "iii": True, "iv": True}


def test_decompose_round_trip(capsys):
    code, out, _ = run(
        capsys, "decompose", "--p", "5", "--blocks", "3", "--op", "tensor", "--with-blocks", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert JordanModule.from_json(doc) == JordanModule(5, 1, (5, 3, 1))


def test_padic_document(capsys):
    code, out, _ = run(capsys, "padic", "--p", "5", "--blocks", "5,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["digits"] == [2, 1]
    assert doc["value"] == 7


def test_padic_binomial_path(capsys):
    code, out, _ = run(capsys, "padic", "--p", "3", "--binomial", "17")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 17
    assert doc["digits"] == [2, 2, 1]


def test_padic_binomial_matches_comb(capsys):
    # every n <= 300 is checked on growth.binomials_mod_p; here a sample, end to end
    for p in (2, 3, 5, 7):
        for n in [*range(0, 300, 7), 300]:
            length = n + 1 + p  # C(n, k) = 0 past k = n
            code, out, _ = run(capsys, "padic", "--p", str(p), "--binomial", str(n), "--length", str(length))
            assert code == 0
            doc = json.loads(out)
            assert doc["dims"] == [comb(n, k) % p for k in range(length)]
            assert doc["value"] == n


@pytest.mark.parametrize("argv, message", [
    (["--binomial", "20", "--length", "-3"], "--length takes a nonnegative integer"),
    (["--blocks", "2,1", "--length", "4"], "--length applies to --binomial only"),
], ids=["negative-length", "length-with-blocks"])
def test_padic_length_is_a_nonnegative_option_of_the_binomial_path(capsys, argv, message):
    code, out, err = run(capsys, "padic", "--p", "3", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    code, out, _ = run(capsys, "padic", "--p", "3", "--binomial", "20", "--length", "0")
    assert code == 3 and out == ""  # the empty series has no leading 1


@pytest.mark.parametrize("p", [2, 3, 5, 257])
@pytest.mark.parametrize("length", [None, 300, 2 * 600 + 257], ids=["default", "below", "above"])
def test_padic_binomial_digits_are_those_of_its_row(capsys, p, length):
    # the CLI reads t_i = dims[p^i] off the row it built; the library's reader, which checks
    # the whole row against the product of those digits, must agree
    argv = ["padic", "--p", str(p), "--binomial", "600"] + ([] if length is None else ["--length", str(length)])
    code, out, _ = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["dims"]) == (601 if length is None else length)
    digits = padic_digits(p, doc["dims"])
    assert (doc["digits"], doc["value"]) == (list(digits.digits), digits.as_integer())


@pytest.mark.parametrize("p, blocks", [(3, "3,3,2,1"), (5, "5,4,2"), (7, "6,1")])
def test_padic_blocks_digits_are_those_of_its_row(capsys, p, blocks):
    code, out, _ = run(capsys, "padic", "--p", str(p), "--blocks", blocks)
    assert code == 0
    doc = json.loads(out)
    digits = padic_digits(p, doc["dims"])
    assert (doc["digits"], doc["value"]) == (list(digits.digits), digits.as_integer())
    assert doc["value"] == sum(map(int, blocks.split(",")))


def test_bounds_documents(capsys):
    code, out, _ = run(capsys, "bounds", "plancherel", "--p", "5", "--d", "2")
    assert code == 0
    assert json.loads(out)["square_sum"] == 13
    code, out, _ = run(capsys, "bounds", "improved", "--p", "7", "--d", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["M"] == 7
    assert doc["ratio"] == "64/7"


def test_compose_round_trip(capsys):
    a = DiagramMorphism.from_json(
        {"source": [1, 1], "target": [1, 1], "pairs": [[0, 1], [2, 3]]}
    )
    code, out, _ = run(
        capsys,
        "brauer",
        "compose",
        "--f",
        json.dumps(a.to_json()),
        "--g",
        json.dumps(a.to_json()),
    )
    assert code == 0
    result = DiagramMorphism.from_json(json.loads(out))
    assert result == compose(a, a)
    assert result == T * a


def _identity_json(coeff: str) -> str:
    """The identity of [1, 0] times `coeff`, a JSON value spliced in as text:
    json.dumps cannot write an integer past Python's int-string digit limit."""
    return '{"source": [1, 0], "target": [1, 0], "terms": [{"pairs": [[0, 1]], "coeff": %s}]}' % coeff


@pytest.mark.parametrize("coeff, code, err", [
    ("9" * 4301, 2, "error: cannot parse morphism JSON: an integer has more than 4300 digits\n"),
    ('"%s"' % ("9" * 4301), 2, "error: cannot parse morphism JSON: an integer has more than 4300 digits\n"),
    ('"t^100000000000"', 4, "cap exceeded: term degree 100000000000 exceeds the cap 65536\n"),
    # malformed coefficients stay domain errors, although DomainError is a ValueError
    ('"t^65536 + x"', 3, "domain error: cannot parse polynomial term 'x'\n"),
    ("1.5", 3, "domain error: diagram coefficients must be integer polynomials, got float\n"),
], ids=["long-integer", "long-integer-string", "huge-degree", "bad-term", "float"])
def test_compose_refuses_oversized_numbers_at_once(capsys, coeff, code, err):
    start = time.perf_counter()
    got = run(capsys, "brauer", "compose", "--f", _identity_json(coeff), "--g", _identity_json("1"))
    assert time.perf_counter() - start < 1
    assert got[:2] == (code, "")
    assert got[2].startswith(err)
    assert "set_int_max_str_digits" not in got[2]


_SWAP_JSON = '{"source": [1, 1], "target": [1, 1], "pairs": [[0, 2], [1, 3]]}'


@pytest.mark.parametrize("f, err", [
    ('{"source": [1, 1], "target": [1, 1], "pairs": 5}', "'pairs' must be a list of endpoint pairs"),
    ('{"source": [1], "target": [1, 0], "pairs": []}', "'source' must be a list of two integers"),
    ('{"source": [1, 1], "target": [1, true], "pairs": []}', "'target' must be a list of two integers"),
    ('{"source": [1, 1], "target": [1, 1], "terms": 5}', "'terms' must be a list of objects"),
    ('{"source": [1, 1], "target": [1, 1], "terms": [[[0, 2], [1, 3]]]}', "'terms' must be a list of objects"),
    ("[]", "a morphism document must be a JSON object"),
    ('{"source": [1, 1], "target": [1, 1], "terms": [{"pairs": [[0, 2], [1, 3]], "coeff": true}]}',
     "diagram coefficients must be integer polynomials, got bool"),
], ids=["pairs-not-a-list", "source-of-one", "target-bool", "terms-not-a-list", "term-not-an-object", "not-an-object",
        "coeff-bool"])
def test_compose_refuses_a_malformed_document_as_a_domain_error(capsys, f, err):
    # a wrongly shaped field is refused like a malformed matching, naming the field
    assert run(capsys, "brauer", "compose", "--f", f, "--g", _SWAP_JSON) == (3, "", f"domain error: {err}\n")
    assert run(capsys, "brauer", "compose", "--f", _SWAP_JSON, "--g", f) == (3, "", f"domain error: {err}\n")


@pytest.mark.parametrize("f", [
    '{"source": [1, 0], "target": [0, 1], "pairs": [[0, 1]]}',
    '{"source": [2, 0], "target": [1, 1], "pairs": [[0, 1], [2, 3]]}',
], ids=["up-to-down-across-the-rows", "two-ups-in-one-row"])
def test_compose_refuses_a_pair_that_breaks_the_wall(capsys, f):
    # in each document the pair (0, 1) joins two outgoing endpoints: a bottom up and a top down, then two bottom ups
    err = "domain error: pair (0, 1) does not join an outgoing endpoint to an incoming one\n"
    assert run(capsys, "brauer", "compose", "--f", f, "--g", _SWAP_JSON) == (3, "", err)


def _endomorphisms_json(n: int, coeff: str) -> str:
    """The first n diagrams of End([3, 3]), each times `coeff`."""
    terms = [{"pairs": [list(p) for p in d.pairs], "coeff": coeff} for d in hom_basis(BiObject(3, 3), BiObject(3, 3))[:n]]
    return json.dumps({"source": [3, 3], "target": [3, 3], "terms": terms}, separators=(",", ":"))


@pytest.mark.parametrize("n", [20, 50])
def test_compose_work_is_refused_before_the_first_pair(capsys, n):
    # 1.4 KB of input at n = 20 took 20 s of coefficient products, every one 120001 entries long
    f = _endomorphisms_json(n, "t^60000")
    start = time.perf_counter()
    code, out, err = run(capsys, "brauer", "compose", "--f", f, "--g", f)
    assert time.perf_counter() - start < 1
    assert (code, out) == (4, "")
    assert err.startswith(f"cap exceeded: a product of {n} by {n} terms needs about ")


def test_compose_below_the_work_cap_answers(capsys):
    f = _endomorphisms_json(20, "t^600")
    code, out, _ = run(capsys, "brauer", "compose", "--f", f, "--g", f)
    assert code == 0
    g = DiagramMorphism.from_json(json.loads(f))
    assert DiagramMorphism.from_json(json.loads(out)) == compose(g, g)


@pytest.mark.parametrize("argv", [
    ["compose", "--f", _identity_json("9" * 3000), "--g", _identity_json("9" * 3000)],
    ["gram", "--r", "2", "--s", "1", "--t", "9" * 1500],
], ids=["compose", "gram"])
def test_answers_past_the_int_string_digit_limit_are_refused(capsys, argv):
    # a 6000-digit coefficient, and Gram entries t^3 of 4500 digits
    assert run(capsys, "brauer", *argv) == (4, "", "cap exceeded: the answer has an integer of more than 4300 digits\n")


def test_rank_document(capsys):
    code, out, _ = run(capsys, "brauer", "rank", "--r", "1", "--s", "1", "--t", "7/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 2 and doc["quotient_dim"] == 2
    code, out, _ = run(capsys, "brauer", "rank", "--r", "1", "--s", "1", "--t", "3", "--mod", "5")
    assert code == 0
    assert json.loads(out)["rank"] == 2


def test_negative_fraction_t_in_either_form(capsys):
    # argparse reads a bare -5/3 as an option; `--t -5/3` must work like `--t=-5/3`
    for argv in (["gram", "--r", "1", "--s", "3", "--u", "2", "--v", "4"], ["rank", "--r", "1", "--s", "1"]):
        spaced = run(capsys, "brauer", *argv, "--t", "-5/3")
        joined = run(capsys, "brauer", *argv, "--t=-5/3")
        assert spaced == joined
        assert spaced[0] == 0
    assert json.loads(joined[1])["t"] == "-5/3" and json.loads(joined[1])["rank"] == 2


def test_homdim_document(capsys):
    code, out, _ = run(capsys, "brauer", "homdim", "--n", "2", "--r", "3", "--s", "0")
    assert code == 0
    assert json.loads(out)["dim"] == 5


@pytest.mark.parametrize("n, r, s", [(2, 4000, 4000), (2000, 1000, 1000), (3, 1000, 1000), (30, 30, 30),
                                     (2, 30, 30)])
def test_homdim_past_the_degree_cap_is_refused_at_once(capsys, n, r, s):
    # each of degree r + s > 40; the first had an answer of more than 4300 digits
    start = time.perf_counter()
    code, out, err = run(capsys, "brauer", "homdim", "--n", str(n), "--r", str(r), "--s", str(s))
    assert time.perf_counter() - start < 1
    assert code == 4 and out == ""
    assert err == f"cap exceeded: character sum of degree {r + s} exceeds the cap 40\n"


def test_homdim_at_the_degree_cap(capsys):
    # n >= d: every partition of 40 counts, and the f_lam^2 sum to 40!
    code, out, _ = run(capsys, "brauer", "homdim", "--n", "40", "--r", "20", "--s", "20")
    assert code == 0
    assert json.loads(out)["dim"] == factorial(40)


@pytest.mark.parametrize("argv", [
    ["homdim", "--n", "2", "--r", "1", "--s", "1"],
    ["compose", "--f", '{"source": [1, 0], "target": [1, 0], "pairs": [[0, 1]]}',
     "--g", '{"source": [1, 0], "target": [1, 0], "pairs": [[0, 1]]}'],
], ids=["homdim", "compose"])
def test_brauer_degree_cap_is_an_option_of_gram_and_rank_only(capsys, argv):
    assert run(capsys, "brauer", *argv)[0] == 0
    code, out, err = run(capsys, "brauer", *argv, "--cap-brauer-degree", "6")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --cap-brauer-degree 6" in err


def test_csv_output(capsys):
    code, out, _ = run(capsys, "fusion", "--p", "5", "--i", "3", "--j", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,j,m1,m2,m3,m4"
    assert lines[1] == "3,3,1,0,1,0"


def test_byte_identical_output(capsys):
    first = run(capsys, "fusion", "--p", "7", "--table")
    second = run(capsys, "fusion", "--p", "7", "--table")
    assert first == second
    first = run(capsys, "invariants", "--p", "5", "--blocks", "2,2", "--bounds")
    second = run(capsys, "invariants", "--p", "5", "--blocks", "2,2", "--bounds")
    assert first == second


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "fusion", "--p", "5")  # neither --table nor --i/--j
    assert code == 2
    code, _, _ = run(capsys, "nonsense")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["selftest", "--format", "csv"], "unrecognized arguments: --format csv"),
    (["fusion", "--p", "5", "--table", "--i", "1", "--j", "9"], "error: --i and --j do not apply with --table"),
    (["decompose", "--p", "5", "--blocks", "3", "--op", "sym2", "--with-blocks", "9", "--k", "2"],
     "error: --with-blocks applies to --op tensor only"),
    (["decompose", "--p", "5", "--blocks", "3", "--op", "ext2", "--k", "2"], "error: --k applies to --op wedge only"),
    (["decompose", "--p", "5", "--blocks", "3", "--op", "tensor"], "error: --op tensor needs --with-blocks"),
    (["decompose", "--p", "5", "--blocks", "3", "--op", "wedge"], "error: --op wedge needs --k"),
    (["invariants", "--p", "5", "--blocks", "3", "--cap-bounds-p", "100"],
     "error: --cap-bounds-p applies to --bounds only"),
    (["padic", "--p", "5", "--binomial", "7", "--e", "3", "--cap-order", "1000"],
     "error: --cap-order applies to --blocks only"),
    (["padic", "--p", "5", "--binomial", "7", "--e", "3"], "error: --e applies to --blocks only"),
    (["padic", "--p", "5", "--binomial", "7", "--e", "1"], "error: --e applies to --blocks only"),
], ids=["selftest-format", "fusion-table-with-labels", "decompose-with-blocks", "decompose-k",
        "decompose-no-with-blocks", "decompose-no-k", "invariants-cap-without-bounds", "padic-cap-order-binomial",
        "padic-e-binomial", "padic-e-at-one-binomial"])
def test_an_option_the_request_does_not_read_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.rstrip("\n").endswith(message)


def test_a_cap_given_at_its_default_is_not_set(capsys):
    # the test _warn_caps uses: only a value other than the default counts as set
    assert run(capsys, "invariants", "--p", "5", "--blocks", "3", "--cap-bounds-p", "47") == \
        run(capsys, "invariants", "--p", "5", "--blocks", "3")
    assert run(capsys, "padic", "--p", "5", "--binomial", "7", "--cap-order", "64") == \
        run(capsys, "padic", "--p", "5", "--binomial", "7")


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "fusion", "--p", "6", "--table")
    assert code == 3
    assert "prime" in err


def test_cap_exceeded_exit_code(capsys):
    code, _, _ = run(capsys, "decompose", "--p", "2", "--e", "7", "--blocks", "3")
    assert code == 4
    code, _, _ = run(capsys, "bounds", "plancherel", "--p", "53", "--d", "2")
    assert code == 4


@pytest.mark.parametrize("p", ["2147483647", "2305843009213693951"])
def test_fusion_at_a_huge_prime_is_refused_at_once(capsys, p):
    # one product would list p - 1 multiplicities
    start = time.perf_counter()
    code, out, err = run(capsys, "fusion", "--p", p, "--i", "1", "--j", "1")
    assert time.perf_counter() - start < 1
    assert code == 4 and out == ""
    assert err == f"cap exceeded: fusion document of {int(p) - 1} multiplicities exceeds the cap 16777216\n"


def test_padic_binomial_past_the_document_cap_is_refused_at_once(capsys):
    # the row of N = 2^24 lists N + 1 entries, one past the document cap
    start = time.perf_counter()
    code, out, err = run(capsys, "padic", "--p", "5", "--binomial", "16777216")
    assert time.perf_counter() - start < 1
    assert code == 4 and out == ""
    assert err == "cap exceeded: binomial row of 16777217 entries exceeds the cap 16777216\n"
    code, out, _ = run(capsys, "padic", "--p", "5", "--binomial", "16777216", "--length", "3")
    assert code == 0 and json.loads(out)["dims"] == [1, 1, 0]


def test_invariants_at_a_huge_prime_is_refused_at_once(capsys):
    # the fusion-ring image of the module would list p - 1 multiplicities
    start = time.perf_counter()
    code, out, err = run(capsys, "invariants", "--p", "2147483647", "--blocks", "1", "--cap-order", "2147483647")
    assert time.perf_counter() - start < 1
    assert code == 4 and out == ""
    assert err == ("warning: overriding the group-order cap to 2147483647; large values need memory and time\n"
                   "cap exceeded: fusion-ring image of 2147483646 multiplicities exceeds the cap 16777216\n")


def test_fusion_cap_counts_every_multiplicity_of_the_table(capsys):
    # the table at p lists (p - 1)^3 multiplicities; p = 257 is the largest under the default cap
    assert verlinde.FUSION_ENTRY_CAP == 256**3
    code, _, err = run(capsys, "fusion", "--p", "7", "--table", "--cap-fusion-entries", "215")
    assert code == 4 and "216 multiplicities" in err
    code, out, err = run(capsys, "fusion", "--p", "7", "--table", "--cap-fusion-entries", "216")
    assert code == 0 and "warning" in err
    assert out == run(capsys, "fusion", "--p", "7", "--table")[1]
    code, _, _ = run(capsys, "fusion", "--p", "263", "--table")
    assert code == 4


@pytest.mark.parametrize("command", ["decompose", "invariants", "padic"])
def test_huge_order_exponent_is_refused_at_once(capsys, command):
    start = time.perf_counter()
    code, _, err = run(capsys, command, "--p", "2", "--e", "100000000000", "--blocks", "1")
    assert time.perf_counter() - start < 1
    assert code == 4
    assert err == "cap exceeded: group order 2^100000000000 exceeds the cap 64\n"


def test_cap_override_warns(capsys):
    code, out, err = run(
        capsys, "decompose", "--p", "2", "--e", "7", "--blocks", "3", "--op", "ext2",
        "--cap-order", "128",
    )
    assert code == 0
    assert "warning" in err
    assert json.loads(out)["blocks"] == [3]
    # like the other --cap-* flags, the default value given explicitly is no override
    code, out, err = run(capsys, "decompose", "--p", "2", "--e", "6", "--blocks", "3", "--op", "ext2",
                         "--cap-order", "64")
    assert (code, err) == (0, "")
    assert json.loads(out)["blocks"] == [3]


def test_cap_order_override_lasts_one_call(capsys):
    code, _, err = run(
        capsys, "decompose", "--p", "2", "--e", "7", "--blocks", "3", "--with-blocks", "2",
        "--cap-order", "128",
    )
    assert code == 0
    assert "warning" in err
    assert modrep.ORDER_CAP == 64
    with pytest.raises(CapExceeded):
        JordanModule(2, 7, (3,))


def test_cap_order_override_changes_no_global_during_the_call(capsys, monkeypatch):
    # another caller, here one inside the request, still gets the default cap
    tensor_pair = modrep._tensor_pair

    def checked(*args):
        with pytest.raises(CapExceeded):
            JordanModule(2, 7, (3,))
        return tensor_pair(*args)

    monkeypatch.setattr(modrep, "_tensor_pair", checked)
    code, out, _ = run(capsys, "decompose", "--p", "2", "--e", "7", "--blocks", "3", "--with-blocks", "2",
                       "--cap-order", "128")
    assert code == 0
    assert json.loads(out)["blocks"] == [4, 2]


@pytest.mark.parametrize("p, e, m", [(2, 6, 63), (7, 2, 42)])
def test_tensor_with_a_full_block_at_the_order_cap_in_bounded_time(capsys, p, e, m):
    # J_m (x) J_(p^e) = m J_(p^e): the full block is projective
    q = p**e
    modrep._tensor_pair.cache_clear()
    start = time.perf_counter()
    code, out, _ = run(capsys, "decompose", "--p", str(p), "--e", str(e), "--blocks", str(q), "--op", "tensor",
                       "--with-blocks", str(m))
    assert time.perf_counter() - start < 2
    assert code == 0
    assert json.loads(out)["blocks"] == [q] * m


def test_tensor_at_a_prime_above_the_int64_bound(capsys):
    # (p - 1)^2 > 2^63, and m + n - 1 <= p for every pair: Clebsch-Gordan
    p = 4294967311
    code, out, _ = run(capsys, "decompose", "--p", str(p), "--blocks", "5,4", "--with-blocks", "6,3",
                       "--cap-order", str(p))
    assert code == 0
    clebsch_gordan = [abs(m - n) + 2 * i - 1 for m in (5, 4) for n in (6, 3) for i in range(1, min(m, n) + 1)]
    assert json.loads(out)["blocks"] == sorted(clebsch_gordan, reverse=True)


def test_rank_at_the_degree_cap(capsys):
    # End([3,3]) has degree 6, the default cap: a 720 x 720 Gram matrix
    start = time.perf_counter()
    code, out, _ = run(capsys, "brauer", "rank", "--r", "3", "--s", "3", "--t", "3")
    assert time.perf_counter() - start < 30
    assert code == 0
    assert json.loads(out)["rank"] == 513


def test_improved_bound_at_the_prime_cap_in_bounded_time(capsys):
    # one pass over the ~10^5 partitions of 46 with at most 23 rows
    start = time.perf_counter()
    code, out, _ = run(capsys, "bounds", "improved", "--p", "47", "--d", "23")
    assert time.perf_counter() - start < 30
    assert code == 0
    doc = json.loads(out)
    assert Fraction(doc["ratio"]) == Fraction(23**46, doc["M"])
    assert sum(doc["max_partition"]) == 46 and len(doc["max_partition"]) <= 23
    assert doc["row_sum"] * doc["M"] >= 23**46 and doc["box_sum"] <= doc["row_sum"]


def test_square_refused_by_the_induced_cap_at_once(capsys):
    # Sym^2 of dimension 91 is 4186-dimensional: refused on the total
    # dimension before any block is split off or any matrix is built
    start = time.perf_counter()
    code, out, err = run(capsys, "decompose", "--p", "7", "--e", "2", "--blocks", "49,42", "--op", "sym2")
    assert time.perf_counter() - start < 1
    assert code == 4 and out == ""
    assert err == "cap exceeded: induced matrix of dimension 4186 exceeds the cap 4096\n"


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "1")
    assert code == 0
    assert out.count("ok") == 4
    assert "FAIL" not in out


def run_cli(*argv, guard):
    """The CLI in a fresh interpreter, failed if it runs past `guard` seconds."""
    src = str(Path(semisimple.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "semisimple.cli", *argv], capture_output=True, text=True,
                          env=env, timeout=guard)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_a_reader_that_stops_early_ends_the_request_with_exit_0():
    # the table at p = 61 is past any pipe buffer, so the CLI is still writing when the pipe closes
    src = str(Path(semisimple.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["fusion", "--p", "61", "--table", "--format", "csv"]
    proc = subprocess.Popen([sys.executable, "-m", "semisimple.cli", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"i,j,m1,")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0 and b"Traceback" not in err, err


def test_padic_exterior_powers_of_a_large_block_in_bounded_time():
    # Lambda^k J_12 at p = 13 has dimension C(12, k) = (-1)^k mod 13
    doc = run_cli("padic", "--p", "13", "--blocks", "12", guard=30)
    assert doc["dims"] == [1 if k % 2 == 0 else 12 for k in range(13)]
    assert doc["digits"] == [12] and doc["value"] == 12


def test_padic_exterior_powers_at_a_large_prime_in_bounded_time():
    # C(14, 7) = 3432 is under the induced-dimension cap; the digits need no power
    doc = run_cli("padic", "--p", "61", "--blocks", "14", guard=30)
    assert doc["dims"] == [comb(14, k) % 61 for k in range(15)]
    assert doc["digits"] == [14]


def test_rank_mod_a_prime_above_the_int64_bound_in_bounded_time():
    # at the degree-6 cap; 3 + c = 0 mod p only for the content c = -3
    doc = run_cli("brauer", "rank", "--r", "3", "--s", "3", "--t", "3", "--mod", "4294967311", guard=30)
    assert doc["rank"] == schur_weyl_homdim(3, BiObject(3, 3), BiObject(3, 3)) == 513


def test_exterior_square_at_the_induced_cap_in_bounded_time():
    # Lambda^2 (J_49 + J_42) = Lambda^2 J_49 + J_49 (x) J_42 + Lambda^2 J_42, 4095-dimensional;
    # the blocks are those of the rank profile of the whole 4095 x 4095 induced matrix
    doc = run_cli("decompose", "--p", "7", "--e", "2", "--blocks", "49,42", "--op", "ext2", guard=30)
    assert doc["blocks"] == [49] * 83 + [7] * 4


#: Runs the CLI on the argv in sys.argv[1:] with stdout discarded, and prints
#: the child's peak resident set (Linux: KiB); this interpreter has no other child.
_PEAK_RSS_PROBE = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "semisimple.cli", *sys.argv[1:]], stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only")
def test_fusion_table_csv_holds_one_row_at_a_time():
    # 65,536 rows of 256 multiplicities: held as one list they peaked at 158 MB, one row at a time at 17 MB
    src = str(Path(semisimple.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_PROBE, "fusion", "--p", "257", "--table", "--format", "csv"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 40 * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only")
def test_bounds_at_a_large_prime_in_bounded_memory():
    # the one partition (20010,): a table of every factorial up to 20010! peaked at 329 MB
    src = str(Path(semisimple.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_PROBE, "bounds", "plancherel", "--p", "20011", "--d", "1",
                           "--cap-bounds-p", "20011"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 40 * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only")
def test_fusion_table_json_holds_one_row_at_a_time():
    # 15,876 rows of 126 multiplicities: held as one document they peaked at 38 MB, one row at a time at 17 MB
    src = str(Path(semisimple.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_PROBE, "fusion", "--p", "127", "--table"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 28 * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only")
def test_padic_binomial_row_of_a_million_in_bounded_memory():
    # the row, its check and the document: 38 MB when each entry and column was a list of its own, now 32 MB
    src = str(Path(semisimple.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_PROBE, "padic", "--p", "5", "--binomial", "1000000"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 36 * 1024


def test_padic_binomial_row_at_a_huge_prime_costs_its_length():
    # one digit p - 1: C(p - 1, k) = (-1)^k mod p, five entries however large p is
    p = 2**61 - 1
    start = time.perf_counter()
    doc = run_cli("padic", "--p", str(p), "--binomial", str(p - 1), "--length", "5", guard=30)
    assert time.perf_counter() - start < 5
    assert doc["dims"] == [1, p - 1, 1, p - 1, 1]
    assert doc["digits"] == [p - 1] and doc["value"] == p - 1


def test_padic_large_binomial_in_bounded_time():
    n, p = 20000, 3
    doc = run_cli("padic", "--p", str(p), "--binomial", str(n), guard=30)
    assert doc["value"] == n
    assert len(doc["dims"]) == n + 1
    assert all(doc["dims"][k] == comb(n, k) % p for k in (0, 1, 2, 3, 81, 162, 243, 6561, 9999, 19683, n))


def test_padic_binomial_at_a_large_prime_in_bounded_time():
    # one digit, 20000 < p: the level check runs over 20001 terms once
    n, p = 20000, 20011
    doc = run_cli("padic", "--p", str(p), "--binomial", str(n), guard=30)
    assert doc["digits"] == [n] and doc["value"] == n
    assert len(doc["dims"]) == n + 1
    assert all(doc["dims"][k] == comb(n, k) % p for k in (0, 1, 2, 3, 4000, 9999, 10000, 19999, n))


#: Runs the CLI on the argv in sys.argv[1] (JSON; null: only `import semisimple`)
#: and prints the exit code, which of numpy and mpmath were imported, and
#: which modules of the package.
_IMPORT_PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
code = None
if argv is None:
    import semisimple
else:
    from semisimple.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
print(json.dumps([code, [name for name in ("numpy", "mpmath") if name in sys.modules],
                  sorted(name[len("semisimple."):] for name in sys.modules if name.startswith("semisimple."))]))
"""


FUSION = {"cli", "scalars", "verlinde"}
BRAUER = {"cli", "scalars", "partitions", "brauer"}
DECOMPOSE = {"cli", "scalars", "modrep"}
BOUNDS = {"cli", "scalars", "growth", "partitions", "reals"}
INVARIANTS = {"cli", "scalars", "modrep", "growth", "verlinde", "reals"}


REQUESTS = [
    (None, None, [], set()),
    (["fusion", "--p", "5", "--i", "3", "--j", "3"], 0, [], FUSION),
    (["fusion", "--p", "5", "--table"], 0, [], FUSION),
    (["padic", "--p", "3", "--binomial", "17"], 0, [], {"cli", "scalars", "growth"}),
    (["padic", "--p", "5", "--blocks", "5,2"], 0, [], {"cli", "scalars", "modrep", "growth"}),
    (["brauer", "homdim", "--n", "2", "--r", "3", "--s", "0"], 0, [], BRAUER),
    (["fusion", "--p", "5"], 2, [], FUSION),
    (["invariants", "--p", "5", "--blocks", "3,2"], 0, [], INVARIANTS),
    (["bounds", "plancherel", "--p", "5", "--d", "2"], 0, [], BOUNDS),
    (["bounds", "improved", "--p", "7", "--d", "2"], 0, [], BOUNDS),
    # ranks where F_p[S_d] is semisimple are read off the partitions of d
    (["brauer", "rank", "--r", "1", "--s", "1", "--t", "7/2"], 0, [], BRAUER),
    (["brauer", "rank", "--r", "2", "--s", "2", "--t", "3", "--mod", "7"], 0, [], BRAUER),
    # ranks at p <= d are read off the alcove tableaux of GL_n, n the residue of t
    (["brauer", "rank", "--r", "1", "--s", "1", "--t", "1", "--mod", "2"], 0, [], BRAUER),
    # tensor pairs and, at p odd, exterior squares of one block are graded Smith forms over Python ints
    (["decompose", "--p", "5", "--blocks", "3", "--op", "tensor", "--with-blocks", "3"], 0, [], DECOMPOSE),
    (["decompose", "--p", "5", "--blocks", "4,2", "--op", "ext2"], 0, [], DECOMPOSE),
    (["decompose", "--p", "5", "--blocks", "4,2", "--op", "sym2"], 0, [], DECOMPOSE),
    # exterior powers of a block larger than p whose size is not a power of p are dense rank
    # profiles: numpy, at p = 2 for the square and at every p for degree 3
    (["decompose", "--p", "2", "--e", "3", "--blocks", "5", "--op", "ext2"], 0, ["numpy"], DECOMPOSE),
    (["decompose", "--p", "3", "--e", "2", "--blocks", "7", "--op", "wedge", "--k", "3"], 0, ["numpy"], DECOMPOSE),
    # refusals load what the handler imports before it refuses
    (["decompose", "--p", "5", "--e", "3", "--blocks", "4"], 4, [], DECOMPOSE),
    (["padic", "--p", "2", "--blocks", "2"], 3, [], {"cli", "scalars", "modrep", "growth"}),
    (["padic", "--p", "5", "--binomial", "16777216"], 4, [], {"cli", "scalars", "growth"}),
    # the bounds of an invariants report, at d = dim mod p != 0, enumerate partitions
    (["invariants", "--p", "7", "--blocks", "3,2", "--bounds"], 0, [], INVARIANTS | {"partitions"}),
    # exterior powers of blocks no larger than p are SL_2 tilting characters, and of a block whose
    # size is a power of p an orbit count: no numpy
    (["decompose", "--p", "7", "--blocks", "7,5", "--op", "wedge", "--k", "3"], 0, [], DECOMPOSE),
    (["decompose", "--p", "2", "--e", "6", "--blocks", "64", "--op", "ext2"], 0, [], DECOMPOSE),
    # a rank at p <= d, and Gram matrices, whose exponents are counted over Python lists: no numpy
    (["brauer", "rank", "--r", "3", "--s", "3", "--t", "3", "--mod", "5"], 0, [], BRAUER),
    (["brauer", "gram", "--r", "1", "--s", "1", "--t", "symbolic"], 0, [], BRAUER),
]


# ids as they were before the module column, so each request keeps its test name
@pytest.mark.parametrize("argv, code, loaded, modules", REQUESTS, ids=[
    f"{'None' if argv is None else f'argv{i}'}-{code}-loaded{i}" for i, (argv, code, *_) in enumerate(REQUESTS)])
def test_requests_import_numpy_and_mpmath_only_when_they_use_them(argv, code, loaded, modules):
    src = str(Path(semisimple.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(argv)], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [code, loaded, sorted(modules)]


#: The public names of `semisimple`, each defined in one submodule.
EXPORTED = {
    "CapExceeded", "DomainError", "FpScalar", "T", "TPolynomial", "exact_det", "exact_rank", "is_prime", "q_int",
    "box_partitions", "box_square_sum", "box_walk", "dimensions",
    "BiObject", "DiagramMorphism", "WalledDiagram", "algebra_is_semisimple", "braiding", "compose",
    "endomorphism_trace_form", "gram_matrix", "hom_basis", "identity", "negligible_rank", "schur_weyl_homdim",
    "tensor", "trace",
    "JordanModule", "ext2", "exterior_power", "jordan_tensor", "jordan_type", "non_negligible_part", "sym2",
    "to_verlinde",
    "FusionElement", "cat_dim", "fp_dim", "fusion", "fusion_table", "in_plus_subring", "is_invertible", "product",
    "GrowthRate", "GrowthReport", "ImprovedBound", "PadicDigits", "exterior_dimension_sequence", "growth_rate",
    "improved_bound", "invariant_report", "module_growth_rate", "padic_digits", "plancherel_bound",
    "plancherel_square_sum", "recover_multiplicities", "square_difference_vector", "tensor_power_length",
}


def test_package_names_resolve_on_first_access():
    for name in EXPORTED:
        value = getattr(semisimple, name)
        assert getattr(importlib.import_module(value.__module__), name) is value
    for module in ("scalars", "partitions", "brauer", "modrep", "verlinde", "growth"):
        assert getattr(semisimple, module) is importlib.import_module(f"semisimple.{module}")
    namespace = {}
    exec("from semisimple import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTED == set(semisimple.__all__)
    assert EXPORTED <= set(dir(semisimple))
    with pytest.raises(AttributeError):
        semisimple.no_such_name


# -- fuzzing: every request ends in an answer or a documented refusal -----------


def _mostly(good, bad):
    """A value of `good`, or about one time in eight one of `bad`."""
    return st.integers(0, 7).flatmap(lambda k: good if k else st.sampled_from(bad))


def _int(lo, hi, huge=False):
    """Mostly an integer in [lo, hi]; else lo - 1, not an integer, past
    Python's int-string digit limit, or, where that is refused at once, 10^30."""
    return _mostly(st.integers(lo, hi), [lo - 1, "x", "9" * 5000, *([10**30] if huge else [])])


def _command(*head, flags=(), required=None, **optional):
    """argv of `head`, any of `flags`, `--name value` for every required
    option and for each optional one drawn."""
    def option(name, value):
        return value.map(lambda v: [f"--{name.replace('_', '-')}", str(v)])

    parts = [option(name, value) for name, value in (required or {}).items()]
    parts += [st.none() | option(name, value) for name, value in optional.items()]
    return st.tuples(st.lists(st.sampled_from(flags), unique=True) if flags else st.just([]), *parts).map(
        lambda drawn: [*head, *drawn[0], *(token for pair in drawn[1:] if pair for token in pair)])


_FORMAT = st.sampled_from(["json", "csv"])
#: Huge primes too: the default caps refuse them before anything p-sized is built.
_HUGE_PRIMES = [2147483647, 2**61 - 1, 2**64 + 13]
_PRIME = _mostly(st.sampled_from([2, 3, 5, 7, 13]), [0, 4, *_HUGE_PRIMES, "x", "9" * 5000])
_BLOCKS = _mostly(st.lists(st.integers(1, 16), min_size=1, max_size=4).map(lambda xs: ",".join(map(str, xs))),
                  ["", "0", "17", "1,,2", "x"])
_ORDER = dict(e=_int(1, 3, huge=True), cap_order=_int(1, 300))
#: r or s of a hom space: mostly at most 4, else 30, 1000 or 4000.
_HOMDIM_SIDE = _mostly(_int(0, 4), [30, 1000, 4000])
_T = st.sampled_from(["symbolic", "3", "-2", "7/2", "-5/3", "1/0", "t", "9" * 1500, "9" * 5000])
_COEFF = st.sampled_from([
    "2", "-3", "true", "1.5", "null", '"t^3 - 2t"', '"x"', '"t^65536"', '"t^65537"', '"t^100000000000"',
    "9" * 3000, "9" * 4301, '"' + "9" * 4301 + '"',
])
_DIAGRAM = st.sampled_from([
    ("[1, 0]", "[1, 0]", "[[0, 1]]"), ("[1, 1]", "[1, 1]", "[[0, 1], [2, 3]]"),
    ("[1, 1]", "[1, 1]", "[[0, 2], [1, 3]]"), ("[1, 0]", "[0, 1]", "[[0, 1]]"), ("[1]", "[1, 0]", "[]"),
    ("[1, 1]", "[1, 1]", "[[0, 1, 2], [3]]"), ("[1, 1]", "[1, 1]", "[[0, 1], 2]"),
])


def _morphism(diagram, coeffs):
    source, target, pairs = diagram
    terms = ", ".join(f'{{"pairs": {pairs}, "coeff": {c}}}' for c in coeffs)
    return f'{{"source": {source}, "target": {target}, "terms": [{terms}]}}'


_MORPHISM = _mostly(st.builds(_morphism, _DIAGRAM, st.lists(_COEFF, min_size=1, max_size=2)),
                    ["", "[]", "{}", "{", '{"source": [1, 0], "target": [1, 0], "pairs": [[0, 1]]}'])

#: argv for every subcommand, sized so that no example starts a large
#: allocation, and so that each answers in well under a second (Lambda^4
#: J_16 takes seconds).  `brauer homdim` draws each of r and s past 4
#: about one time in eight, so degrees past its cap of 40 and just under
#: it both occur.  `brauer rank` costs no d! x d! matrix, so it draws r and
#: s up to 5 and degree caps up to 10, and reaches ranks at p <= d past
#: the default cap; `brauer gram` lists its d!^2 entries, so it keeps r
#: and s at most 2.
_ARGV = st.one_of(
    _command("fusion", flags=["--table"], required=dict(p=_PRIME), i=_int(1, 12, huge=True),
             j=_int(1, 12, huge=True), cap_fusion_entries=_int(0, 10**4), format=_FORMAT),
    _command("decompose", required=dict(p=_PRIME, blocks=_BLOCKS), **_ORDER, with_blocks=_BLOCKS,
             k=_int(0, 3, huge=True), op=st.sampled_from(["tensor", "sym2", "ext2", "wedge", "cube"]), format=_FORMAT),
    _command("invariants", flags=["--bounds"], required=dict(p=_PRIME, blocks=_BLOCKS), **_ORDER,
             cap_bounds_p=_int(2, 31), format=_FORMAT),
    _command("padic", required=dict(p=_PRIME), **_ORDER, blocks=_BLOCKS, binomial=_mostly(_int(0, 10**4), [10**30]),
             length=_int(0, 10**4), format=_FORMAT),
    st.sampled_from(_HUGE_PRIMES).flatmap(lambda p: _command(
        "padic", required=dict(p=st.just(p), binomial=st.just(p - 1)), length=_int(0, 10**4), format=_FORMAT)),
    _command("brauer", "homdim", required=dict(n=_int(1, 50, huge=True), r=_HOMDIM_SIDE, s=_HOMDIM_SIDE),
             u=_int(0, 4), v=_int(0, 4), format=_FORMAT),
    *(_command("brauer", op, required=dict(r=_int(0, side), s=_int(0, side), t=_T), u=_int(0, 2), v=_int(0, 2),
               mod=_PRIME, cap_brauer_degree=_int(0, cap), format=_FORMAT)
      for op, side, cap in (("gram", 2, 6), ("rank", 5, 10))),
    _command("brauer", "compose", required=dict(f=_MORPHISM, g=_MORPHISM), format=_FORMAT),
    *(_command("bounds", kind, required=dict(p=_PRIME, d=_int(1, 12, huge=True)), cap_bounds_p=_int(2, 31),
               format=_FORMAT) for kind in ("plancherel", "improved")),
    _command("selftest", seed=_int(0, 10**6, huge=True), format=_FORMAT),
    st.lists(st.sampled_from(["fusion", "brauer", "rank", "--p", "5", "--t", "-5/3", "--help", "--table", "="]),
             max_size=5),
)


#: Wall-time bound on one fuzzed request; the slowest takes about 0.2 s.
FUZZ_SECONDS = 5


@settings(max_examples=500)
@given(_ARGV)
def test_cli_answers_or_refuses_every_request_in_bounded_time(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < FUZZ_SECONDS
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
