"""Command-line surface.

Deterministic, scriptable access to the library: identical arguments
always produce byte-identical output.  Documents go to stdout as JSON
(default) or CSV; warnings go to stderr.  Exit codes: 0 success (also
when the reader of stdout stops early), 1 self-test mismatch, 2 usage
error, 3 domain error, 4 size cap exceeded.  An option the request would
not read is a usage error.

Start-up is most of a cheap request, so each handler imports the modules
it calls where it calls them, and the option defaults are the caps in
`scalars`: `fusion` loads `verlinde` alone, and no request loads a module
it does not run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from .scalars import (
    BOUNDS_PRIME_CAP,
    DEGREE_CAP,
    FUSION_ENTRY_CAP,
    ORDER_CAP,
    CapExceeded,
    DomainError,
    FpScalar,
    exact_rank,
)

REAL_DIGITS = 30  # significant digits printed for any numeric value


class UsageError(Exception):
    pass


def _fmt_real(x) -> str:
    """A Decimal at REAL_DIGITS significant digits: cut after the next digit,
    which then rounds half up; trailing zeros dropped but one digit kept after
    the point; fixed notation while -10 < exponent < REAL_DIGITS, else e+NN or
    e-NN.  Zero is "0.0"."""
    from decimal import ROUND_DOWN, ROUND_HALF_UP, Context

    if not x:
        return "0.0"
    x = Context(REAL_DIGITS, ROUND_HALF_UP).plus(Context(REAL_DIGITS + 1, ROUND_DOWN).plus(x))
    e, digits = x.adjusted(), "".join(map(str, x.as_tuple().digits)).rstrip("0")
    if -10 < e < REAL_DIGITS:
        digits = "0" * -e + digits if e < 0 else digits.ljust(e + 1, "0")
        point, exponent = max(e, 0) + 1, ""
    else:
        point, exponent = 1, f"e{e:+d}"
    return "-" * x.is_signed() + digits[:point] + "." + (digits[point:] or "0") + exponent


def _parse_blocks(text: str) -> tuple[int, ...]:
    try:
        blocks = tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise UsageError(f"cannot parse block list {text!r}") from exc
    if not blocks:
        raise UsageError("empty block list")
    return blocks


def _parse_t(text: str, mod: int | None):
    if text == "symbolic":
        if mod is not None:
            raise UsageError("--mod cannot be combined with a symbolic parameter")
        return "symbolic"
    from fractions import Fraction

    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse parameter value {text!r}") from exc
    if mod is not None:
        num = FpScalar(value.numerator, mod)
        den = FpScalar(value.denominator, mod)
        if den.value == 0:
            raise DomainError(f"{text!r} has no meaning modulo {mod}")
        return num / den
    if value.denominator == 1:
        return int(value)
    return value


def _entry_str(x) -> str:
    if isinstance(x, FpScalar):
        return str(x.value)
    return str(x)


def _render(build):
    try:  # str() refuses an integer past sys.get_int_max_str_digits()
        return build()
    except ValueError as exc:
        raise CapExceeded(f"the answer has an integer of more than {sys.get_int_max_str_digits()} digits") from exc


def _emit(doc, rows, fmt: str) -> None:
    """Stream the document to stdout in pieces, never as one string.  A
    handler may hand over its JSON text already rendered, as an iterator of
    pieces."""
    if fmt == "json":
        if isinstance(doc, (dict, list)):
            tokens = json.JSONEncoder(indent=2).iterencode(doc)
            doc = iter(lambda: "".join(itertools.islice(tokens, 4096)), "")  # a write per token takes 2.5x as long
        sys.stdout.writelines(doc)
        sys.stdout.write("\n")
    else:
        import csv

        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (json_document, csv_rows), and a
# one-row document's rows are `_csv(doc, *keys)`, read off the document
# ---------------------------------------------------------------------------


def _csv(doc: dict, *keys: str) -> list[list]:
    """The header `keys` and one row of doc[k]; a list is written as its items joined by spaces."""
    return [list(keys), [" ".join(map(str, doc[k])) if isinstance(doc[k], list) else doc[k] for k in keys]]


def _table_json(p: int, docs):
    """The `fusion --table` document as JSONEncoder(indent=2) writes it,
    rendered a row at a time so that no more than one row is held."""
    yield f'{{\n  "p": {p},\n  "table": ['
    for n, doc in enumerate(docs):
        yield ("," if n else "") + "\n    " + json.dumps(doc, indent=2).replace("\n", "\n    ")
    yield "\n  ]\n}"


def cmd_fusion(args):
    from . import verlinde

    p = args.p
    if args.table:
        if (args.i, args.j) != (None, None):
            raise UsageError("--i and --j do not apply with --table")
        table = verlinde.fusion_table(p, args.cap_fusion_entries)
    elif args.i is None or args.j is None:
        raise UsageError("fusion needs either --table or both --i and --j")
    else:
        table = [(args.i, args.j, verlinde.fusion(p, args.i, args.j, args.cap_fusion_entries))]
    # both are lazy and `_emit` reads one, so the table is read once: by the rows for CSV, by the documents for JSON
    rows = itertools.chain([["i", "j"] + [f"m{k}" for k in range(1, p)]],
                           ([i, j, *x.multiplicities] for i, j, x in table))
    docs = ({"i": i, "j": j, "m": list(x.multiplicities), "pretty": str(x)} for i, j, x in table)
    if args.table:
        return _table_json(p, docs), rows
    return {"p": p, **next(docs)}, rows


def _module_from_args(args, blocks: str) -> JordanModule:
    from .modrep import JordanModule

    return JordanModule(args.p, 1 if args.e is None else args.e, _parse_blocks(blocks), args.cap_order)


def cmd_decompose(args):
    from . import modrep

    v = _module_from_args(args, args.blocks)
    for option, value, op in (("--with-blocks", args.with_blocks, "tensor"), ("--k", args.k, "wedge")):
        if value is None and args.op == op:  # each is given iff the operation reads it
            raise UsageError(f"--op {op} needs {option}")
        if value is not None and args.op != op:
            raise UsageError(f"{option} applies to --op {op} only")
    if args.op == "tensor":
        result = modrep.jordan_tensor(v, _module_from_args(args, args.with_blocks))
    elif args.op == "sym2":
        result = modrep.sym2(v)
    elif args.op == "ext2":
        result = modrep.ext2(v)
    else:  # wedge
        result = modrep.exterior_power(v, args.k)
    doc = result.to_json()
    return doc, _csv(doc, "p", "e", "blocks")


def _plancherel_doc(p: int, d: int, cap: int) -> dict:
    from . import growth

    total = growth.plancherel_square_sum(p, d, cap)
    return {"square_sum": total, "bound": _fmt_real(growth.plancherel_root(p, total))}


def _improved_doc(p: int, d: int, cap: int) -> dict:
    from . import growth

    imp = growth.improved_bound(p, d, cap)
    return {
        "M": imp.max_schur_dim,
        "max_partition": list(imp.max_partition),
        "ratio": str(imp.ratio),
        "row_sum": imp.row_sum,
        "box_sum": imp.box_sum,
        "bound": _fmt_real(imp.bound),
    }


def cmd_invariants(args):
    from . import growth

    if args.cap_bounds_p != BOUNDS_PRIME_CAP and not args.bounds:
        raise UsageError("--cap-bounds-p applies to --bounds only")
    v = _module_from_args(args, args.blocks)
    report = growth.invariant_report(v)
    doc = {
        "p": report.p,
        "dim": report.dim,
        "blocks": list(report.blocks),
        "m": list(report.m),
        "b": report.rate.exact_form,
        "b_numeric": _fmt_real(report.rate.numeric),
        "checks": report.checks(),
    }
    d = report.dim % report.p
    doc["bounds"] = (
        {
            "plancherel": _plancherel_doc(report.p, d, args.cap_bounds_p),
            "improved": _improved_doc(report.p, d, args.cap_bounds_p),
        }
        if args.bounds and d != 0
        else None
    )
    return doc, _csv({**doc, **doc["checks"]}, "p", "dim", "m", "b", "b_numeric", "ii", "iii", "iv")


def cmd_padic(args):
    from . import growth

    p = args.p
    if (args.blocks is None) == (args.binomial is None):
        raise UsageError("padic needs exactly one of --blocks or --binomial")
    if args.blocks is not None:
        if args.length is not None:
            raise UsageError("--length applies to --binomial only")
        v = _module_from_args(args, args.blocks)
        dims = [x.value for x in growth.exterior_dimension_sequence(v)]
        source = {"blocks": list(v.blocks)}
    else:
        if args.cap_order != ORDER_CAP:
            raise UsageError("--cap-order applies to --blocks only")
        if args.e is not None:  # given, even at 1: the binomial path builds no module
            raise UsageError("--e applies to --blocks only")
        d_value = args.binomial
        if d_value < 0:
            raise UsageError("--binomial takes a nonnegative integer")
        if args.length is not None and args.length < 0:
            raise UsageError("--length takes a nonnegative integer")
        length = args.length if args.length is not None else d_value + 1
        dims = growth.binomials_mod_p(d_value, p, length)
        if not dims:  # --length 0
            raise DomainError("the dimension sequence must start with 1")
        source = {"binomial": d_value}
    digits = growth.PadicDigits.of_row(p, dims)  # a Lucas product by construction: checking it again cannot fail
    doc = {
        "p": p,
        **source,
        "dims": dims,
        "digits": list(digits.digits),
        "value": digits.as_integer(),
    }
    return doc, _csv(doc, "p", "digits", "value")


def _objects_from_args(args) -> tuple[BiObject, BiObject]:
    from .brauer import BiObject

    source = BiObject(args.r, args.s)
    target = BiObject(args.u if args.u is not None else args.r,
                      args.v if args.v is not None else args.s)
    return source, target


def cmd_homdim(args):
    from .brauer import schur_weyl_homdim

    source, target = _objects_from_args(args)
    doc = {
        "n": args.n,
        "source": [source.r, source.s],
        "target": [target.r, target.s],
        "dim": schur_weyl_homdim(args.n, source, target),
    }
    return doc, _csv({**doc, "source": str(source), "target": str(target)}, "n", "source", "target", "dim")


def cmd_gram(args):
    from .brauer import gram_matrix

    source, target = _objects_from_args(args)
    t_value = _parse_t(args.t, args.mod)
    matrix = gram_matrix(source, target, t_value, cap=args.cap_brauer_degree)
    entries = _render(lambda: [[_entry_str(x) for x in row] for row in matrix])
    return entries, entries


def cmd_rank(args):
    from .brauer import negligible_rank

    source, target = _objects_from_args(args)
    t_value = _parse_t(args.t, args.mod)
    if t_value == "symbolic":
        raise UsageError("rank needs an exact --t value")
    rank, quotient = negligible_rank(source, target, t_value, cap=args.cap_brauer_degree)
    doc = {
        "source": [source.r, source.s],
        "target": [target.r, target.s],
        "t": args.t if args.mod is None else f"{args.t} mod {args.mod}",
        "rank": rank,
        "quotient_dim": quotient,
    }
    return doc, _csv({**doc, "source": str(source), "target": str(target)}, "source", "target", "t", "rank")


def cmd_compose(args):
    from .brauer import DiagramMorphism, compose

    try:
        f = DiagramMorphism.from_json(json.loads(args.f))
        g = DiagramMorphism.from_json(json.loads(args.g))
    except DomainError:
        raise
    except (ValueError, KeyError) as exc:  # bad JSON, an integer past the digit limit, or a missing field
        reason = exc
        if "set_int_max_str_digits" in str(exc):  # Python's advice names a call no CLI user can make
            reason = f"an integer has more than {sys.get_int_max_str_digits()} digits"
        raise UsageError(f"cannot parse morphism JSON: {reason}") from exc
    doc = _render(compose(f, g).to_json)
    rows = [["pairs", "coeff"]] + [
        [json.dumps(term["pairs"]), term["coeff"]] for term in doc["terms"]
    ]
    return doc, rows


def cmd_bounds(args):
    bound = _plancherel_doc if args.bound_kind == "plancherel" else _improved_doc
    doc = {"p": args.p, "d": args.d, **bound(args.p, args.d, args.cap_bounds_p)}
    return doc, _csv(doc, *(k for k in doc if k != "max_partition"))  # the CSV row leaves the partition out


# ---------------------------------------------------------------------------
# Self-test: the oracle-equivalence suite
# ---------------------------------------------------------------------------


def _selftest_fusion_vs_blocks() -> bool:
    from . import verlinde
    from .modrep import JordanModule, jordan_tensor, to_verlinde

    for p in (2, 3, 5, 7, 11, 13):
        singles = {k: JordanModule(p, 1, (k,)) for k in range(1, p + 1)}
        for m in range(1, p + 1):
            for n in range(m, p + 1):
                lhs = to_verlinde(jordan_tensor(singles[m], singles[n]))
                rhs = verlinde.product(to_verlinde(singles[m]), to_verlinde(singles[n]))
                if lhs != rhs:
                    return False
                if m < p and n < p and lhs != verlinde.fusion(p, m, n):
                    return False
    return True


def _selftest_gram_vs_characters() -> bool:
    from . import brauer

    for r in range(4):
        for s in range(4 - r):
            obj = brauer.BiObject(r, s)
            for n in range(1, 6):
                rank = exact_rank(brauer.gram_matrix(obj, obj, n))  # at most 6 x 6
                if rank != brauer.schur_weyl_homdim(n, obj, obj):
                    return False
    return True


def _selftest_dimension_identity() -> bool:
    from math import prod

    from .partitions import box_partitions, dimensions

    for d in range(1, 5):
        for n in range(1, 11):
            total = sum(prod(dimensions(parts, d)) for parts in box_partitions(n, d, n))
            if total != d**n:
                return False
    return True


def _selftest_recovery(seed: int) -> bool:
    import random

    from . import growth
    from .modrep import JordanModule, to_verlinde

    rng = random.Random(seed)
    for p in (5, 7, 11, 13):
        for _ in range(20):
            blocks = []
            remaining = p - 1
            while remaining > 0 and rng.random() < 0.9:
                b = rng.randint(1, remaining)
                blocks.append(b)
                remaining -= b
            if not blocks:
                blocks = [1]
            v = JordanModule(p, 1, tuple(blocks))
            m = to_verlinde(v).multiplicities
            recovered = growth.recover_multiplicities(
                p, m, growth.square_difference_vector(v)
            )
            if recovered != m:
                return False
    return True


def cmd_selftest(args) -> int:
    checks = [
        ("fusion rule vs prime-field block decomposition (p <= 13)", _selftest_fusion_vs_blocks),
        ("gram rank vs character hom dimension (degree <= 3, n <= 5)", _selftest_gram_vs_characters),
        ("weighted dimension identity (d <= 4, N <= 10)", _selftest_dimension_identity),
        ("multiplicity recovery round trip (seeded sample)", lambda: _selftest_recovery(args.seed)),
    ]
    failed = 0
    for name, check in checks:
        ok = check()
        print(("ok   " if ok else "FAIL ") + name)
        if not ok:
            failed += 1
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semisimple",
        description="Exact computations in diagram categories, modular Jordan blocks, and fusion rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    module = argparse.ArgumentParser(add_help=False)  # the Jordan module of decompose, invariants and padic
    module.add_argument("--p", type=int, required=True)
    module.add_argument("--e", type=int)  # None reads as 1: padic --binomial refuses it when given
    module.add_argument("--cap-order", dest="cap_order", type=int, default=ORDER_CAP)

    def command(group, name, handler, parents=(), **kwargs):
        q = group.add_parser(name, parents=parents, **kwargs)
        q.add_argument("--format", choices=("json", "csv"), default="json")
        q.set_defaults(handler=handler)
        return q

    q = command(sub, "fusion", cmd_fusion, help="products of simple labels in the fusion ring")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--i", type=int)
    q.add_argument("--j", type=int)
    q.add_argument("--table", action="store_true")
    q.add_argument("--cap-fusion-entries", dest="cap_fusion_entries", type=int, default=FUSION_ENTRY_CAP)

    q = command(sub, "decompose", cmd_decompose, [module],
                help="tensor/symmetric/exterior decompositions of Jordan modules")
    q.add_argument("--blocks", required=True)
    q.add_argument("--op", choices=("tensor", "sym2", "ext2", "wedge"), default="tensor")
    q.add_argument("--with-blocks", dest="with_blocks")
    q.add_argument("--k", type=int)

    q = command(sub, "invariants", cmd_invariants, [module], help="growth rate and dimension checks for a module")
    q.add_argument("--blocks", required=True)
    q.add_argument("--bounds", action="store_true", help="include partition lower bounds")
    q.add_argument("--cap-bounds-p", dest="cap_bounds_p", type=int, default=BOUNDS_PRIME_CAP)

    q = command(sub, "padic", cmd_padic, [module], help="p-adic dimension digits from exterior powers")
    q.add_argument("--blocks")
    q.add_argument("--binomial", type=int, help="use the binomial sequence of this integer")
    q.add_argument("--length", type=int, help="series length for the binomial path")

    p_br = sub.add_parser("brauer", help="walled diagram hom spaces, Gram matrices, ranks")
    br_sub = p_br.add_subparsers(dest="brauer_op", required=True)
    for name, handler in (("homdim", cmd_homdim), ("gram", cmd_gram), ("rank", cmd_rank)):
        q = command(br_sub, name, handler)
        q.add_argument("--r", type=int, required=True)
        q.add_argument("--s", type=int, required=True)
        q.add_argument("--u", type=int)
        q.add_argument("--v", type=int)
        if name == "homdim":
            q.add_argument("--n", type=int, required=True)
        else:
            q.add_argument("--t", required=True, help='"symbolic", an integer, or a fraction like 7/2')
            q.add_argument("--mod", type=int, help="interpret --t in F_p for this prime")
            q.add_argument("--cap-brauer-degree", dest="cap_brauer_degree", type=int, default=DEGREE_CAP)
    q = command(br_sub, "compose", cmd_compose)
    q.add_argument("--f", required=True, help="morphism JSON (applied second)")
    q.add_argument("--g", required=True, help="morphism JSON (applied first)")

    p_bnd = sub.add_parser("bounds", help="partition-enumeration lower bounds for growth rates")
    bnd_sub = p_bnd.add_subparsers(dest="bound_kind", required=True)
    for name in ("plancherel", "improved"):
        q = command(bnd_sub, name, cmd_bounds)
        q.add_argument("--p", type=int, required=True)
        q.add_argument("--d", type=int, required=True)
        q.add_argument("--cap-bounds-p", dest="cap_bounds_p", type=int, default=BOUNDS_PRIME_CAP)

    q = sub.add_parser("selftest", help="run the oracle-equivalence suite")  # prints a report, not a document
    q.set_defaults(handler=cmd_selftest)
    q.add_argument("--seed", type=int, default=0, help="sampling seed (affects test sampling only)")

    return parser


def _warn_caps(args) -> None:
    """Warn on stderr about each --cap-* option set to other than its default."""
    for name, default, cap in (("cap_order", ORDER_CAP, "the group-order cap"),
                               ("cap_brauer_degree", DEGREE_CAP, "the hom-space degree cap"),
                               ("cap_bounds_p", BOUNDS_PRIME_CAP, "the bounds enumeration cap"),
                               ("cap_fusion_entries", FUSION_ENTRY_CAP, "the fusion document cap")):
        value = getattr(args, name, default)
        if value != default:
            print(f"warning: overriding {cap} to {value}; large values need memory and time", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse takes a bare -5/3 for an option
        if argv[i - 1] == "--t" and argv[i][:1] == "-" and argv[i][1:2].isdigit():
            argv[i - 1:i + 1] = [f"--t={argv[i]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _warn_caps(args)
        outcome = args.handler(args)
        if not isinstance(outcome, int):  # selftest prints its own report
            _emit(*outcome, args.format)
            outcome = 0
        sys.stdout.flush()
        return outcome
    except BrokenPipeError:  # the reader stopped early; what it read stands
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the final flush cannot fail again
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
