"""The two workloads, cli-light and library: seeded inputs, the operations
run on them, and the checks each output must pass.

A workload is a `Plan`: one round of operations, run whole and in a
seeded shuffled order as many times as the run asks for.  Every round
repeats the same operations, so the mix never depends on how fast the
host is.  Each `Op.check` compares one output with `oracles`, or with a
property the mathematics forces, and returns an error message or None.
`seen` maps an operation's label to its output from earlier in the run, so
checks that relate outputs (repeats of a CLI request, Sym^2 + Lambda^2
against V (x) V) run once all of them exist.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import oracles as o

WORKLOADS = ("cli-light", "library")

#: Relative tolerance for the 30-digit decimal strings the CLI prints.
FLOAT_RTOL = 1e-9


# ---------------------------------------------------------------------------
# Reference computations: how much slower than the reference speed the host
# runs at a given moment.  Neither runs the program, so a change to the
# program moves every scaled time in proportion.  The host's slow mode slows
# exact arithmetic in the process and starting an interpreter by different
# amounts, so each workload uses the one that is like its operations.
# ---------------------------------------------------------------------------

#: Times of the two reference computations at the reference speed: about
#: their times on the 2-core host in the README, in that host's fast mode.
FRACTION_REFERENCE_S = 0.0025
CHILD_REFERENCE_S = 0.070


def fraction_slowdown() -> float:
    """The harmonic number H_600 in Fractions (object allocation, method
    calls and big-integer gcd, as in the program's exact arithmetic), timed
    against its time at the reference speed."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 601):
        total += Fraction(1, k)
    return (time.perf_counter() - start) / FRACTION_REFERENCE_S


def child_slowdown() -> float:
    """A child interpreter that does nothing (`python -c pass`), timed from
    start to exit against its time at the reference speed."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return (time.perf_counter() - start) / CHILD_REFERENCE_S


@dataclass
class Op:
    label: str
    fn: Callable[[], object]
    check: Callable[[object, dict], str | None]


@dataclass
class Plan:
    ops: list[Op]
    warmup: Op
    #: Seconds of the run's length planned for one round: a run does
    #: --seconds / round_s rounds (see run.rounds_for).  In the reference
    #: host's slow phases a round takes up to 1.5x longer.
    round_s: float
    #: Clears the program's caches; called before each operation, so an
    #: operation that repeats within a round never finds its own result cached.
    reset: Callable[[], None] = lambda: None
    #: The reference computation timed before each operation.
    slowdown: Callable[[], float] = fraction_slowdown
    peak_rss_mb: Callable[[], float] = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    program: object = None


# ---------------------------------------------------------------------------
# Loading the program from the checkout
# ---------------------------------------------------------------------------


def source_dir(root: Path) -> Path:
    src = root / "src"
    if not (src / "semisimple" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src / 'semisimple'}")
    return src


def child_env(root: Path) -> dict:
    """The environment for a child that imports semisimple from src/."""
    env = dict(os.environ)
    src = str(source_dir(root))
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def load_program(root: Path):
    """Import semisimple from the checkout's src/, never from site-packages."""
    src = source_dir(root)
    sys.path.insert(0, str(src))
    import semisimple
    from semisimple import brauer, cli, growth, modrep, partitions, scalars, verlinde

    if Path(semisimple.__file__).resolve().parent != (src / "semisimple").resolve():
        raise SystemExit(f"error: imported semisimple from {semisimple.__file__}, not {src}")
    modules = [scalars, partitions, brauer, modrep, verlinde, growth, cli]
    # Collected before any tracing wrapper replaces a module attribute.
    clears = [v.cache_clear for m in modules for v in vars(m).values() if callable(getattr(v, "cache_clear", None))]
    return SimpleNamespace(**{m.__name__.rsplit(".", 1)[1]: m for m in modules}, modules=modules,
                           clear_caches=lambda: [c() for c in clears])


def _mismatch(what, got, want):
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def _close(text: str, value: float) -> bool:
    return math.isclose(float(text), value, rel_tol=FLOAT_RTOL)


def _spaces(d: int):
    """Every hom space [r, s] -> [u, v] of degree d: r + v = s + u = d."""
    return [((r, s), (d - s, d - r)) for r in range(d + 1) for s in range(d + 1)]


def _partition(rng: random.Random, n: int, parts: int | None = None, largest: int | None = None):
    choices = [lam for lam in o.partitions(n, parts, largest) if parts is None or len(lam) == parts]
    return rng.choice(choices)


# ---------------------------------------------------------------------------
# cli-light: one `python -m semisimple.cli` child per request
# ---------------------------------------------------------------------------


def cli_requests(seed: int):
    """About ten cheap, valid requests with the documents they must print."""
    rng = random.Random(seed)
    out = []

    for _ in range(2):
        p = rng.choice((5, 7, 11, 13))
        i, j = rng.randint(1, p - 1), rng.randint(1, p - 1)
        m = o.cg(p, i, j)
        out.append((["fusion", "--p", str(p), "--i", str(i), "--j", str(j)],
                    lambda p=p, i=i, j=j, m=m: {"p": p, "i": i, "j": j, "m": m, "pretty": o.pretty(m)}))

    p = rng.choice((3, 5, 7))
    out.append((["fusion", "--p", str(p), "--table"], lambda p=p: {
        "p": p,
        "table": [{"i": i, "j": j, "m": o.cg(p, i, j), "pretty": o.pretty(o.cg(p, i, j))}
                  for i in range(1, p) for j in range(1, p)]}))

    d, n = rng.randint(2, 4), rng.randint(1, 4)
    (r, s), (u, v) = rng.choice(_spaces(d))
    out.append((["brauer", "homdim", "--n", str(n), "--r", str(r), "--s", str(s), "--u", str(u), "--v", str(v)],
                lambda n=n, r=r, s=s, u=u, v=v, d=d: {"n": n, "source": [r, s], "target": [u, v], "dim": o.homdim(n, d)}))

    d = rng.randint(2, 3)
    (r, s), (u, v) = rng.choice(_spaces(d))
    t = f"{2 * rng.randint(1, 6) + 1}/2"
    out.append((["brauer", "rank", "--r", str(r), "--s", str(s), "--u", str(u), "--v", str(v), "--t", t],
                lambda r=r, s=s, u=u, v=v, t=t, d=d: {"source": [r, s], "target": [u, v], "t": t,
                                                      "rank": math.factorial(d), "quotient_dim": math.factorial(d)}))

    p = rng.choice((5, 7))
    a = sorted((rng.randint(1, p) for _ in range(rng.randint(1, 2))), reverse=True)
    b = sorted((rng.randint(1, p) for _ in range(rng.randint(1, 2))), reverse=True)
    out.append((["decompose", "--p", str(p), "--blocks", ",".join(map(str, a)), "--op", "tensor",
                 "--with-blocks", ",".join(map(str, b))],
                lambda p=p, a=a, b=b: {"p": p, "e": 1, "blocks": o.tensor_e1(p, a, b)}))

    p = rng.choice((5, 7, 11))
    blocks = sorted((rng.randint(1, p) for _ in range(rng.randint(1, 3))), reverse=True)
    out.append((["invariants", "--p", str(p), "--blocks", ",".join(map(str, blocks))],
                lambda p=p, blocks=blocks: _invariants_doc(p, blocks)))

    p, big_n = rng.choice((3, 5, 7)), rng.randint(10, 60)
    out.append((["padic", "--p", str(p), "--binomial", str(big_n)], lambda p=p, big_n=big_n: {
        "p": p, "binomial": big_n, "dims": [o.lucas_binom(big_n, k, p) for k in range(big_n + 1)],
        "digits": o.base_digits(big_n, p), "value": big_n}))

    p = rng.choice((5, 7, 11))
    d = rng.randint(1, p - 1)
    out.append((["bounds", "plancherel", "--p", str(p), "--d", str(d)], lambda p=p, d=d: {
        "p": p, "d": d, "square_sum": o.plancherel_square_sum(p, d),
        "bound": o.plancherel_square_sum(p, d) ** (1 / (2 * (p - 1)))}))

    p = rng.choice((5, 7, 11))
    d = rng.randint(1, p - 1)
    out.append((["bounds", "improved", "--p", str(p), "--d", str(d)], lambda p=p, d=d: _improved_doc(p, d)))
    return out


def _invariants_doc(p, blocks):
    m = o.verlinde_image(p, blocks)
    dim = sum(blocks)
    weighted = sum(k * x for k, x in enumerate(m, start=1))
    rate = o.fp_dim_float(p, m)
    return {"p": p, "dim": dim, "blocks": blocks, "m": m, "b": o.growth_form(m), "b_numeric": rate,
            "checks": {"ii": (dim - weighted) % p == 0,
                       "iii": dim == weighted if dim <= p - 1 else None,
                       "iv": rate < dim if any(x >= 2 for x in blocks) else None},
            "bounds": None}


def _improved_doc(p, d):
    big, row_sum, box_sum = o.improved_parts(p, d)
    ratio = Fraction(d ** (p - 1), big)
    return {"p": p, "d": d, "M": big, "ratio": str(ratio), "row_sum": row_sum, "box_sum": box_sum,
            "bound": float(ratio) ** (1 / (p - 1))}


#: Keys whose values are decimal strings compared within FLOAT_RTOL.
_APPROX = ("b_numeric", "bound")


def check_document(doc: dict, want: dict) -> str | None:
    """Compare a CLI document with the expected one; None when they agree."""
    if set(doc) - {"max_partition"} != set(want):
        return f"keys {sorted(doc)} differ from {sorted(want)}"
    for key, value in want.items():
        if key in _APPROX:
            if not _close(doc[key], value):
                return f"{key}: got {doc[key]}, want {value}"
        elif doc[key] != value:
            return f"{key}: got {doc[key]!r}, want {value!r}"
    if "max_partition" in doc:  # any maximiser is valid; check it is one
        lam = tuple(doc["max_partition"])
        if sum(lam) != want["p"] - 1 or len(lam) > want["d"] or o.schur_dim(lam, want["d"]) != want["M"]:
            return f"max_partition {lam} does not reach M = {want['M']}"
    return None


def _cli_check(label, want):
    def check(out, seen):
        code, stdout, stderr = out
        if code != 0:
            return f"exit {code}: {stderr.decode(errors='replace')[-300:]}"
        if label in seen and seen[label][1] != stdout:
            return "repeat of the same request printed different bytes"
        return check_document(json.loads(stdout), want())
    return check


def cli_plan(seed: int, root: Path, in_process: bool) -> Plan:
    requests = cli_requests(seed)
    repeats = 2
    if in_process:
        prog = load_program(root)

        def call(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = prog.cli.main(list(argv))
            return code, buf.getvalue().encode(), b""
    else:
        prog = None
        env = child_env(root)

        def call(argv):
            proc = subprocess.run([sys.executable, "-m", "semisimple.cli", *argv],
                                  capture_output=True, env=env, cwd=root, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr

    ops = [Op(" ".join(argv), lambda argv=argv: call(argv), _cli_check(" ".join(argv), want))
           for argv, want in requests for _ in range(repeats)]
    warm = ["fusion", "--p", "3", "--i", "1", "--j", "2"]
    warmup = Op(" ".join(warm), lambda: call(warm),
                _cli_check(" ".join(warm), lambda: {"p": 3, "i": 1, "j": 2, "m": [0, 1], "pretty": "L2"}))
    plan = Plan(ops, warmup, round_s=7.0, program=prog)
    if in_process:
        plan.reset = prog.clear_caches
    else:
        plan.peak_rss_mb = lambda: resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        plan.slowdown = child_slowdown
    return plan


# ---------------------------------------------------------------------------
# library, Brauer part: negligible_rank on degree-4 and degree-5 hom spaces
# ---------------------------------------------------------------------------

#: (degree, t class, distinct operations, repeats per round).  Degree-4
#: operations are the bulk and repeat twice a round; the two degree-5 ones
#: take about two thirds of the Brauer part's time.
BRAUER_MIX = (
    (4, "t=1", 4, 2), (4, "t=2", 4, 2), (4, "t=3", 4, 2), (4, "t=4", 4, 2),
    (4, "F7", 2, 2), (4, "F11", 2, 2), (4, "frac", 5, 2),
    (5, "t=3", 1, 1), (5, "Fp", 1, 1),
)


def brauer_plan(seed: int, prog) -> Plan:
    BiObject, FpScalar = prog.brauer.BiObject, prog.scalars.FpScalar
    rng = random.Random(seed)
    ops = []
    for d, cls, count, repeats in BRAUER_MIX:
        for space in rng.sample(_spaces(d), count):
            if cls.startswith("t="):
                t, p, text = int(cls[2:]), None, cls[2:]
            elif cls == "frac":
                t, p = Fraction(rng.choice((9, 11, 13, 15)), 2), None
                text = str(t)
            else:
                p = int(cls[1:]) if cls != "Fp" else rng.choice((7, 11))
                t = rng.randint(1, p - 1)
                text = f"{t} mod {p}"
            value = FpScalar(t, p) if p else t
            (r, s), (u, v) = space
            want = o.content_rank(d, t, p)
            ops += [Op(f"d{d} {space} t={text}",
                       lambda a=BiObject(r, s), b=BiObject(u, v), x=value: prog.brauer.negligible_rank(a, b, x),
                       lambda out, seen, want=want: _mismatch("(rank, quotient)", out, (want, want)))] * repeats
    warm = Op("warmup", lambda: prog.brauer.negligible_rank(BiObject(2, 2), BiObject(2, 2), 5),
              lambda out, seen: _mismatch("(rank, quotient)", out, (o.content_rank(4, 5),) * 2))
    return Plan(ops, warm, round_s=3.3)


# ---------------------------------------------------------------------------
# library, modrep part: exterior powers, squares and single-block tensors
# ---------------------------------------------------------------------------

#: Single-block tensors J_m (x) J_q at q = p^e with m fixed per order, so
#: the seed changes only the operand order and not the work.
TENSOR_FULL = {(5, 2): 20, (3, 3): 20, (2, 5): 20, (7, 2): 10}


#: The dimension-16 module at each prime for Sym^2, Lambda^2 and V (x) V.
DIM16_MODULES = {11: [7, 5, 4], 13: [8, 6, 2]}


def _tensor_check(p, e, m, n):
    q = p ** e

    def check(out, seen):
        blocks = list(out.blocks)
        if len(blocks) != min(m, n) or sum(blocks) != m * n or max(blocks) > q:
            return f"J{m} (x) J{n} at {p}^{e}: blocks {blocks} violate count/sum/size"
        if q in (m, n):
            return _mismatch(f"J{m} (x) J{n}", blocks, [q] * min(m, n))
        if e == 1:
            return _mismatch(f"J{m} (x) J{n}", blocks, o.single_tensor_e1(p, m, n))
        return None
    return check


def _square_check(p, blocks, kind):
    """Sym^2, Lambda^2 and V (x) V at e = 1 against their closed forms, and
    Sym^2 + Lambda^2 against V (x) V once all three have run."""
    def check(out, seen):
        sym, ext = o.squares_e1(p, blocks)
        want = {"sym2": sym, "ext2": ext, "tensor": o.tensor_e1(p, blocks, blocks)}[kind]
        message = _mismatch(f"{kind} of {blocks} at p={p}", list(out.blocks), want)
        keys = [f"{x} {p} {blocks}" for x in ("sym2", "ext2", "tensor")]
        if message is None and all(key in seen or key == f"{kind} {p} {blocks}" for key in keys):
            got = [list((out if key == f"{kind} {p} {blocks}" else seen[key]).blocks) for key in keys]
            message = _mismatch("Sym^2 + Lambda^2 vs V (x) V", sorted(got[0] + got[1], reverse=True), got[2])
        return message
    return check


def _family_check(p, blocks):
    d = sum(blocks)

    def check(out, seen):
        got = [list(w.blocks) for w in out]
        if [sum(b) for b in got] != [math.comb(d, k) for k in range(d + 1)] or max(max(b) for b in got) > p:
            return f"Lambda^k of {blocks}: {got} do not sum to C({d}, k) within J{p}"
        if got[0] != [1] or got[1] != list(blocks) or got != got[::-1]:
            return f"Lambda^k of {blocks}: {got} is not 1, V, ..., symmetric in k <-> d - k"
        return None
    return check


def modrep_plan(seed: int, prog) -> Plan:
    mr = prog.modrep
    J = mr.JordanModule
    rng = random.Random(seed)
    ops = []
    # Lambda^2 on every two-block module of dimension 12 at p = 11 and 13,
    # twice a round: the bulk of the modrep part.
    for p in (11, 13):
        for blocks in o.partitions(12, 2, 11):
            if len(blocks) == 2:
                ops += [Op(f"ext2 {p} {list(blocks)}", lambda V=J(p, 1, blocks): mr.ext2(V),
                           _square_check(p, list(blocks), "ext2"))] * 2
    # Lambda^k for every k, as one operation, on two-block modules of
    # dimension 8 and 9 (dimension 10 takes 2-3 s, too long for a round).
    for d in (8, 9):
        p = rng.choice((11, 13))
        blocks = _partition(rng, d, parts=2)
        ops.append(Op(f"wedges {p} {list(blocks)}",
                      lambda V=J(p, 1, blocks), d=d: [mr.exterior_power(V, k) for k in range(d + 1)],
                      _family_check(p, list(blocks))))
    # Sym^2, Lambda^2 and V (x) V on one dimension-16 module at each prime.
    # The library's 90th percentile falls on their Lambda^2, so the modules
    # are fixed (drawn by the seed, their cost of 80-105 ms moved op_p90_ms
    # by 10% between seeds) and the Lambda^2 runs three times a round: a
    # mean over 6 calls still moved it by 8-12% between runs.
    for p, blocks in DIM16_MODULES.items():
        V = J(p, 1, tuple(blocks))
        for kind, fn, repeats in (("sym2", lambda V=V: mr.sym2(V), 1), ("ext2", lambda V=V: mr.ext2(V), 3),
                                  ("tensor", lambda V=V: mr.jordan_tensor(V, V), 1)):
            ops += [Op(f"{kind} {p} {blocks}", fn, _square_check(p, blocks, kind))] * repeats
    # Single blocks at group orders 25, 27, 32 and 49: J_m (x) J_q, and below
    # 49 the middle pair J_(q//2) (x) J_(q+1-q//2) twice a round.  The
    # middle pairs lie next to the library's 90th percentile, so they are
    # fixed: the seed orders the operands only.
    for (p, e), m in TENSOR_FULL.items():
        q = p ** e
        pairs = [(m, q, 1)] + ([(q // 2, q + 1 - q // 2, 2)] if q < 49 else [])
        for x, y, repeats in pairs:
            x, y = (x, y) if rng.random() < 0.5 else (y, x)
            ops += [Op(f"tensor {p}^{e} J{x} J{y}",
                       lambda x=x, y=y, p=p, e=e: mr.jordan_tensor(J(p, e, (x,)), J(p, e, (y,))),
                       _tensor_check(p, e, x, y))] * repeats
    # Order-p single blocks against truncated Clebsch-Gordan.
    for p in (5, 7):
        for x, y in rng.sample([(x, y) for x in range(1, p + 1) for y in range(x, p + 1)], 2):
            ops.append(Op(f"tensor {p}^1 J{x} J{y}",
                          lambda x=x, y=y, p=p: mr.jordan_tensor(J(p, 1, (x,)), J(p, 1, (y,))),
                          _tensor_check(p, 1, x, y)))
    warm = Op("warmup", lambda: mr.jordan_tensor(J(3, 1, (2,)), J(3, 1, (2,))),
              lambda out, seen: _mismatch("J2 (x) J2 at p=3", list(out.blocks), [3, 1]))
    return Plan(ops, warm, round_s=3.7)


# ---------------------------------------------------------------------------
# library, growth part: recovery, reports, bounds and digits
# ---------------------------------------------------------------------------

#: Recover-and-report operations per round at each prime.
RECOVER_MIX = {13: 3, 17: 3, 19: 14, 23: 6}
#: Fixed partition-enumeration bounds (the costly ones, 0.1-0.2 s), so the
#: seed does not change how much enumeration a round does.
HEAVY_BOUNDS = (("plancherel_bound", 31, 10), ("improved_bound", 29, 8))
DIGIT_OPS = 8


def _recover_check(p, m, extra):
    blocks = sorted([k for k, x in enumerate(m, start=1) for _ in range(x)] + [p] * extra, reverse=True)
    dim = sum(blocks)
    weighted = sum(k * x for k, x in enumerate(m, start=1))
    want = (list(m), list(m), dim, True, dim == weighted if dim <= p - 1 else None)

    def check(out, seen):
        recovered, rep = out
        got = (list(recovered), list(rep.m), rep.dim, rep.divisibility_mod_p, rep.dimension_match)
        if got != want:
            return f"recover/report at p={p}: {got} != {want}"
        if not math.isclose(float(rep.rate.numeric), o.fp_dim_float(p, m), rel_tol=FLOAT_RTOL):
            return f"b_numeric {rep.rate.numeric} != {o.fp_dim_float(p, m)}"
        return None
    return check


def _bound_check(kind, p, d):
    def check(out, seen):
        if kind == "plancherel_bound":
            want = o.plancherel_square_sum(p, d) ** (1 / (2 * (p - 1)))
            return None if math.isclose(float(out), want, rel_tol=FLOAT_RTOL) else f"plancherel {out} != {want}"
        big, row_sum, box_sum = o.improved_parts(p, d)
        ratio = Fraction(d ** (p - 1), big)
        got = (out.max_schur_dim, out.row_sum, out.box_sum, out.ratio)
        if got != (big, row_sum, box_sum, ratio):
            return f"improved ({p}, {d}): {got} != {(big, row_sum, box_sum, ratio)}"
        if not math.isclose(float(out.bound), float(ratio) ** (1 / (p - 1)), rel_tol=FLOAT_RTOL):
            return f"improved bound {out.bound}"
        return None
    return check


def growth_plan(seed: int, prog) -> Plan:
    gr = prog.growth
    J = prog.modrep.JordanModule
    rng = random.Random(seed)

    def recover_and_report(p, m, sq, extra):
        """Multiplicities from growth data, then the report of the module
        with those blocks (plus `extra` negligible J_p blocks)."""
        found = gr.recover_multiplicities(p, m, sq)
        blocks = [k for k, x in enumerate(found, start=1) for _ in range(x)] + [p] * extra
        return found, gr.invariant_report(J(p, 1, tuple(blocks)))

    ops = []
    for p, count in RECOVER_MIX.items():
        for _ in range(count):
            m = [rng.choice((0, 0, 1, 2, 3)) for _ in range(p - 1)]
            if not any(m):
                m[rng.randrange(p - 1)] = 1
            extra = rng.randint(0, 2)
            ops.append(Op(f"recover {p} {m} +{extra}",
                          lambda p=p, m=m, sq=o.square_difference(p, m), extra=extra: recover_and_report(p, m, sq, extra),
                          _recover_check(p, m, extra)))
    for kind, p, d in HEAVY_BOUNDS + (("plancherel_bound", rng.choice((41, 43, 47)), rng.randint(2, 3)),
                                      ("improved_bound", rng.choice((41, 43, 47)), rng.randint(2, 3))):
        ops.append(Op(f"{kind} {p} {d}", lambda kind=kind, p=p, d=d: getattr(gr, kind)(p, d),
                      _bound_check(kind, p, d)))
    for _ in range(DIGIT_OPS):
        p, n = rng.choice((13, 17, 19, 23)), rng.randint(6000, 12000)
        dims = [o.lucas_binom(n, k, p) for k in range(n + 1)]
        ops.append(Op(f"digits {p} {n}", lambda p=p, dims=dims: gr.padic_digits(p, dims),
                      lambda out, seen, p=p, n=n: _mismatch(f"digits of {n} base {p}",
                                                            list(out.digits), o.base_digits(n, p))))
    m = [1, 0, 2, 0, 0, 1, 0, 0, 0, 1]
    warm = Op("warmup", lambda: recover_and_report(11, m, o.square_difference(11, m), 1),
              _recover_check(11, m, 1))
    return Plan(ops, warm, round_s=1.0)


# ---------------------------------------------------------------------------
# library: the three parts in one round
# ---------------------------------------------------------------------------


def library_plan(seed: int, root: Path) -> Plan:
    """The Brauer, modrep and growth operations shuffled into one round, so
    that one run is long enough to span several of the host's slow and fast
    phases.  Caches are cleared before every operation: the Lambda^2
    operations repeat within a round, and CLI users start cold."""
    prog = load_program(root)
    parts = [brauer_plan(seed, prog), modrep_plan(seed, prog), growth_plan(seed, prog)]

    def check_warmups(outs, seen):
        return next(filter(None, (part.warmup.check(out, seen) for part, out in zip(parts, outs))), None)

    warm = Op("warmup", lambda: [part.warmup.fn() for part in parts], check_warmups)
    return Plan([op for part in parts for op in part.ops], warm, round_s=sum(part.round_s for part in parts),
                reset=prog.clear_caches, program=prog)


def build(name: str, seed: int, root: Path, trace: bool) -> Plan:
    if name == "cli-light":
        return cli_plan(seed, root, in_process=trace)
    return library_plan(seed, root)
