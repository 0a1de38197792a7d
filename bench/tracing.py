"""Spans around the library's public functions, for the --trace 1 runs.

`Tracer` wraps each function in TARGETS and puts the wrapper on every
module attribute that holds that function, so a name one module imported
from another (modrep.row_echelon_mod_p, modrep.jordan_type,
brauer.exact_rank, growth.exterior_power, ...) is traced as well.  A span
is (name, start, end, parent, op); spans stay in memory and are written
out when the run ends.  Self time is a span's duration minus that of its
direct children.  Untraced runs never install the wrappers.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path


def _rank_span(args, kwargs, fp_type):
    matrix = args[0] if args else kwargs["matrix"]
    first = list(matrix[0]) if len(matrix) else []
    return "scalars.rank_fp" if any(isinstance(x, fp_type) for x in first) else "scalars.rank_q"


def _echelon_span(args, kwargs, fp_type):
    p = args[1] if len(args) > 1 else kwargs["p"]
    return "scalars.echelon_mod2" if p == 2 else "scalars.echelon_modp"


#: (module, function, span name or namer(args, kwargs, FpScalar), counter).
TARGETS = (
    ("brauer", "hom_basis", "brauer.hom_basis", None),
    ("brauer", "gram_matrix", "brauer.gram",
     lambda out, args: ("brauer.gram_entries", len(out) * (len(out[0]) if out else 0))),
    ("scalars", "exact_rank", _rank_span, None),
    ("scalars", "row_echelon_mod_p", _echelon_span, None),
    ("modrep", "jordan_type", "modrep.jordan_type", lambda out, args: ("modrep.jordan_dim", args[0].shape[0])),
    ("modrep", "jordan_tensor", "modrep.tensor", None),
    ("modrep", "exterior_power", "modrep.wedge", None),
    ("modrep", "ext2", "modrep.wedge", None),
    ("modrep", "sym2", "modrep.sym2", None),
    ("growth", "recover_multiplicities", "growth.recover", None),
    ("growth", "invariant_report", "growth.report", None),
    ("verlinde", "fp_dim", "verlinde.fp_dim", None),
    ("growth", "plancherel_square_sum", "growth.bounds", None),
    ("growth", "plancherel_bound", "growth.bounds", None),
    ("growth", "improved_bound", "growth.bounds", None),
    ("partitions", "enumerate_in_box", "partitions.enumerate", None),
    ("growth", "padic_digits", "growth.digits", None),
)

#: Per-layer metric -> (unit, how it is computed); see README.
LAYER_METRICS = {
    "cli.import_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.import_mpmath_ms": "ms",
    "cli.handler_ms": "ms",
    "brauer.hom_basis_ms": "ms",
    "brauer.gram_ms": "ms",
    "brauer.gram_entries": "count",
    "scalars.rank_q_ms": "ms",
    "scalars.rank_fp_ms": "ms",
    "scalars.echelon_modp_ms": "ms",
    "scalars.echelon_mod2_ms": "ms",
    "modrep.tensor_ms": "ms",
    "modrep.wedge_ms": "ms",
    "modrep.sym2_ms": "ms",
    "modrep.jordan_type_ms": "ms",
    "modrep.induced_build_ms": "ms",
    "modrep.jordan_dim": "count",
    "growth.recover_ms": "ms",
    "growth.report_ms": "ms",
    "verlinde.fp_dim_ms": "ms",
    "growth.bounds_ms": "ms",
    "partitions.enumerate_ms": "ms",
    "growth.digits_ms": "ms",
    "trace.overhead_pct": "%",
}


class Tracer:
    def __init__(self, program):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.ops: list[str] = []
        self.op = -1
        self._patches = []
        fp_type = program.scalars.FpScalar
        for module, name, span, counter in TARGETS:
            fn = getattr(getattr(program, module), name, None)
            if fn is None:  # renamed or removed: the metric reads 0
                continue
            wrapper = self._wrap(fn, span, counter, fp_type)
            for m in program.modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._patches.append((m, attr, fn, wrapper))

    def _wrap(self, fn, span, counter, fp_type):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            name = span if isinstance(span, str) else span(args, kwargs, fp_type)
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None, self.op])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if counter:
                key, n = counter(out, args)
                counts[key] += n
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def start_op(self, label: str):
        """Tag the spans that follow with a new operation index."""
        self.ops.append(label)
        self.op = len(self.ops) - 1

    def install(self):
        for m, attr, _, wrapper in self._patches:
            setattr(m, attr, wrapper)

    def remove(self):
        for m, attr, fn, _ in self._patches:
            setattr(m, attr, fn)

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round layer times (ms) and counts from the recorded spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child[parent] += end - start
        total = defaultdict(float)  # inclusive, outermost span of each name only
        own = defaultdict(float)  # self time
        jordan_in_induced = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            own[name] += dur - child[i]
            ancestors = []
            while parent is not None:
                ancestors.append(spans[parent][0])
                parent = spans[parent][3]
            if name not in ancestors:
                total[name] += dur
            if name == "modrep.jordan_type" and {"modrep.wedge", "modrep.sym2"} & set(ancestors):
                jordan_in_induced += dur
        ms = 1000.0 / rounds
        return {
            "brauer.hom_basis_ms": total["brauer.hom_basis"] * ms,
            "brauer.gram_ms": own["brauer.gram"] * ms,
            "brauer.gram_entries": self.counts["brauer.gram_entries"] / rounds,
            "scalars.rank_q_ms": total["scalars.rank_q"] * ms,
            "scalars.rank_fp_ms": total["scalars.rank_fp"] * ms,
            "scalars.echelon_modp_ms": total["scalars.echelon_modp"] * ms,
            "scalars.echelon_mod2_ms": total["scalars.echelon_mod2"] * ms,
            "modrep.tensor_ms": total["modrep.tensor"] * ms,
            "modrep.wedge_ms": total["modrep.wedge"] * ms,
            "modrep.sym2_ms": total["modrep.sym2"] * ms,
            "modrep.jordan_type_ms": own["modrep.jordan_type"] * ms,
            "modrep.induced_build_ms": (total["modrep.wedge"] + total["modrep.sym2"] - jordan_in_induced) * ms,
            "modrep.jordan_dim": self.counts["modrep.jordan_dim"] / rounds,
            "growth.recover_ms": total["growth.recover"] * ms,
            "growth.report_ms": own["growth.report"] * ms,
            "verlinde.fp_dim_ms": total["verlinde.fp_dim"] * ms,
            "growth.bounds_ms": own["growth.bounds"] * ms,
            "partitions.enumerate_ms": total["partitions.enumerate"] * ms,
            "growth.digits_ms": total["growth.digits"] * ms,
        }

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans,
                                   "ops": self.ops}))
