"""Run one benchmark workload, or all of them, and print the result.

    python3 bench/run.py --workload library --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45

A run does whole rounds of a fixed, seeded list of operations in one
process, as a closed loop with one caller (cli-light starts one
`python -m semisimple.cli` child per request).  The number of rounds is
fixed by --seconds and the workload's planned round time, never by the
clock, so the work done does not depend on how fast the host is.  Every
output is checked; the last line printed is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  A run with a wrong output
or a failed operation is not correct and exits 1.

Every time reported is scaled to a reference host speed.  Before each
operation the run times the workload's reference computation (benchmark
code that never runs the program, see workloads.Plan.slowdown), and each
round's times are divided by that round's mean slowdown; a set-up probe's
time is divided by the slowdown of a child interpreter started on each
side of it (see README, Host speed).  The host this was built on switches
between a fast and a slow mode for up to a minute at a time, which moved
unscaled figures by more than a quarter between runs of the same code.

--trace 0 reports the end-to-end metrics.  --trace 1 reports the per-layer
metrics instead: it alternates untraced and traced rounds, takes layer
times from the traced ones, and reports the difference as
trace.overhead_pct.  Spans are written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402

#: Fewest operations in a run: the 90th percentile then has ten samples beyond it.
MIN_OPS = 100
#: Fewest repeats of each operation in a run.
MIN_ROUNDS = 3
#: Fresh processes timed from start to the end of their warm-up operation.
SETUP_PROBES = 11
#: Fresh interpreters timed importing semisimple.cli (trace runs of cli-light).
IMPORT_PROBES = 5

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def rounds_for(plan: wl.Plan, seconds: int) -> int:
    return max(math.ceil(MIN_OPS / len(plan.ops)), round(seconds / plan.round_s), MIN_ROUNDS)


class Tally:
    """Operation times by label (scaled to the reference speed), attempts,
    failures, check errors and each round's scale."""

    def __init__(self, on_start=None):
        self.on_start = on_start
        self.by_label: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.seen: dict = {}
        self.scales: list[float] = []

    def run(self, op: wl.Op) -> float | None:
        """Run and check one operation; its wall time, or None if it raised."""
        self.attempted += 1
        if self.on_start:
            self.on_start(op.label)
        start = time.perf_counter()
        try:
            out = op.fn()
        except Exception:  # a failed operation is counted, the run goes on
            self.failed += 1
            print(f"failed: {op.label}\n{traceback.format_exc()}", file=sys.stderr)
            return None
        elapsed = time.perf_counter() - start
        message = op.check(out, self.seen)
        self.seen[op.label] = out
        if message:
            self.errors.append(f"{op.label}: {message}")
            print(f"wrong: {op.label}: {message}", file=sys.stderr)
        return elapsed

    def round(self, plan: wl.Plan, order: list[wl.Op]):
        """Run one round, a reference timing before each operation, and keep
        the operations' times scaled to the reference speed by the round's
        mean slowdown."""
        slowdowns, times = [], []
        for op in order:
            slowdowns.append(plan.slowdown())
            plan.reset()
            elapsed = self.run(op)
            if elapsed is not None:
                times.append((op.label, elapsed))
        scale = 1 / statistics.fmean(slowdowns)
        self.scales.append(scale)
        for label, elapsed in times:
            self.by_label.setdefault(label, []).append(elapsed * scale)

    def typical_times(self) -> list[float]:
        """Each operation at the mean of its repeats, once per repeat."""
        if not self.by_label:
            raise SystemExit("error: no operation completed")
        return [statistics.fmean(t) for t in self.by_label.values() for _ in t]


def _shuffled(rng: random.Random, ops):
    order = list(ops)
    rng.shuffle(order)
    return order


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to the end of its warm-up,
    scaled to the reference speed by a child interpreter on each side."""
    before = wl.child_slowdown()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                             "--setup-only"], stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if line.strip() != b"ready" or code != 0:
        raise SystemExit(f"error: set-up probe for {workload} exited {code}")
    return elapsed / statistics.fmean((before, wl.child_slowdown()))


def import_probes() -> dict[str, float]:
    """Fresh-interpreter import times of semisimple.cli, and numpy's and
    mpmath's cumulative share from -X importtime (0 when not imported)."""
    env = wl.child_env(ROOT)
    snippet = "import time; t = time.perf_counter(); import semisimple.cli; print(time.perf_counter() - t)"
    whole = [float(subprocess.run([sys.executable, "-c", snippet], capture_output=True, env=env, cwd=ROOT,
                                  check=True, timeout=120).stdout) for _ in range(IMPORT_PROBES)]
    parts = {"numpy": [], "mpmath": []}
    for _ in range(IMPORT_PROBES):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import semisimple.cli"], capture_output=True,
                             env=env, cwd=ROOT, check=True, timeout=120, text=True).stderr
        cumulative = {}
        for line in err.splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1])
        for name in parts:
            parts[name].append(cumulative.get(name, 0) / 1000)
    return {"cli.import_ms": statistics.median(whole) * 1000,
            "cli.import_numpy_ms": statistics.median(parts["numpy"]),
            "cli.import_mpmath_ms": statistics.median(parts["mpmath"])}


def timed_run(args, plan: wl.Plan, tally: Tally) -> dict:
    rng = random.Random(f"order-{args.seed}")
    rounds = rounds_for(plan, args.seconds)
    # Set-up probes are spread over the run, so their median does not rest
    # on one phase of the host.  They start only after a round has ended.
    probe_after = Counter(math.ceil((k + 1) * rounds / SETUP_PROBES) - 1 for k in range(SETUP_PROBES))
    setups = []
    for i in range(rounds):
        tally.round(plan, _shuffled(rng, plan.ops))
        setups += [setup_probe(args.workload, args.seed) for _ in range(probe_after[i])]
    # Each operation counts at the mean of its repeats.  The host switches
    # between a fast and a slow mode (see README, Host); a mean moves in
    # proportion to the share of each mode, where a median or a minimum
    # jumps from one mode to the other.  The sum of the means is the wall
    # time of the timed list, scaled to the reference speed.
    typical = tally.typical_times()
    print(f"host: round scales to the reference speed {min(tally.scales):.3f}..{max(tally.scales):.3f}",
          file=sys.stderr)
    return {
        "ops_per_s": len(typical) / sum(typical),
        "op_p50_ms": statistics.median(typical) * 1000,
        "op_p90_ms": statistics.quantiles(typical, n=10)[8] * 1000,
        "peak_rss_mb": plan.peak_rss_mb(),
        "setup_s": statistics.median(setups),
    }


def traced_run(args, plan: wl.Plan, totals: Tally) -> dict:
    from tracing import Tracer

    tracer = Tracer(plan.program)
    rng = random.Random(f"order-{args.seed}")
    pairs = max(1, math.ceil(rounds_for(plan, args.seconds) / 2))
    plain, traced = Tally(), Tally(on_start=tracer.start_op)
    for i in range(pairs):
        order = _shuffled(rng, plan.ops)
        for tally in (plain, traced) if i % 2 == 0 else (traced, plain):
            if tally is traced:
                tracer.install()
            try:
                tally.round(plan, order)
            finally:
                tracer.remove()
    for part in (plain, traced):
        totals.attempted += part.attempted
        totals.failed += part.failed
        totals.errors += part.errors
    metrics = {name: 0.0 for name in ("cli.import_ms", "cli.import_numpy_ms", "cli.import_mpmath_ms", "cli.handler_ms")}
    metrics.update(tracer.layer_metrics(pairs))
    # Total time of the traced rounds against that of the untraced ones.
    metrics["trace.overhead_pct"] = 100 * (sum(traced.typical_times()) / sum(plain.typical_times()) - 1)
    if args.workload == "cli-light":
        metrics["cli.handler_ms"] = statistics.median(plain.typical_times()) * 1000
        metrics.update(import_probes())
    tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
    return metrics


def run_one(args) -> int:
    plan = wl.build(args.workload, args.seed, ROOT, trace=bool(args.trace))
    warm = Tally()
    warm.run(plan.warmup)
    if warm.failed or warm.errors:
        raise SystemExit(f"error: the warm-up operation of {args.workload} failed")
    if args.setup_only:
        print("ready", flush=True)
        return 0
    tally = Tally()
    if args.trace:
        from tracing import LAYER_METRICS

        values, units = traced_run(args, plan, tally), LAYER_METRICS
    else:
        values, units = timed_run(args, plan, tally), END_TO_END_UNITS
    # A failed operation drops out of the times, so a run with one cannot be
    # compared with one without: it is not correct.
    correct = not tally.errors and not tally.failed
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process and print a table, then the
    results as one JSON object keyed by workload."""
    results = {}
    for name in wl.WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600)
        if proc.returncode != 0 and not proc.stdout.strip():
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        res = results[name] = json.loads(proc.stdout.splitlines()[-1])
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:26s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45, help="nominal length of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
