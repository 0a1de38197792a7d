"""Steadiness check: repeat each workload over several seeds and report,
for every metric, the median and the interquartile spread as a share of
the median, next to the bound in BENCHMARK.json.

    python3 bench/steady.py --runs 10 --first-seed 1
    python3 bench/steady.py --workloads library --runs 5
    python3 bench/steady.py --runs 10 --sets 2

Runs are untraced and last BENCHMARK.json's run_seconds.  Before each run
it times a fixed pure-Python loop (the host-speed probe), which is printed
but is not a metric.  A spread above a third of its bound is marked '!';
the failed share must be the same in every run.  With --sets 2 it runs two
sets of seeds in alternation (the second set's seeds follow the first's)
and prints, for every metric, how much worse the second set's median is
than the first's; above the bound that is marked '!' too.  Results go to
bench/out/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def host_probe_ms() -> float:
    """Median of five timings of a fixed pure-Python loop."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append((time.perf_counter() - start) * 1000)
    return statistics.median(samples)


def run(workload: str, seed: int, seconds: int) -> dict:
    probe = host_probe_ms()
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600)
    wall = time.perf_counter() - start
    if not proc.stdout.strip():
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, no result")
    result = json.loads(proc.stdout.splitlines()[-1])
    result.update(seed=seed, probe_ms=probe, wall_s=wall)
    values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
    print(f"{workload} seed={seed} probe={probe:.1f}ms wall={wall:.1f}s correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']} {values}", flush=True)
    return result


def summarise(runs: list[dict], bounds: dict) -> tuple[dict, bool]:
    """Median, quartiles and spread of every metric; False if a spread is
    above a third of its bound."""
    steady = True
    summary = {}
    for name in runs[0]["metrics"]:
        q1, med, q3 = statistics.quantiles([r["metrics"][name]["value"] for r in runs], n=4)
        share = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "!" if bound and share > bound / 3 else " "
        steady &= flag == " "
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": share, "bound": bound}
        print(f"  {flag} {name:26s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  spread {share:7.2%}"
              + (f"  bound {bound:.0%}" if bound else ""))
    return summary, steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10, help="runs (seeds) in a set")
    parser.add_argument("--sets", type=int, default=1, help="sets of runs, run in alternation")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        sets = [[] for _ in range(args.sets)]
        for i in range(args.runs):
            for k, runs in enumerate(sets):
                runs.append(run(workload, args.first_seed + k * args.runs + i, seconds))
        every = [r for runs in sets for r in runs]
        shares = {r["failed"] / r["attempted"] for r in every}
        print(f"{workload}: failed share per run {sorted(shares)}{'' if len(shares) == 1 else '  ! differs'}")
        steady &= len(shares) == 1 and all(r["correct"] for r in every)
        summaries = []
        for k, runs in enumerate(sets):
            seeds = f"{runs[0]['seed']}..{runs[-1]['seed']}"
            print(f"{workload} set {k + 1} (seeds {seeds}):")
            summary, ok = summarise(runs, bounds)
            summaries.append(summary)
            steady &= ok
        worse = {}
        for name, first in summaries[0].items():
            for k, summary in enumerate(summaries[1:], start=2):
                ratio = summary[name]["median"] / first["median"]
                worse[name] = ratio - 1 if better[name] == "lower" else 1 / ratio - 1
                flag = "!" if worse[name] > bounds[name] else " "
                steady &= flag == " "
                print(f"  {flag} {name:26s} set {k} median / set 1 median {ratio:.4f}  "
                      f"worse by {worse[name]:+.2%}  bound {bounds[name]:.0%}")
        out = HERE / "out" / f"steady-{workload}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"seconds": seconds, "sets": sets, "summaries": summaries, "worse": worse},
                                  indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
