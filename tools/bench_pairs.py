"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload short-20k \
        --pairs 10 --seeds 11 12 13 [--seconds 8] [--trace 0] [--out runs.json]

Each pair runs ``python3 benchmarks/run.py`` once in each checkout, with the
same workload and seed: the parent first in even pairs, the change first in
odd ones, so that a drift in the machine's speed falls on both alike. Pair i
uses seed ``seeds[i % len(seeds)]``. For every metric of the run's result
line (end-to-end, or per-layer with ``--trace 1``) and every workload it
prints the parent's and the change's median and quartiles, the change's
median relative to the parent's, how many pairs the change won (strictly
better, in the direction ``BENCHMARK.json`` declares), and whether the
change's median is better than the parent's by more than the parent's
quartile distance. A performance claim holds when the change wins at least
9 of 10 pairs and passes that last test. It also counts the pairs whose two
runs printed the same ``report_sha256``. A pair in which either run fails is
left out of the table and makes the exit status 1. Standard library only.

The run's info line (the line before its result) carries ``samples``;
``--out`` keeps them with each run. When every run's samples hold
``raw_setup_s``, the set-up times before the speed probe rescales them, one
more row, ``raw_setup_s``, compares the median of each run's raw set-up
times, as a check that the rescaling does not hide or make a set-up change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict | None:
    """The result line of one benchmark run, with the ``report_sha256`` and
    the ``samples`` (empty if absent) of its info line; None when the run
    failed."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"  {checkout} {workload} seed {seed}: exit {proc.returncode}: "
              f"{proc.stderr.strip()[-300:]}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])
    result["report_sha256"] = info["report_sha256"]
    result["samples"] = info.get("samples", {})
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def raw_setup(run: dict) -> float | None:
    """The median of the run's raw set-up times, None without them."""
    values = run["samples"].get("raw_setup_s")
    return statistics.median(values) if values else None


def print_row(name: str, parent: list[float], change: list[float],
              sign: float) -> None:
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    rel = f"{100.0 * (cm / pm - 1.0):+.1f}%" if pm else "n/a"
    clear = "yes" if sign * (cm - pm) > p3 - p1 else "no"
    print(f"{name:<28} {f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':>30} "
          f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>30} {rel:>8} "
          f"{f'{wins}/{len(parent)}':>6} {clear:>6}")


def summarize(workload: str, pairs: list[tuple[dict, dict]],
              better: dict[str, str]) -> None:
    """Print one line per metric of the completed ``pairs``, and one for
    their raw set-up times when every run has them."""
    same = sum(a["report_sha256"] == b["report_sha256"] for a, b in pairs)
    print(f"\n{workload}: {len(pairs)} pairs, report_sha256 equal in {same}")
    print(f"{'metric':<28} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'change':>8} {'wins':>6} "
          f"{'> IQR':>6}")
    for name in pairs[0][0]["metrics"]:
        print_row(name, [a["metrics"][name]["value"] for a, _ in pairs],
                  [b["metrics"][name]["value"] for _, b in pairs],
                  -1.0 if better.get(name, "lower") == "lower" else 1.0)
    raw = [(raw_setup(a), raw_setup(b)) for a, b in pairs]
    if all(None not in pair for pair in raw):
        parent, change = zip(*raw)
        print_row("raw_setup_s", list(parent), list(change), -1.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="write every run's result here as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in declared["end_to_end"] + declared["per_layer"]}

    runs: dict[str, list] = {}
    failed = 0
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            seed = args.seeds[i % len(args.seeds)]
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            got = {side: run_once(getattr(args, side), workload, seed,
                                  args.seconds, args.trace)
                   for side in order}
            print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: "
                  f"{' then '.join(order)}"
                  f"{'' if all(got.values()) else ' (a run failed)'}",
                  file=sys.stderr)
            if all(got.values()):
                pairs.append((got["parent"], got["change"]))
            else:
                failed += 1
        runs[workload] = [{"parent": a, "change": b} for a, b in pairs]
        if pairs:
            summarize(workload, pairs, better)
        print(f"{workload}: {args.pairs - len(pairs)} pairs failed")
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
