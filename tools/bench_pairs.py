"""Run the benchmark on two checkouts in alternating pairs and compare their
end-to-end metrics.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload short-jobs --pairs 10

Pair k (k = 0, 1, ...) runs

    python3 hvolbench/run.py --workload W --seed k --seconds 25

in each checkout, one process at a time with the checkout as its working
directory; the parent goes first in even pairs and the change in odd ones,
so that a drift of the host's speed falls on both sides alike.  Each run's
result is its last line of stdout, and the tool writes no file.

It prints one line per run (side, seed, `correct`, `failed` and the metrics),
then one line per metric of BENCHMARK.json's end_to_end list: the parent's
and the change's medians, the change's relative difference, how many pairs
the change wins in the metric's better direction, and the parent's
interquartile range (`statistics.quantiles`, n=4).  A gain stands out from
the parent's spread when the medians differ by more than that range.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run in `checkout`: its result line, parsed."""
    argv = ["python3", "hvolbench/run.py", "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(
        [*argv, "--seconds", "25"], cwd=checkout, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for seed in range(args.pairs):
        order = ["parent", "change"] if seed % 2 == 0 else ["change", "parent"]
        for side in order:
            result = run(sides[side], args.workload, seed)
            results[side].append(result)
            values = " ".join(f"{m}={result['metrics'][m]['value']:.6g}" for m in metrics)
            print(
                f"{args.workload} seed={seed} {side}: correct={result['correct']} "
                f"failed={result['failed']} {values}",
                flush=True,
            )
    for name, better in metrics.items():
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        wins = sum((c > p) if better == "higher" else (c < p) for p, c in zip(parent, change))
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (parent[0],) * 3
        before, after = statistics.median(parent), statistics.median(change)
        print(
            f"{args.workload} {name} ({better} is better): parent median {before:.6g}, "
            f"change median {after:.6g} ({100 * (after / before - 1):+.1f}%), "
            f"change wins {wins}/{len(parent)}, parent IQR {q3 - q1:.6g}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
