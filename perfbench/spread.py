"""Run one workload over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload greedy --seeds 1-10 --seconds 20 [--trace 0]

Runs `perfbench/run.py` once per seed, one run at a time, from the root of
the checkout, and prints per metric the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread: the distance between
the quartiles as a share of the median. With --trace 0 the unscaled wall-time
figures of the record (`wall.*`) are summarised too, to show what the
host-speed scaling removes. The last line is the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values), "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    values, units, attempted, failed = {}, {}, 0, 0
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            sys.exit(1)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        record = json.loads(lines[-2].partition(" ")[2])
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.5g}"
                                         for k, v in result["metrics"].items()), flush=True)
        wall = {f"wall.{k}": v for k, v in record.get("wall", {}).items()}
        for name, metric in {**result["metrics"], **wall}.items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    summary = {name: {"unit": units[name], **summarise(v)} for name, v in values.items()}
    for name, s in summary.items():
        print(f"{name:45s} median {s['median']:12.6g} {s['unit']:10s} spread {s['spread']:.3f}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
                      "trace": int(args.trace), "attempted": attempted, "failed": failed,
                      "metrics": summary}))


if __name__ == "__main__":
    main()
