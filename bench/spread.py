"""Run-to-run spread of the benchmark, one fresh process per run.

    python3 bench/spread.py --runs 10 [--trace 0|1] [--output FILE]

Runs ``bench/run.py`` for each workload with seeds 1, 2, ..., runs, one
after another, each for the ``run_seconds`` of BENCHMARK.json, and prints
per metric the median, the quartiles and the spread: the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median.  With ``--output`` the summary is written as JSON;
the reference figures in bench/README.md come from

    python3 bench/spread.py --runs 10 --output bench/reference.json
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("compile_deep", "verify_exhaustive", "refute_mutants")


def one_run(workload, seed, seconds, trace):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=BENCH.parent, capture_output=True, text=True,
                          timeout=180, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def summarize(results):
    metrics = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        metrics[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return {
        "runs": len(results),
        "correct": all(r["correct"] for r in results),
        "failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
        "metrics": metrics,
    }


def dumps(summary):
    """JSON text with each metric on one line."""
    text = json.dumps(summary, indent=1)
    return re.sub(r"\{[^{}]*\}", lambda m: " ".join(m.group(0).split()), text) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--output", type=Path)
    args = parser.parse_args()

    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
    summary = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in WORKLOADS:
        results = [
            one_run(workload, seed, seconds, args.trace)
            for seed in range(1, args.runs + 1)
        ]
        s = summary["workloads"][workload] = summarize(results)
        print(f"{workload}: correct={s['correct']} failed/attempted={s['failed_share']}")
        for name, m in s["metrics"].items():
            print(f"  {name:32} median {m['median']:14.6g} {m['unit']:6} "
                  f"spread {100 * m['spread']:6.2f}%")
        sys.stdout.flush()
    if args.output:
        args.output.write_text(dumps(summary))


if __name__ == "__main__":
    main()
