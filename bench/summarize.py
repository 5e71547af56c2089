"""Summarize the run records in bench/results/.

    python3 bench/summarize.py

For every (workload, threading) pair prints each end-to-end metric's
median, first and third quartiles over the untraced runs, and the
spread: the distance between the quartiles as a share of the median.
Then prints the mean of each per-layer metric over the traced runs.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
from collections import defaultdict

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def main() -> None:
    runs = defaultdict(list)
    for path in sorted(glob.glob(os.path.join(RESULTS_DIR, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        threads = sorted({lib.get("threads") for lib in rec["environment"]["openblas"]})
        runs[(rec["workload"], str(threads), rec["trace"])].append(rec)

    for (workload, threads, trace), recs in sorted(runs.items()):
        ok = all(r["result"]["correct"] for r in recs)
        attempted = sum(r["result"]["attempted"] for r in recs)
        failed = sum(r["result"]["failed"] for r in recs)
        print(f"\n{workload}  BLAS threads {threads}  {'traced' if trace else 'untraced'}"
              f"  runs {len(recs)}  operations {attempted}  failed {failed}"
              f"  correct {ok}")
        metrics = defaultdict(list)
        for r in recs:
            for name, m in r["result"]["metrics"].items():
                metrics[name].append((m["value"], m["unit"]))
        for name, vals in metrics.items():
            values = [v for v, _ in vals]
            unit = vals[0][1]
            med = statistics.median(values)
            if len(values) >= 2 and not trace:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("nan")
                print(f"  {name:28s} median {med:12.6g} {unit:6s} q1 {q1:12.6g}"
                      f" q3 {q3:12.6g}  spread {spread:7.2%}")
            else:
                print(f"  {name:28s} {'median' if len(values) > 1 else 'value '}"
                      f" {med:12.6g} {unit}")


if __name__ == "__main__":
    main()
