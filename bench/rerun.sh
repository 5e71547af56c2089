#!/bin/sh
# Reruns every figure in bench/README.md from the root of a source checkout:
# ten seeds per workload untraced and one traced run per workload, first at
# the program's default BLAS threading and then with OPENBLAS_NUM_THREADS=1,
# then prints the summary.  Takes about 45 minutes at run_seconds = 30.
set -e
cd "$(dirname "$0")/.."
seconds=$(python3 -c "import json; print(json.load(open('BENCHMARK.json'))['run_seconds'])")
for threads in default 1; do
  if [ "$threads" = default ]; then opt=""; else opt="--blas-threads $threads"; fi
  for w in sweep-paper optimize-wide sweep-long-frame music-scan; do
    for seed in 0 1 2 3 4 5 6 7 8 9; do
      python3 bench/run.py --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 $opt
    done
    python3 bench/run.py --workload "$w" --seed 0 --seconds "$seconds" --trace 1 $opt
  done
done
python3 bench/summarize.py
