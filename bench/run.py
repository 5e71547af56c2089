"""End-to-end benchmark of the fimsim CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``).
A run repeats rounds of one workload for about S seconds.  A round is one
``fimsim`` CLI process, started through ``launch.py`` with CLI seed
``1000 * N + round``; its outputs are checked (``checks.py``) and deleted.

With ``--trace 0`` the run reports the end-to-end metrics as medians over
its rounds (``opt_rate_bits`` as their mean).  With ``--trace 1`` each
round is one untraced and one traced process on the same CLI seed; the run
reports per-layer self times and counts from the traced ones, averaged per
process, and the tracing overhead as the mean traced-minus-untraced wall
time.  The last line of standard output is the JSON result; the full
record, with the runtime environment, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

# BLAS and OpenMP thread-count variables.  They are cleared from the CLI's
# environment so the program runs at its own default threading.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CALLER_ENV = dict(os.environ)
# The checks in this process run single-threaded, so that no idle BLAS
# thread of ours spins while a measured CLI process starts.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import checks  # noqa: E402  (imports numpy; the reference draws through fimsim)

WORK_DIR = os.path.join(BENCH_DIR, "work")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
RUN_LIMIT_S = 170.0

# name -> (subcommand, config file text, extra CLI arguments).  Empty config
# text means the CLI's defaults.
WORKLOADS = {
    # The paper's headline sweep: N=16, 2x2 arrays, P=2, 3 waveforms x
    # 3 modes x 5 SNR points, two trials (ten ascents) per process.  The
    # iteration budget is 10, not the default 60: at 60, how many iterations
    # an ascent makes depends on the scenario (5 to 60), so the work of a
    # round varies sixfold; at 10 the budget ends 97% of the ascents.  Not in
    # BENCHMARK.json: at the default two BLAS threads its wall time spreads
    # too far between runs (see README.md); it runs by hand.
    "sweep-paper": ("rate-sweep", "optimizer_iters = 10\n", ["--trials", "2"]),
    # 4x4 arrays at both ends: 256x256 channel, 32 element gradients per
    # iteration.  Six iterations, so the budget ends every ascent.
    "optimize-wide": ("optimize-once",
                      "tx_elements_x = 4\ntx_elements_z = 4\n"
                      "rx_elements_x = 4\nrx_elements_z = 4\n"
                      "optimizer_iters = 6\n", []),
    # Long frames and many paths (P >= d_s): N=64, P=5, two SNR points.
    # Two iterations per ascent keep the 18 channel assemblies and rates of
    # each record set a visible share next to the two ascents, and the
    # round's work nearly fixed (backtracking varies with the scenario).
    "sweep-long-frame": ("rate-sweep",
                         "block_length = 64\nnum_paths = 5\nsnr_db = 0, 20\n"
                         "optimizer_iters = 2\n", ["--trials", "1"]),
    # Defaults (1-degree grid of 181 x 181 points, 3 modes x 3 waveforms)
    # except a 10-iteration budget for the one ascent, so that the scan and
    # the CSV output dominate and the ascent's scenario-dependent length
    # (5 to 60 iterations at the default budget) does not.
    "music-scan": ("music", "optimizer_iters = 10\n", []),
}


class RunFailure(Exception):
    """The program or the checkout cannot run at all."""


def child_env(blas_threads) -> tuple:
    env = {k: v for k, v in CALLER_ENV.items() if k not in THREAD_VARS}
    set_vars = {k: CALLER_ENV[k] for k in THREAD_VARS if k in CALLER_ENV}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env, set_vars


def probe_environment(env) -> dict:
    out = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "launch.py"), "--env"],
                         env=env, capture_output=True, text=True, timeout=60, check=False)
    if out.returncode != 0:
        raise RunFailure(f"environment probe failed: {out.stderr.strip()}")
    return json.loads(out.stdout)


def launch(cli_args, round_dir, env, trace, deadline) -> dict:
    """One CLI process; returns its launcher record plus wall time."""
    os.makedirs(round_dir, exist_ok=True)
    record_path = os.path.join(round_dir, "record.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "launch.py"), record_path]
    cmd += ["--trace"] if trace else []
    cmd += ["--"] + cli_args
    with open(os.path.join(round_dir, "stderr.txt"), "w", encoding="utf-8") as err:
        t_launch = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            raise RunFailure(f"fimsim {' '.join(cli_args)} did not end in time") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        t_exit = time.monotonic()
    if code != 0 or not os.path.exists(record_path):
        with open(os.path.join(round_dir, "stderr.txt"), encoding="utf-8") as fh:
            return {"exit_code": code, "stderr": fh.read()[-2000:]}
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    if record["entered"] is None:
        raise RunFailure("the launcher found no experiment function to time")
    record["wall_s"] = t_exit - t_launch
    record["setup_s"] = record["entered"] - t_launch
    if trace:
        record["spans"] += [["process.start", t_launch, record["started"], -1],
                            ["process.exit", record["returned"], t_exit, -1]]
    return record


def layer_totals(record) -> dict:
    """Per-span call counts and self times of one traced process."""
    spans = record["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_s = defaultdict(int), defaultdict(float)
    for (name, start, end, _), covered in zip(spans, child):
        calls[name] += 1
        self_s[name] += (end - start) - covered
    return {"calls": calls, "self_s": self_s}


def per_layer_metrics(traced, pairs) -> dict:
    n = len(traced)
    totals = [layer_totals(r) for r in traced]

    def mean_self(span):
        return sum(t["self_s"].get(span, 0.0) for t in totals) / n

    def mean_calls(span):
        return sum(t["calls"].get(span, 0) for t in totals) / n

    def mean_counter(key):
        return sum(r["counters"].get(key, 0) for r in traced) / n

    m = {"process.start_s": (mean_self("process.start"), "s"),
         "cli.import_s": (mean_self("cli.import"), "s")}
    for span in ("geometry.steering", "channel.time_factor", "waveforms.channel",
                 "optimizer.rate", "optimizer.solve", "optimizer.factor"):
        m[f"{span}_calls"] = (mean_calls(span), "count")
        m[f"{span}_s"] = (mean_self(span), "s")
    m["optimizer.optimize_calls"] = (mean_calls("optimizer.optimize"), "count")
    m["optimizer.self_s"] = (mean_self("optimizer.optimize"), "s")
    optimize_s = sum(sum(e - s for nm, s, e, _ in r["spans"] if nm == "optimizer.optimize")
                     for r in traced) / n
    m["optimizer.optimize_s"] = (optimize_s, "s")
    iterations = mean_counter("optimizer.iterations")
    m["optimizer.iterations"] = (iterations, "count")
    m["optimizer.iter_ms"] = (1e3 * optimize_s / iterations if iterations else 0.0, "ms")
    evals = mean_calls("optimizer.objective")
    m["optimizer.objective_evals"] = (evals, "count")
    m["optimizer.objective_s"] = (mean_self("optimizer.objective"), "s")
    searches = evals - mean_calls("optimizer.optimize")
    m["optimizer.accept_ratio"] = (iterations / searches if searches > 0 else 0.0, "ratio")
    m["music.scan_points"] = (mean_counter("music.scan_points"), "count")
    for label in ("music.scan", "music.peaks", "music.csv", "harness.run", "harness.emit"):
        m[f"{label}_s"] = (mean_self(label), "s")
    m["harness.emit_mb"] = (mean_counter("harness.emit_bytes") / 1e6, "MB")
    m["process.exit_s"] = (mean_self("process.exit"), "s")
    self_sum = sum(sum(t["self_s"].values()) for t in totals) / n
    m["trace.self_sum_s"] = (self_sum, "s")
    m["trace.untraced_wall_s"] = (statistics.fmean(u["wall_s"] for u, _ in pairs), "s")
    m["trace.overhead_s"] = (statistics.fmean(t["wall_s"] - u["wall_s"] for u, t in pairs), "s")
    return m


def round_outcome(subcommand, out_dir, record) -> tuple:
    """(problems, optimized rate) of one finished round."""
    try:
        problems = checks.CHECKS[subcommand](out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"], None
    if subcommand == "rate-sweep":
        rate = checks.sweep_opt_rate(out_dir)
    elif subcommand == "optimize-once":
        rate = checks.read_optimized(out_dir)["rate_trace"][-1]
    else:
        # fimsim music writes no rate; the single ascent's result is read
        # from the return value of optimize by the launcher.
        rate = statistics.fmean(record["final_rates"]) if record["final_rates"] else None
        if rate is None:
            problems.append("music run reported no optimized rate")
    return problems, rate


def run(workload, seed, seconds, trace, blas_threads=None) -> dict:
    start = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "fimsim", "cli.py")):
        raise RunFailure(f"no fimsim sources under {ROOT}/src")
    subcommand, config_text, extra = WORKLOADS[workload]
    tag = f"{workload}-seed{seed}-trace{int(trace)}" + (
        "" if blas_threads is None else f"-threads{blas_threads}")
    env, set_vars = child_env(blas_threads)
    environment = probe_environment(env)
    environment["thread_vars_set"] = set_vars
    environment["blas_threads_option"] = blas_threads

    work = os.path.join(WORK_DIR, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config_args = []
    if config_text:
        with open(os.path.join(work, "workload.cfg"), "w", encoding="utf-8") as fh:
            fh.write(config_text)
        config_args = ["--config", os.path.join(work, "workload.cfg")]

    deadline = start + RUN_LIMIT_S
    rounds, pairs, traced, problems = [], [], [], []
    attempted = failed = 0
    longest = 0.0
    r = -1
    try:
        while attempted == 0 or time.monotonic() - start + longest <= seconds:
            t_round = time.monotonic()
            r += 1
            cli_seed = 1000 * seed + r
            records = []
            # Traced and untraced take turns at going first.
            order = ((False, True) if r % 2 == 0 else (True, False)) if trace else (False,)
            for tr in order:
                out_dir = os.path.join(work, f"round{r}-{'traced' if tr else 'plain'}")
                cli = [subcommand, *config_args, "--seed", str(cli_seed),
                       "--out", out_dir, *extra]
                record = launch(cli, out_dir, env, tr, deadline)
                attempted += 1
                if record["exit_code"] != 0:
                    failed += 1
                    print(f"round {r}: fimsim exited {record['exit_code']}:\n"
                          f"{record.get('stderr', '')}", file=sys.stderr)
                    continue
                found, rate = round_outcome(subcommand, out_dir, record)
                problems += [f"seed {cli_seed}: {p}" for p in found]
                record["opt_rate_bits"] = rate
                record["cli_seed"] = cli_seed
                record["traced"] = tr
                records.append(record)
                shutil.rmtree(out_dir)
            if trace and len(records) == 2:
                records.sort(key=lambda rec: rec["traced"])
                pairs.append(tuple(records))
                traced.append(records[1])
                _keep_trace(f"{tag}-round{r}", records[1])
            elif not trace and records:
                rounds.append(records[0])
            elif not records and attempted == failed:
                raise RunFailure("every fimsim run failed")
            longest = max(longest, time.monotonic() - t_round)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        if not pairs:
            raise RunFailure("no traced round completed")
        metrics = per_layer_metrics(traced, pairs)
        plain = [u for u, _ in pairs]
    else:
        plain = rounds
        rates = [r["opt_rate_bits"] for r in plain if r["opt_rate_bits"] is not None]
        if not rates:
            raise RunFailure("no round produced an optimized rate")
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
            "setup_s": (statistics.median(r["setup_s"] for r in plain), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in plain) / 1024.0, "MB"),
            "opt_rate_bits": (statistics.fmean(rates), "bit"),
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment, "problems": problems[:50],
        "rounds": [{k: r[k] for k in ("cli_seed", "wall_s", "setup_s", "peak_rss_kb",
                                      "opt_rate_bits")} for r in plain],
        "result": result,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    return result


def _keep_trace(name, record) -> None:
    """Write the spans of one traced process beside the results."""
    trace_dir = os.path.join(RESULTS_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"cli_seed": record["cli_seed"], "spans": record["spans"],
                   "counters": record["counters"]}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=None,
                        help="run fimsim with OPENBLAS_NUM_THREADS set to this"
                        " (for the single-threaded baseline); by default every"
                        " thread-count variable is cleared")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.blas_threads)
    except RunFailure as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
