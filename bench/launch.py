"""Run the fimsim CLI in this process and record when and where its time went.

    python3 bench/launch.py RECORD.json [--trace] -- <fimsim arguments>
    python3 bench/launch.py --env

The first form imports ``fimsim.cli``, rebinds a few of fimsim's public
functions to timing wrappers, calls ``fimsim.cli.main`` with the given
arguments, and writes a JSON record once the CLI returns.  The program
itself is not modified: every wrapper is installed under the name that
each calling module binds the function to, so internal calls (such as
``steering_derivative`` calling ``steering_vector``) pass through it too.

Without ``--trace`` only the experiment functions and ``optimize`` are
wrapped, to note when set-up ends and what rate each ascent reached; that
adds a handful of calls per run.  With ``--trace`` every function in
``TRACED`` records a span (name, start, end, parent), kept in memory and
written with the record.  A function that no longer exists is skipped and
so reports zero calls.

The second form prints the runtime environment (Python, numpy, scipy and
OpenBLAS versions, BLAS threads in effect, CPU count) as JSON.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time

# (module defining the function, its name, span name).  cho_factor and
# cho_solve are SciPy's; only fimsim's own bindings of them are wrapped.
TRACED = (
    ("fimsim.geometry", "steering_vector", "geometry.steering"),
    ("fimsim.geometry", "steering_derivative", "geometry.steering"),
    ("fimsim.geometry", "steering_matrix", "geometry.steering"),
    ("fimsim.channel", "path_time_matrix", "channel.time_factor"),
    ("fimsim.waveforms", "effective_channel", "waveforms.channel"),
    ("fimsim.optimizer", "optimize", "optimizer.optimize"),
    ("fimsim.optimizer", "penalized_objective", "optimizer.objective"),
    ("fimsim.optimizer", "achievable_rate", "optimizer.rate"),
    ("fimsim.optimizer", "cho_factor", "optimizer.factor"),
    ("fimsim.optimizer", "cho_solve", "optimizer.solve"),
    ("fimsim.music", "music_spectrum", "music.scan"),
    ("fimsim.music", "extract_peaks", "music.peaks"),
    ("fimsim.music", "grid_to_csv", "music.csv"),
    ("fimsim.harness", "emit_results", "harness.emit"),
)
EXPERIMENTS = ("run_rate_sweep", "run_music_experiment", "run_optimize_once")


class Recorder:
    """Spans and counters of one CLI run, kept in memory until it ends."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []
        self.counters = {}
        self.entered = None      # monotonic time the experiment started
        self.final_rates = []    # last rate_trace entry of each optimize

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name, on_result=None, on_enter=None):
        spans, stack = self.spans, self.stack
        trace = self.trace

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter()
            if not trace:
                result = fn(*args, **kwargs)
            else:
                index = len(spans)
                span = [name, time.monotonic(), 0.0, stack[-1] if stack else -1]
                spans.append(span)
                stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = time.monotonic()
                    stack.pop()
            if on_result is not None:
                on_result(result)
            return result
        return wrapper


def _rebind(original, wrapper) -> None:
    """Replace ``original`` by ``wrapper`` wherever a fimsim module binds it,
    including values of module-level dicts such as a dispatch table."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "fimsim" or mod_name.startswith("fimsim.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper


def _lookup(module_name, name):
    try:
        return getattr(importlib.import_module(module_name), name)
    except (ImportError, AttributeError):
        return None


def install(rec: Recorder) -> None:
    def entered():
        if rec.entered is None:
            rec.entered = time.monotonic()

    def optimized(result):
        rec.final_rates.append(float(result.rate_trace[-1]))
        rec.count("optimizer.iterations", int(result.iterations_run))

    for name in EXPERIMENTS:
        fn = _lookup("fimsim.harness", name)
        if fn is not None:
            _rebind(fn, rec.wrap(fn, "harness.run", on_enter=entered))

    extract = {
        "optimizer.optimize": optimized,
        "music.scan": lambda grid: rec.count("music.scan_points", int(grid.values.size)),
        "harness.emit": lambda paths: rec.count(
            "harness.emit_bytes", sum(os.path.getsize(p) for p in paths)),
    }
    for module_name, name, span in TRACED:
        if not rec.trace and span != "optimizer.optimize":
            continue
        fn = _lookup(module_name, name)
        if fn is not None:
            _rebind(fn, rec.wrap(fn, span, on_result=extract.get(span)))


def run_cli(record_path, trace, cli_args) -> int:
    rec = Recorder(trace)
    t0 = time.monotonic()
    import fimsim.cli
    t1 = time.monotonic()
    if trace:
        rec.spans.append(["cli.import", t0, t1, -1])
    install(rec)
    code = fimsim.cli.main(cli_args)
    record = {
        "exit_code": code,
        "started": t0,
        "entered": rec.entered,
        "returned": time.monotonic(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "final_rates": rec.final_rates,
        "counters": rec.counters,
        "spans": rec.spans,
    }
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


def _openblas_info() -> list:
    """Version and thread count of every OpenBLAS mapped into this process."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []
    found = []
    for path in libs:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in info:
                    threads.restype, threads.argtypes = ctypes.c_int, []
                    info["threads"] = threads()
                if config is not None and "config" not in info:
                    config.restype, config.argtypes = ctypes.c_char_p, []
                    info["config"] = config().decode()
        found.append(info)
    return found


def environment() -> dict:
    import platform
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (maps SciPy's own BLAS)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_info(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv) -> int:
    if argv == ["--env"]:
        print(json.dumps(environment()))
        return 0
    split = argv.index("--") if "--" in argv else -1
    opts, cli_args = argv[:split], argv[split + 1:]
    if split < 1 or opts[1:] not in ([], ["--trace"]):
        print(__doc__, file=sys.stderr)
        return 2
    return run_cli(opts[0], opts[1:] == ["--trace"], cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
