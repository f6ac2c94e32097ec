"""The measurements behind run.py: set-up, the closed loop, the peak pass,
the traced pass with its count pass, and the CLI pass.

The end-to-end times are given at a fixed reference speed of the machine.
On a host shared with other tenants the same pass can take 1.5 times as long
from one minute to the next, so that raw wall times of whole runs differ by
more than any change worth measuring. Before each pass (and each set-up
sample) the benchmark times `calibrate()`, a fixed load of its own that
calls no zetacalc code, and scales that pass's wall times by
CALIBRATION_REF_S / (that calibration time). A change to the program moves
the pass but not the calibration, so it shows in full; a slower host moves
both. The raw wall-clock figures are printed beside the scaled ones, and the
traced run reports raw times.
"""

from __future__ import annotations

import ctypes
import glob
import io
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import traceback
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from time import perf_counter

import numpy as np

from zetacalc import cli

import tracing
import workloads
from workloads import run_op

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 11
MB = 1e6
# What calibrate() takes on a quiet 2-vCPU x86-64 host with Python 3.11 and
# numpy 2.4; scaled times are wall times on a machine as fast as that.
CALIBRATION_REF_S = 0.12
# Two 32 MB arrays for the memory-bound part of the calibration.
_COPY_FROM = np.ones(1 << 21, dtype=complex)
_COPY_TO = np.empty_like(_COPY_FROM)

# Set-up is timed in fresh interpreters, so that each sample pays for a cold
# import of zetacalc and numpy, as a user's first command does.
_SETUP_PROBE = """\
import sys, time
t = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import workloads
workloads.build({name!r}, {seed})
print(time.perf_counter() - t)
"""


def calibrate() -> float:
    """Seconds a fixed load takes now: an integer loop, small numpy calls and
    copies of arrays larger than the CPU caches, the three kinds of work an
    op does. It calls no zetacalc code."""
    t0 = perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    eye = np.eye(2)
    for _ in range(2_500):
        np.kron(eye, eye)
    for _ in range(8):
        np.copyto(_COPY_TO, _COPY_FROM)
    return perf_counter() - t0


def speed_factor() -> float:
    """What to multiply a wall time measured now by, to give it at the
    reference speed."""
    return CALIBRATION_REF_S / calibrate()


def setup_seconds(name: str, seed: int):
    """Median set-up time over SETUP_REPEATS fresh interpreters: scaled to
    the reference speed, and raw."""
    code = _SETUP_PROBE.format(src=SRC, here=HERE, name=name, seed=seed)
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        factor = speed_factor()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=60)
        raw.append(float(done.stdout.split()[-1]))
        scaled.append(raw[-1] * factor)
    return statistics.median(scaled), statistics.median(raw)


def _blas_threads():
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    return None


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": _blas_threads()}


def checked(stages, item) -> bool:
    """One op; an exception is a failed op, reported with its traceback."""
    try:
        return run_op(stages, item)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False


def closed_loop(runs, seconds: float):
    """Whole passes until `seconds` have gone; `runs` holds (run, ops) pairs
    and each round is one pass of each pair's run over its ops, in turn, so
    that all pairs see the same machine. Returns, per pair, its passes (each
    a list of op latencies, in op order), the speed factor measured before
    each round, and the number of ops that failed."""
    results = [[] for _ in runs]
    factors = []
    failed = 0
    calibrate()  # warm-up: numpy's first calls pay for lazy set-up
    start = perf_counter()
    while perf_counter() - start < seconds:
        factors.append(speed_factor())
        for (run, ops), passes in zip(runs, results):
            latencies = []
            for item in ops:
                t0 = perf_counter()
                ok = run(item)
                latencies.append(perf_counter() - t0)
                failed += not ok
            passes.append(latencies)
    return results, factors, failed


def peak_pass(items):
    """Largest tracemalloc peak of any single op, each distinct input once."""
    stages = workloads.stages()
    peak, failed = 0, 0
    tracemalloc.start()
    try:
        for item in items:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            failed += not checked(stages, item)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return peak, failed


def cli_pass(workload):
    """Each distinct input once through `zeta` in-process, output captured.
    Budget refusals are exit codes to count, not failures."""
    os.makedirs(OUT, exist_ok=True)
    codes, seconds, failed = Counter(), 0.0, 0
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        calls = []
        if workload.name == "rules":
            calls.append(["rules", "--json"])
        for i, item in enumerate(workload.distinct):
            if not item.source:
                continue
            path = os.path.join(tmp, f"{i}.zeta")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(item.source)
            calls.append(["eval", "--as-map", path] if item.as_map else ["eval", path])
        for argv in calls:
            t0 = perf_counter()
            try:
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    codes[cli.main(argv)] += 1
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed += 1
            seconds += perf_counter() - t0
    return seconds / len(calls), codes, failed


def end_to_end(workload, seed, seconds):
    stages = workloads.stages()
    peak, failed = peak_pass(workload.distinct)
    [raw], factors, loop_failed = closed_loop(
        [(partial(checked, stages), workload.ops)], seconds)
    attempted = len(workload.distinct) + sum(map(len, raw))
    failed += loop_failed
    setup_s, raw_setup_s = setup_seconds(workload.name, seed)

    def timings(passes):
        latencies = sum(passes, [])
        return (statistics.median(latencies), statistics.quantiles(latencies, n=10)[-1],
                len(latencies) / sum(latencies))

    p50, p90, ops_per_s = timings([[t * f for t in p] for p, f in zip(raw, factors)])
    raw_p50, raw_p90, raw_ops_per_s = timings(raw)
    print(f"samples: {sum(map(len, raw))} timed ops in {len(raw)} passes; "
          f"median speed factor {statistics.median(factors):.4g}")
    print(f"raw wall clock: op_s.p50 = {raw_p50:.6g} s, op_s.p90 = {raw_p90:.6g} s, "
          f"ops_per_s = {raw_ops_per_s:.6g} 1/s, setup_s = {raw_setup_s:.6g} s")
    metrics = {
        "op_s.p50": (p50, "s"),
        "op_s.p90": (p90, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "peak_alloc_mb": (peak / MB, "MB"),
        "ok_rate": (1 - failed / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, attempted, failed


def per_layer(workload, seconds, spans_path, env):
    probe = tracing.Probe()
    failed = 0
    stages, items = tracing.instrument(probe.wrap, workload.distinct)
    tracemalloc.start()
    try:
        with tracing.theory_calls(stages):
            for item in items:
                failed += not checked(stages, item)
    finally:
        tracemalloc.stop()
    n = len(workload.distinct)

    plain = workloads.stages()
    tracer = tracing.Tracer()
    stages, ops = tracing.instrument(tracer.wrap, workload.ops)
    op_ids = itertools.count()

    def traced_op(item):
        with tracing.theory_calls(stages):
            return tracer.run_op(next(op_ids), checked, stages, item)

    [untraced, traced], factors, loop_failed = closed_loop(
        [(partial(checked, plain), workload.ops), (traced_op, ops)], seconds)
    untraced, traced = sum(untraced, []), sum(traced, [])
    failed += loop_failed
    os.makedirs(OUT, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "fields": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.spans}, fh)

    cli_s, codes, cli_failed = cli_pass(workload)
    failed += cli_failed

    own = tracer.self_times()
    c = probe.counts
    metrics = {f"{layer}_s": (own[layer] / len(traced), "s") for layer in tracing.LAYERS}
    metrics.update({
        "bench.overhead_s": (own[tracing.OP] / len(traced), "s"),
        "bench.speed_factor": (statistics.median(factors), "ratio"),
        "syntax.term_nodes": (c["term_nodes"] / n, "count"),
        "types.derivation_nodes": (c["derivation_nodes"] / n, "count"),
        "types.c_nodes": (c["c_nodes"] / n, "count"),
        "diagram.nodes": (c["diagram_nodes"] / n, "count"),
        "diagram.spiders": (c["spiders"] / n, "count"),
        "diagram.max_width": (probe.max_width, "wires"),
        "evaluator.peak_alloc_mb": (probe.denote_peak / MB, "MB"),
        "evaluator.result_to_peak": (c["result_bytes"] / max(c["peak_bytes"], 1), "ratio"),
    })
    for status in ("sound", "side-condition-unmet", "unsound", "type-error"):
        metrics[f"theory.{status}"] = (c["status." + status], "count")
    metrics["cli.main_s"] = (cli_s, "s")
    for code in range(4):
        metrics[f"cli.exit.{code}"] = (codes[code], "count")
    traced_p50, untraced_p50 = statistics.median(traced), statistics.median(untraced)
    metrics.update({
        "trace.op_s.mean": (statistics.fmean(tracer.op_durations()), "s"),
        "trace.op_s.p50": (traced_p50, "s"),
        "trace.untraced_op_s.p50": (untraced_p50, "s"),
        "trace.overhead_s": (traced_p50 - untraced_p50, "s"),
    })
    layers_s = sum(metrics[f"{layer}_s"][0] for layer in tracing.LAYERS)
    print(f"accounting: layer self time {layers_s:.6f} s + bench overhead "
          f"{metrics['bench.overhead_s'][0]:.6f} s = traced op mean "
          f"{metrics['trace.op_s.mean'][0]:.6f} s")
    attempted = n + len(untraced) + len(traced) + sum(codes.values()) + cli_failed
    return metrics, attempted, failed
