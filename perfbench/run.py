"""Benchmark of lrcompress's ACA, BACA and H-BACA entry points.

Run from the root of an lrcompress checkout (the library is imported from
``src/`` there, never from an installed copy):

    python3 perfbench/run.py --workload aca-prodrand --seed 0 --seconds 30 --trace 0

One warm call, then timed calls (a closed loop, one caller) for
``--seconds``. Every call, the warm one included, passes the correctness
gate in workloads.py outside the timed region or counts as failed. With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` half the time runs untraced and half traced, and it carries
the per-layer split. The line before it is a report with the environment,
sample counts, raw call seconds and failures. The library's BLAS threading
is left as numpy loads it.

The machine is a few cores of a shared host whose speed drifts by tens of
percent over minutes, and call seconds drift with it. So the gated call
time, ``compress_rel``, is each call's wall time divided by the time of a
fixed numpy workload (reference.py) run in a helper process right before
and after it; the raw seconds are in the report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

SETUP_REPEATS = 21
TAIL_BEYOND = 10
OUT_DIR = ".perfbench_out"

END_TO_END_UNITS = {
    "compress_rel": "ratio",
    "setup_s": "s",
    "rel_error_digits": "digits",
    "rank": "count",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
}

PER_LAYER_UNITS = {
    "kernels.block_s": "s",
    "kernels.block_calls": "count",
    "kernels.entries": "count",
    "kernels.entries_frac": "ratio",
    "bessel.eval_s": "s",
    "linalg.qrcp_s": "s",
    "linalg.qrcp_calls": "count",
    "linalg.svd_s": "s",
    "linalg.svd_calls": "count",
    "linalg.recompress_s": "s",
    "aca.iterations": "count",
    "aca.norm_s": "s",
    "aca.self_s": "s",
    "baca.select_s": "s",
    "baca.lrid_s": "s",
    "baca.self_s": "s",
    "baca.iterations": "count",
    "baca.rank_accumulated": "count",
    "baca.overshoot": "ratio",
    "hmerge.leaf_s": "s",
    "hmerge.merge_s": "s",
    "hmerge.merge_calls": "count",
    "hmerge.leaf_rank_max": "count",
    "hmerge.degenerate_leaves": "count",
    "hmerge.pool_s": "s",
    "trace.overhead_s": "s",
}

# Only workloads with more than one worker have a speed-up to report.
POOL_UNITS = {"hmerge.leaf_speedup": "ratio", "hmerge.merge_speedup": "ratio"}

# Fresh interpreter per set-up sample: import time is only paid once per
# process. argv: src directory, JobConfig fields as JSON.
SETUP_CODE = """
import time
t0 = time.perf_counter()
import json, sys
sys.path.insert(0, sys.argv[1])
from lrcompress.cli import JobConfig, build_oracle
build_oracle(JobConfig(**json.loads(sys.argv[2])))
print(time.perf_counter() - t0)
"""


def library_src(root):
    """The checkout's ``src`` directory; exits when lrcompress is not there."""
    src = (root / "src").resolve()
    if not (src / "lrcompress" / "__init__.py").is_file():
        raise SystemExit(f"error: no lrcompress sources under {src}; "
                         "run from the root of an lrcompress checkout")
    return src


def import_library(root):
    """Put ``root/src`` first on sys.path and import lrcompress from it."""
    src = library_src(root)
    sys.path.insert(0, str(src))
    import lrcompress

    if not Path(lrcompress.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: lrcompress imported from {lrcompress.__file__}")
    return src


def blas_details():
    """BLAS name and version from numpy's build config; thread count and
    configuration string read from the bundled OpenBLAS through ctypes."""
    import ctypes
    import glob

    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    out = {"blas": blas.get("name"), "blas_version": blas.get("version"),
           "blas_threads": None, "blas_config": None}
    libs_dir = Path(np.__file__).parent.parent / "numpy.libs"
    libs = sorted(glob.glob(str(libs_dir / "libscipy_openblas64_*.so*")))
    if not libs:
        return out
    lib = ctypes.CDLL(libs[0])
    try:
        get_threads = lib.scipy_openblas_get_num_threads64_
        get_config = lib.scipy_openblas_get_config64_
    except AttributeError:  # another OpenBLAS build: leave the fields empty
        return out
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    get_config.argtypes = []
    get_config.restype = ctypes.c_char_p  # the default int return segfaults
    out["blas_threads"] = get_threads()
    out["blas_config"] = get_config().decode()
    return out


def environment():
    import importlib.util
    import multiprocessing
    import platform

    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "start_method": multiprocessing.get_start_method(),
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
        **blas_details(),
    }


class Reference:
    """The helper process running reference.py, as a context manager.

    Start it before lrcompress is imported: it then inherits the
    environment the benchmark was given, not one the library changed.
    """

    def __init__(self):
        self.proc = None

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("reference.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except Exception:
            self.proc.kill()
            self.proc.wait()

    def seconds(self):
        """Run the reference workload once; its wall seconds."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("reference helper ended early")
        return float(line)


class Calls:
    """Attempted and failed calls of one run, with the failure reasons."""

    def __init__(self, gate):
        self.gate = gate
        self.attempted = 0
        self.failures = []

    def run(self, fn):
        """Time ``fn()`` and gate its result outside the timing.

        Returns (seconds, rank, info, rel_error), or None when the call
        raised. The factors are not kept, so memory does not grow with the
        number of calls.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result, info = fn()
        except Exception as exc:  # a failed call is counted, never fatal
            self.failures.append(f"call raised {type(exc).__name__}: {exc}")
            return None
        seconds = time.perf_counter() - t0
        try:
            rel_error, problems = self.gate.check(result, info)
        except Exception as exc:
            rel_error, problems = None, [f"gate raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append("; ".join(problems))
        return seconds, result.rank, info, rel_error


def timed_loop(step, seconds):
    """Call ``step`` once, then again until ``seconds`` have elapsed; keeps
    the results of the calls that ran."""
    samples = []
    start = time.perf_counter()
    while True:
        sample = step()
        if sample is not None:
            samples.append(sample)
        if time.perf_counter() - start >= seconds:
            return samples


def tail(times):
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Below 2 * TAIL_BEYOND + 1 samples that percentile is not above the
    median, so the maximum is reported instead. Returns (value, percentile).
    """
    ordered = sorted(times)
    k = len(ordered) - 1 - TAIL_BEYOND
    if k < len(ordered) // 2:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def setup_seconds(workload, seed, src, root):
    job = json.dumps({**workload.job, "seed": seed})
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(src), job],
                              cwd=root, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux; the children term is the largest
    # waited-for child, i.e. a pool worker when read before any set-up run.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(workload, seed, seconds, src, root, reference):
    from workloads import Gate

    oracle = workload.build_oracle(seed)
    calls = Calls(Gate(workload, oracle, seed))
    fn = lambda: workload.compress(oracle, seed)  # noqa: E731
    calls.run(fn)  # warm call: gated, not timed
    ref_times = [reference.seconds()]

    def step():
        sample = calls.run(fn)
        ref_times.append(reference.seconds())
        if sample is None:
            return None
        # the reference runs on either side of the call, so the mean of the
        # two is the machine's speed while the call ran
        return (*sample, sample[0] / statistics.fmean(ref_times[-2:]))

    samples = timed_loop(step, seconds)
    rss = peak_rss_mb()
    setup, setup_samples = setup_seconds(workload, seed, src, root)

    times = [s[0] for s in samples]
    tail_value, tail_pct = tail(times) if times else (None, None)
    errors = [s[3] for s in samples if s[3] is not None]
    rel_error = statistics.median(errors) if errors else None
    failed = len(calls.failures)
    values = {
        "compress_rel": statistics.median(s[4] for s in samples) if samples else None,
        "setup_s": setup,
        # digits, not the raw ratio: round-off-level errors of the exact-rank
        # workloads vary several-fold from seed to seed
        "rel_error_digits": -math.log10(rel_error) if rel_error else None,
        "rank": statistics.median(s[1] for s in samples) if samples else None,
        "peak_rss_mb": rss,
        "pass_rate": (calls.attempted - failed) / calls.attempted,
    }
    # Raw seconds and the tail are reported, not gated: they follow the
    # host's drift, and at a few seconds per call no percentile has ten
    # samples beyond it, so the tail is the maximum.
    report = {
        "compress_s": {"value": statistics.median(times) if times else None,
                       "unit": "s"},
        "reference_s": {"value": statistics.median(ref_times), "unit": "s"},
        "compress_s_tail": {"value": tail_value, "unit": "s",
                            "percentile": tail_pct, "samples": len(times)},
        "rel_error": {"value": rel_error, "unit": "ratio"},
        "fail_rate": {"value": failed / calls.attempted, "unit": "ratio"},
        "setup_samples_s": setup_samples,
        "times_s": times,
        "reference_times_s": ref_times,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return calls, metrics, report


def layer_values(workload, oracle, tracer, rank, info):
    """Per-layer metrics of one traced call, and its span summary.

    A function's ``*_s`` is inclusive of the spans it contains (bessel inside
    kernels.block, truncated_svd inside lr_recompress); ``*.self_s`` excludes
    them. Layers the workload never enters read 0.
    """
    from spans import summarize

    inclusive, own, count = summarize(tracer.spans)
    if workload.algorithm == "baca":
        leaves = [(rank, info)]
    else:
        leaves = [(svd.rank, h) for svd, h in tracer.results["baca.baca_compress"]]
    accumulated = sum(h.records[-1].rank if h.records else 0 for _, h in leaves)
    final = sum(r for r, _ in leaves)
    hier = workload.algorithm == "hbaca"
    return {
        "kernels.block_s": inclusive["kernels.block"],
        "kernels.block_calls": count["kernels.block"],
        "kernels.entries": oracle.entries,
        "kernels.entries_frac": oracle.entries / (oracle.rows * oracle.cols),
        "bessel.eval_s": inclusive["bessel.bessel_j0"] + inclusive["bessel.bessel_y0"],
        "linalg.qrcp_s": inclusive["linalg.qrcp"],
        "linalg.qrcp_calls": count["linalg.qrcp"],
        "linalg.svd_s": inclusive["linalg.truncated_svd"],
        "linalg.svd_calls": count["linalg.truncated_svd"],
        "linalg.recompress_s": inclusive["linalg.lr_recompress"],
        "aca.iterations": info.iterations if workload.algorithm == "aca" else 0,
        "aca.norm_s": inclusive["aca.lr_norm_update"],
        "aca.self_s": own["aca.aca_compress"],
        "baca.select_s": inclusive["baca.select_pivot_blocks"],
        "baca.lrid_s": inclusive["baca.lrid"],
        "baca.self_s": own["baca.baca_compress"],
        "baca.iterations": sum(h.iterations for _, h in leaves),
        "baca.rank_accumulated": accumulated,
        "baca.overshoot": accumulated / final if final else 0.0,
        "hmerge.leaf_s": info.leaf_seconds if hier else 0.0,
        "hmerge.merge_s": info.merge_seconds if hier else 0.0,
        "hmerge.merge_calls": (count["hmerge.merge_pair_horizontal"]
                               + count["hmerge.merge_pair_vertical"]),
        "hmerge.leaf_rank_max": info.level_max_rank[0] if hier else 0,
        "hmerge.degenerate_leaves": len(info.degenerate_blocks) if hier else 0,
    }, {
        "root_s": sum(e - s for _, s, e, p in tracer.spans if p < 0),
        "self_sum_s": sum(own.values()),
        "self_s": dict(own),
        "inclusive_s": dict(inclusive),
        "calls": dict(count),
    }


def traced_call(workload, oracle, seed, calls, spans_out):
    """One gated call with every wrapper installed; returns its per-layer
    values and span summary, or None when the call failed to run."""
    from spans import CountingOracle, Tracer, installed

    tracer = Tracer()
    proxy = CountingOracle(oracle, tracer)

    def fn():
        with installed(tracer), tracer.span(workload.root_span):
            return workload.compress(proxy, seed)

    sample = calls.run(fn)
    if sample is None:
        return None
    seconds, rank, info, _ = sample
    spans_out.append({"workload": workload.name, "seconds": seconds,
                      "spans": tracer.spans})
    values, summary = layer_values(workload, proxy, tracer, rank, info)
    return seconds, info, values, summary


def per_layer(workload, seed, seconds, root):
    from workloads import Gate

    oracle = workload.build_oracle(seed)
    calls = Calls(Gate(workload, oracle, seed))
    fn = lambda: workload.compress(oracle, seed)  # noqa: E731
    calls.run(fn)
    plain = timed_loop(lambda: calls.run(fn), seconds / 2.0)
    spans_out = []
    traced = timed_loop(
        lambda: traced_call(workload, oracle, seed, calls, spans_out), seconds / 2.0)

    values = {}
    if plain and traced:
        for name in traced[0][2]:
            values[name] = statistics.median(t[2][name] for t in traced)
        hier = workload.algorithm == "hbaca"
        values["hmerge.pool_s"] = statistics.median(
            s - i.leaf_seconds - i.merge_seconds if hier else 0.0
            for s, _, i, _ in plain)
        values["trace.overhead_s"] = (statistics.median(t[0] for t in traced)
                                      - statistics.median(s[0] for s in plain))
    units = dict(PER_LAYER_UNITS)
    if values and workload.workers > 1:
        # Spans inside pool workers are lost: the same job rerun traced on one
        # worker gives the single-worker phase times for the speed-ups.
        single = traced_call(replace(workload, workers=1), oracle, seed, calls, spans_out)
        if single is not None:
            w2 = [t[1] for t in traced]
            values["hmerge.leaf_speedup"] = single[1].leaf_seconds / statistics.median(
                i.leaf_seconds for i in w2)
            values["hmerge.merge_speedup"] = single[1].merge_seconds / statistics.median(
                i.merge_seconds for i in w2)
            units.update(POOL_UNITS)

    summaries = [t[3] for t in traced]
    self_sum_ok = all(abs(s["root_s"] - s["self_sum_s"]) <= 1e-6 * max(1.0, s["root_s"])
                      for s in summaries)
    if not self_sum_ok:
        calls.failures.append("trace self times do not sum to the root span")
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.json"
    spans_path.write_text(json.dumps(spans_out))
    metrics = {k: {"value": values.get(k), "unit": u} for k, u in units.items()}
    report = {
        "untraced_calls": len(plain),
        "traced_calls": len(traced),
        "self_times_sum_to_root": self_sum_ok,
        "last_traced_call": summaries[-1] if summaries else None,
        "spans_file": str(spans_path.relative_to(root)),
        "fail_rate": {"value": len(calls.failures) / calls.attempted, "unit": "ratio"},
    }
    return calls, metrics, report


def measure(workload, seed, seconds, trace, root, reference=None):
    """Run one workload; returns (report, result line) as dicts.

    The end-to-end run (``trace`` false) needs a started Reference.
    """
    src = (root / "src").resolve()
    if trace:
        calls, metrics, report = per_layer(workload, seed, seconds, root)
    else:
        calls, metrics, report = end_to_end(workload, seed, seconds, src, root,
                                            reference)
    failed = len(calls.failures)
    result = {
        "correct": failed == 0 and all(m["value"] is not None for m in metrics.values()),
        "attempted": calls.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment(), **report,
              "failures": calls.failures[:20]}
    return report, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    library_src(root)
    # only the end-to-end run divides call times by the reference
    with nullcontext() if args.trace else Reference() as reference:
        import_library(root)
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"one of {', '.join(WORKLOADS)}")
        report, result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                                 bool(args.trace), root, reference)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
