"""Reduced-size self-test of the benchmark.

Run from the root of an lrcompress checkout:

    python3 perfbench/selftest.py

On small versions of every workload it checks that each metric named in
BENCHMARK.json is emitted with its unit in the matching mode and that
correct results pass the gate. It checks that a deliberately corrupted
factorization is counted as failed rather than passed, and that the
benchmark refuses to run without the library sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import run

SECONDS = 0.2
SMALL = {
    "aca-prodrand": {"job": {"kernel": "prodrand", "n": 384, "inner_rank": 24}},
    "baca-hankel": {"job": {"kernel": "hankel2d", "wavenumber": 200.0, "ppw": 15.0}},
    "hbaca-prodrand": {"job": {"kernel": "prodrand", "n": 384, "inner_rank": 12},
                       "n_blocks": 16},
    "hbaca-pool": {"job": {"kernel": "prodrand", "n": 256, "inner_rank": 12}},
}

problems = []


def expect(condition, message):
    if not condition:
        problems.append(message)


def check_metrics(result, declared, where):
    metrics = result["metrics"]
    for spec in declared:
        got = metrics.get(spec["name"])
        expect(got is not None, f"{where}: {spec['name']} missing")
        if got is not None:
            expect(got["unit"] == spec["unit"],
                   f"{where}: {spec['name']} unit {got['unit']!r} != {spec['unit']!r}")
            expect(isinstance(got["value"], (int, float)),
                   f"{where}: {spec['name']} value {got['value']!r}")


def corrupted(workload):
    from workloads import Workload

    @dataclass(frozen=True)
    class Corrupted(Workload):
        def compress(self, oracle, seed):
            result, info = super().compress(oracle, seed)
            return replace(result, u=result.u * 1.01), info

    return Corrupted(**{f.name: getattr(workload, f.name) for f in fields(workload)})


def bare_directory_refused(root):
    """The benchmark alone, without src/, must exit nonzero and print no
    result line."""
    bare = root / run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(root / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "aca-prodrand",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0, "bare directory: exit code 0")
    expect('"metrics"' not in done.stdout, "bare directory: printed a result")


def check_workloads(root, reference):
    from workloads import WORKLOADS

    spec = json.loads((root / "BENCHMARK.json").read_text())
    for name, small in SMALL.items():
        workload = replace(WORKLOADS[name], **small)
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            where = f"{name} trace={int(trace)}"
            report, result = run.measure(workload, 1, SECONDS, trace, root, reference)
            check_metrics(result, declared, where)
            expect(result["correct"] and result["failed"] == 0,
                   f"{where}: failures {report['failures']}")
            if trace:
                expect(report["self_times_sum_to_root"], f"{where}: self times")
        report, result = run.measure(corrupted(workload), 1, SECONDS, False, root,
                                     reference)
        expect(not result["correct"], f"{name} corrupted: reported correct")
        expect(result["failed"] == result["attempted"] > 0,
               f"{name} corrupted: {result['failed']} of {result['attempted']} failed")
        expect(result["metrics"]["pass_rate"]["value"] == 0.0,
               f"{name} corrupted: pass_rate {result['metrics']['pass_rate']['value']}")
        expect(report["fail_rate"]["value"] == 1.0, f"{name} corrupted: fail_rate")


def main():
    root = Path.cwd()
    run.library_src(root)
    with run.Reference() as reference:
        run.import_library(root)
        check_workloads(root, reference)
    bare_directory_refused(root)

    for message in problems:
        print(f"FAIL {message}")
    print("selftest:", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
