"""Smoke test of the benchmark itself, on tiny sizes (a few seconds).

    python3 bench/smoke.py

Checks that every workload passes its gate and prints every metric named in
BENCHMARK.json with its unit, untraced and traced; that call counts repeat
across two traced runs with one seed; that the gate trips on a planted wrong
answer, an exception and a timeout; that a renamed boundary shows up as
absent; that a thread count set in the environment is dropped; and that the
benchmark exits non-zero, printing no result, when the package is not there.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import run
import tracing
import workloads

def _main_result(argv, sizes):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(argv, sizes)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def check_metrics_printed() -> None:
    with open(run.SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    os.environ["POSETSAT_THREADS"] = "2"  # the run must take the single-thread path anyway
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = ["--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
            code, result = _main_result(argv, workloads.TINY)
            assert code == 0 and result["correct"], (name, trace, result)
            assert result["attempted"] >= 1 and result["failed"] == 0
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == expected[trace], (name, trace, set(printed) ^ set(expected[trace]))
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert "POSETSAT_THREADS" not in os.environ


def check_counts_repeat() -> None:
    for name in workloads.WORKLOADS:
        counts = []
        for _ in range(2):
            _, result = run.run(name, 5, 0.0, True, workloads.TINY)
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if k.endswith(".calls")})
        assert counts[0] == counts[1], name


def check_gate_trips() -> None:
    api = run.load_package()
    workdir = os.path.join(run.OUT_DIR, "smoke-gate")
    os.makedirs(workdir, exist_ok=True)
    try:
        cases = workloads.setup_scan_wide(api, 1, workdir, workloads.TINY["scan-wide"])
        negative = next(c for c in cases if not c["saturated"])
        negative["saturated"] = True  # planted wrong answer
        negative["size"] = negative["expected_size"] = 0
        runner = run.Runner(time.perf_counter() + 60)
        workloads.run_scan_wide(api, cases, runner.task)
        assert len(runner.failures) == 1 and negative["label"] in runner.failures[0], runner.failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    signal.signal(signal.SIGALRM, run._on_alarm)
    runner = run.Runner(time.perf_counter() + 0.2)
    runner.task("crash", lambda: 1 // 0)
    runner.task("stall", lambda: time.sleep(5))
    assert runner.attempted == 2 and len(runner.failures) == 2, runner.failures
    assert "ZeroDivisionError" in runner.failures[0] and "timed out" in runner.failures[1]


def check_absent_boundary() -> None:
    run.load_package()
    saved = tracing.BOUNDARIES
    tracing.BOUNDARIES = saved + (("gone.fn", "posetsat.saturation", "renamed_away", True),)
    try:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.uninstall()
    finally:
        tracing.BOUNDARIES = saved
    assert tracer.absent == ["gone.fn"], tracer.absent


def check_bare_directory() -> None:
    bare = os.path.join(run.OUT_DIR, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(run.SPEC_PATH, bare)
        shutil.copytree(run.BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "scan-closure", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, (proc.returncode, proc.stdout)


def main() -> int:
    for check in (check_metrics_printed, check_counts_repeat, check_gate_trips,
                  check_absent_boundary, check_bare_directory):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
