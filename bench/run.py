"""Benchmark for posetsat: one workload per invocation, gated on known answers.

Usage, from the root of the repository:

    python3 bench/run.py --workload scan-closure --seed 1 --seconds 50 --trace 0

The package is imported from ``src/`` next to this directory; no install is
needed. ``POSETSAT_THREADS`` is removed from the environment first, so the
package always takes its single-thread path. The run sets up ``SETUP_REPS``
times (fresh import of the package, seeded input generation, family files),
then runs whole passes of the workload until ``--seconds`` have passed. It
does not start a pass that the median pass so far predicts to end after
``OVERSHOOT`` times ``--seconds``, or after ``HARD_LIMIT_S`` from start, so
one run stays within a known time. Every task runs under a time limit; a
wrong answer, an exception or a timeout is a failed task. A pass's time is
the sum of its tasks' times.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

- ``wall_s``: median seconds per pass;
- ``setup_s``: median set-up time. Besides the first set-ups, one more
  set-up, whose result is thrown away, runs between tasks whenever
  ``SETUP_GAP_S`` have passed since the last, so the samples spread over
  the whole run; their time is not part of any pass;
- ``peak_rss_mb``: peak resident memory of this process.

The error rate is ``failed / attempted`` of that line. A summary line before
it gives the pass quartiles and count, the set-up sample count, the error
rate and, on solve-verify, ``verdict_ms`` with its p50, p90 and sample
count: the time of each verdict of the verifier pool, one family through its
verifiers. These two are not end-to-end metrics of BENCHMARK.json: the error
rate is 0 when the program is right, and every end-to-end metric must be
reported on every workload, while only solve-verify has over a hundred
verdicts per pass.

With ``--trace 1`` every task runs twice in a row, untraced and traced (see
``tracing.py``), the order alternating from task to task, so the two pass
times are taken side by side and the machine's slow stretches fall on both.
The last line carries the per-layer metrics, including ``trace.wall_s``, the
median traced pass, and ``trace.overhead_s``, the median over passes of the
traced minus the untraced pass time. Spans go to
``.bench_out/spans-<workload>-seed<seed>.jsonl``.

Every metric's unit is read from BENCHMARK.json. The exit code is 0 when
every task passed its gate, 1 when one failed, and 2 when the package cannot
be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from types import SimpleNamespace

import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

SETUP_REPS = 10
SETUP_GAP_S = 1.0
OVERSHOOT = 1.2
TASK_LIMIT_S = 120.0
HARD_LIMIT_S = 160.0


class TaskTimeout(BaseException):
    """Raised by the alarm inside a task that ran past its limit; derived
    from BaseException so no ``except Exception`` in the package swallows it."""


def _on_alarm(signum, frame):
    raise TaskTimeout()


class PackageMissing(Exception):
    pass


def load_package():
    """Import posetsat afresh from ``src/``: drop any loaded copy first, so
    each call pays the whole import."""
    for name in [m for m in sys.modules if m == "posetsat" or m.startswith("posetsat.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        pkg = importlib.import_module("posetsat")
        cli = importlib.import_module("posetsat.cli")
    except ImportError as exc:
        raise PackageMissing(f"cannot import posetsat from {SRC}: {exc}") from None
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise PackageMissing(f"posetsat was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(pkg=pkg, cli=cli)


class Runner:
    """Runs tasks under a time limit and keeps the tally, the time spent in
    tasks and the verdict times. With a tracer, every task runs twice,
    untraced and traced, in an order that alternates from task to task.
    ``between``, if given, is called after each task of an untraced run; its
    time is not a task's."""

    def __init__(self, deadline: float, tracer: tracing.Tracer | None = None, between=None):
        self.deadline = deadline
        self.tracer = tracer
        self.between = between
        self.attempted = 0
        self.failures: list[str] = []
        self.verdict_s: list[float] = []
        self.task_s = {False: 0.0, True: 0.0}  # by traced, since the last pass began
        self._pairs = 0

    def task(self, label: str, fn, verdict: bool = False):
        if self.tracer is None:
            value = self._attempt(label, fn, False, verdict)
            if self.between is not None:
                self.between()
            return value
        order = (False, True) if self._pairs % 2 == 0 else (True, False)
        self._pairs += 1
        values = {traced: self._attempt(label, fn, traced, False) for traced in order}
        return values[True]

    def _attempt(self, label: str, fn, traced: bool, verdict: bool):
        self.attempted += 1
        limit = min(TASK_LIMIT_S, self.deadline - time.perf_counter())
        if limit <= 0:
            self.failures.append(f"{label}: no time left")
            return None
        call = fn
        if traced:
            self.tracer.install()
            call = lambda: self.tracer.task(label, fn)  # noqa: E731
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                value = call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except TaskTimeout:
            self.failures.append(f"{label}: timed out after {limit:.1f} s")
            return None
        except workloads.GateFailure as exc:
            self.failures.append(f"{label}: {exc}")
            return None
        except Exception as exc:  # any crash of the package is a failed task
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        finally:
            dt = time.perf_counter() - t0
            self.task_s[traced] += dt
            if traced:
                self.tracer.uninstall()
        if verdict:
            self.verdict_s.append(dt)
        return value


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def load_units() -> dict[str, str]:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> tuple[dict, dict]:
    """One benchmark run; returns (summary, result line)."""
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    sizes = workloads.FULL if sizes is None else sizes
    units = load_units()
    # `posetsat check` takes its default thread count from here; the
    # benchmark measures the single-thread path
    os.environ.pop("POSETSAT_THREADS", None)
    load_package()  # writes bytecode caches once, before timing
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    spare_dir = os.path.join(workdir, "spare")
    os.makedirs(spare_dir, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = tracing.Tracer() if trace else None
    setup_s: list[float] = []

    def set_up(into: str):
        gc.collect()
        t0 = time.perf_counter()
        api = load_package()
        inputs = workloads.setup(workload, api, seed, into, sizes)
        setup_s.append(time.perf_counter() - t0)
        return api, inputs

    last_setup = [time.perf_counter()]

    def sample_setup():
        if time.perf_counter() - last_setup[0] >= SETUP_GAP_S:
            set_up(spare_dir)
            last_setup[0] = time.perf_counter()

    try:
        for _ in range(SETUP_REPS):
            api, inputs = set_up(workdir)
        runner = Runner(deadline, tracer, None if trace else sample_setup)
        walls: list[float] = []
        traced_walls: list[float] = []
        pass_s: list[float] = []
        layers: list[dict] = []
        t_measure = time.perf_counter()
        while True:
            if trace:
                tracer.reset()
            runner.task_s = {False: 0.0, True: 0.0}
            gc.collect()
            t0 = time.perf_counter()
            workloads.run_pass(workload, api, inputs, runner.task)
            pass_s.append(time.perf_counter() - t0)
            walls.append(runner.task_s[False])
            if trace:
                traced_walls.append(runner.task_s[True])
                layers.append(tracer.pass_metrics())
            now = time.perf_counter()
            elapsed = now - t_measure
            if (now + pass_s[-1] > deadline or elapsed >= seconds
                    or elapsed + statistics.median(pass_s) > OVERSHOOT * seconds):
                break
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    attempted = runner.attempted
    summary = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "error_rate": failed / attempted if attempted else 1.0,
        "failures": runner.failures[:10],
    }
    if trace:
        tracer.check_restored()
        values = tracing.combine_passes(layers)
        values["trace.wall_s"] = statistics.median(traced_walls)
        values["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(traced_walls, walls)
        )
        values["trace.boundaries_absent"] = len(tracer.absent)
        summary.update({
            "untraced_pass_s": walls,
            "traced_pass_s": traced_walls,
            "bindings_patched": tracer.bindings,
            "absent_boundaries": tracer.absent,
        })
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl"))
    else:
        q1, q3 = _quartiles(walls)
        summary.update({
            "wall_s": {"median": statistics.median(walls), "q1": q1, "q3": q3, "passes": len(walls)},
            "setup_s": {"median": statistics.median(setup_s), "samples": len(setup_s)},
        })
        verdicts = runner.verdict_s
        if verdicts:
            summary["verdict_ms"] = {
                "p50": statistics.median(verdicts) * 1000.0,
                "p90": _p90(verdicts) * 1000.0,
                "count": len(verdicts),
            }
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return summary, result


def main(argv=None, sizes=None) -> int:
    """Command-line entry; ``sizes`` replaces the full sizes of the parts
    (the smoke test runs tiny ones)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary, result = run(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
