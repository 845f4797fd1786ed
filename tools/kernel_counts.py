"""Count the loop iterations of the generated kernels in one pass of each
part of the benchmark's workloads, copy searches and completion walks apart.
Run it from the root of the repository:

    python tools/kernel_counts.py [--seed N] [--tiny]

It imports the package from ``src/`` and the workloads from
``bench/workloads.py``, which it only reads, sets up each part from the
seed (default 1) at the benchmark's sizes, or its smoke test's with
``--tiny``, and runs one pass of it. Meanwhile ``embedding._pull`` adds a
counter to every loop it writes, and the kernels compile afresh into caches
of their own; afterwards the package's kernel and walk caches are the ones
it had before. A search iteration is a member tried at one step; a walk
iteration is a member tried at one step, or a set of a last loop's region
tested, when that loop takes the region side on the lattice. The counts repeat exactly for one seed and size, on any
machine. When its reader closes the pipe, it stops quietly with status 141.
"""

from __future__ import annotations

import argparse
import builtins
import contextlib
import importlib.util
import os
import sys
import tempfile
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import posetsat  # noqa: E402
from posetsat import cli, embedding  # noqa: E402

_spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

KINDS = ("search", "walk")
_COUNTER = "_kernel_loop_counts"  # a builtin while counting, so kernels see it


@contextlib.contextmanager
def counting():
    """Make every kernel compiled inside count its loop iterations, into the
    list it yields: [copy-search loops, completion-walk loops]."""
    counts = [0, 0]
    pull = embedding._pull

    def counted_pull(pad: str, cand: str, image: str) -> list[str]:
        kind = int(sys._getframe(1).f_code.co_name == "_walk_kernel")
        return pull(pad, cand, image) + [f"{pad}    {_COUNTER}[{kind}] += 1"]

    saved = {name: getattr(embedding, name)
             for name in ("_pull", "_KERNELS", "_completion_walks", "_search_kernel")}
    embedding._pull = counted_pull
    embedding._KERNELS = {}
    embedding._completion_walks = lru_cache(maxsize=None)(saved["_completion_walks"].__wrapped__)
    embedding._search_kernel = lru_cache(maxsize=None)(saved["_search_kernel"].__wrapped__)
    setattr(builtins, _COUNTER, counts)
    try:
        yield counts
    finally:
        delattr(builtins, _COUNTER)
        for name, value in saved.items():
            setattr(embedding, name, value)


def _task(label, fn, verdict=False):
    return fn()


def part_counts(seed: int, sizes: dict) -> dict[str, list[int]]:
    """Per part of every workload, in benchmark order, the loop iterations
    of one pass: [copy search, completion walks]."""
    api = SimpleNamespace(pkg=posetsat, cli=cli)
    result = {}
    with tempfile.TemporaryDirectory() as workdir:
        for parts in workloads.WORKLOADS.values():
            for part in parts:
                inputs = workloads.SETUP[part](api, seed, workdir, sizes[part])
                with counting() as counts:
                    workloads.RUN_PASS[part](api, inputs, _task)
                result[part] = counts
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tiny", action="store_true", help="the smoke test's sizes")
    args = parser.parse_args(argv)
    counts = part_counts(args.seed, workloads.TINY if args.tiny else workloads.FULL)
    print(f"{'loop iterations per pass':32}{KINDS[0]:>12}{KINDS[1]:>12}")
    for workload, parts in workloads.WORKLOADS.items():
        for part in parts:
            print(f"  {part:30}{counts[part][0]:12,}{counts[part][1]:12,}")
        total = [sum(counts[part][k] for part in parts) for k in range(2)]
        print(f"{workload + ' (total)':32}{total[0]:12,}{total[1]:12,}")
    return 0


if __name__ == "__main__":
    try:
        status = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    sys.exit(status)
