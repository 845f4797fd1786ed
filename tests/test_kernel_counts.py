import builtins
import importlib.util
from pathlib import Path

from posetsat import embedding

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("kernel_counts", ROOT / "tools" / "kernel_counts.py")
kernel_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(kernel_counts)


def test_counts_every_part_and_restores_the_caches():
    names = ("_pull", "_KERNELS", "_completion_walks", "_search_kernel")
    before = {name: getattr(embedding, name) for name in names}
    kernels = dict(embedding._KERNELS)
    walks = embedding._completion_walks.cache_info()
    counts = kernel_counts.part_counts(1, kernel_counts.workloads.TINY)
    assert {name: getattr(embedding, name) for name in names} == before
    assert embedding._KERNELS == kernels
    assert embedding._completion_walks.cache_info() == walks
    assert not hasattr(builtins, kernel_counts._COUNTER)
    assert list(counts) == [part for parts in kernel_counts.workloads.WORKLOADS.values()
                            for part in parts]
    # every part walks; only the solver's exact walk may run no copy search
    assert all(walk > 0 for _, walk in counts.values())
    assert sum(search for search, _ in counts.values()) > 0
    assert kernel_counts.part_counts(1, kernel_counts.workloads.TINY) == counts


def test_main_prints_a_row_per_part_and_workload(capsys):
    assert kernel_counts.main(["--tiny", "--seed", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()
    parts = kernel_counts.workloads.WORKLOADS.values()
    assert len(rows) == 1 + sum(len(names) + 1 for names in parts)
    assert rows[-1].startswith("solve-verify (total)")
