"""Boundary tracing for the benchmark, applied to posetsat from outside.

The tracer replaces each traced function of the package with a timing
wrapper at every place its name is bound: a function imported by name into
another module (``from .saturation import saturation_report``) is a separate
binding that patching only the defining module would miss, so every
``posetsat`` module is scanned for the original object. Methods of
``_FamilyIndex`` and ``SetFamily`` are patched once, on the class.

Every wrapper keeps a call count and the total and child time per boundary,
also keyed by the nearest traced caller; a boundary's self time is its total
minus the time of the traced calls made inside it. Coarse boundaries (CLI
runs, reports, closures, solves, verifiers) and the benchmark's own tasks
also record one span each; hot boundaries (append, pop, search, probe,
one-shot probe) only accumulate, because an exact solve at n=4 makes over a
million appends.

A boundary whose name no longer exists is reported as absent, with zero
counts, and never raises.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

# metric prefix, defining module, attribute ("Class.method" for methods),
# whether each call records a span
BOUNDARIES = (
    ("cli.run", "posetsat.cli", "run", True),
    ("core.parse", "posetsat.core", "parse_family", False),
    ("core.family_build", "posetsat.core", "SetFamily.__init__", False),
    ("embedding.index_build", "posetsat.embedding", "_FamilyIndex.__init__", False),
    ("embedding.append", "posetsat.embedding", "_FamilyIndex.append", False),
    ("embedding.pop", "posetsat.embedding", "_FamilyIndex.pop", False),
    ("embedding.search", "posetsat.embedding", "_FamilyIndex.search", False),
    ("embedding.probe", "posetsat.embedding", "_FamilyIndex.probe_with", False),
    ("embedding.find_copy", "posetsat.embedding", "find_induced_copy", False),
    ("saturation.creates_copy", "posetsat.saturation", "_creates_copy", False),
    ("saturation.report", "posetsat.saturation", "saturation_report", True),
    ("saturation.greedy", "posetsat.saturation", "greedy_saturate", True),
    ("solver.exact", "posetsat.solver", "exact_sat_star", True),
    ("solver.enumerate", "posetsat.solver", "enumerate_saturated_families", True),
    ("solver.sample", "posetsat.solver", "sample_saturated_families", True),
    ("theorems.lemma1", "posetsat.theorems", "lemma1_check", True),
    ("theorems.t2", "posetsat.theorems", "verify_theorem2", True),
    ("theorems.t3", "posetsat.theorems", "verify_theorem3", True),
    ("theorems.p4", "posetsat.theorems", "verify_prop4", True),
)

_THEOREMS = ("theorems.lemma1", "theorems.t2", "theorems.t3", "theorems.p4")


def _hit(args, kwargs, result):
    """Probes and one-shot probes: a hit is a set whose addition creates a copy."""
    return 1 if result else 0


def _accepted(args, kwargs, result):
    """Greedy closure: the number of sets added to the seed."""
    seed = args[0] if args else kwargs["seed"]
    return len(result) - len(seed)


_OBSERVERS = {
    "embedding.probe": _hit,
    "saturation.creates_copy": _hit,
    "saturation.greedy": _accepted,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Installs the boundary wrappers, accumulates per-pass statistics and
    spans, and restores every patched binding on ``uninstall``."""

    def __init__(self):
        self.absent: list[str] = []
        self.bindings = 0
        self.spans: list[dict] = []
        self._plan: list[tuple[object, str, object, object]] | None = None
        self._wrappers: dict[int, object] = {}
        self._stack: list[list] = []
        self._next_span = 0
        self.reset()

    # --- per-pass state ----------------------------------------------------

    def reset(self) -> None:
        # name -> [calls, total_s, child_s, hits]
        self.acc = {name: [0, 0.0, 0.0, 0] for name, *_ in BOUNDARIES}
        # (name, nearest traced caller or None) -> [calls, total_s]
        self.by_parent: dict[tuple[str, str | None], list] = {}
        self.families: set[int] = set()
        self._stack.clear()

    # --- patching ----------------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place. The bindings are found on the first
        call; later calls reuse them, so a run can switch tracing on and off
        around each task cheaply."""
        if self._plan is None:
            self._plan = self._find_bindings()
        for owner, key, _, wrapper in self._plan:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        """Put every original binding back."""
        for owner, key, original, _ in reversed(self._plan or ()):
            setattr(owner, key, original)

    def _find_bindings(self) -> list[tuple[object, str, object, object]]:
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "posetsat" or key.startswith("posetsat."))
        ]
        plan = []
        for name, modname, attr, spans in BOUNDARIES:
            mod = sys.modules.get(modname)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = None
            if owner is not None:
                original = vars(owner).get(leaf) if owner_name else getattr(owner, leaf, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, spans)
            if owner_name:
                plan.append((owner, leaf, original, wrapper))
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        plan.append((m, key, original, wrapper))
        self.bindings = len(plan)
        return plan

    def check_restored(self) -> None:
        """Raise if any wrapper is still reachable from the package."""
        for key, mod in list(sys.modules.items()):
            if mod is None or not (key == "posetsat" or key.startswith("posetsat.")):
                continue
            for value in list(vars(mod).values()):
                found = [value] + (list(vars(value).values()) if isinstance(value, type) else [])
                if any(id(v) in self._wrappers for v in found):
                    raise RuntimeError(f"tracing wrapper left in {key}")

    def _wrap(self, name: str, fn, record_span: bool):
        stack = self._stack
        observe = _OBSERVERS.get(name)
        is_theorem = name in _THEOREMS
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = parent[2] if parent else None
            if record_span:
                span_id = tracer._open_span(name, span_id)
            frame = [name, 0.0, span_id]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                stack.pop()
                acc = tracer.acc[name]
                acc[0] += 1
                acc[1] += dt
                acc[2] += frame[1]
                pname = parent[0] if parent else None
                if parent is not None:
                    parent[1] += dt
                key = (name, pname)
                slot = tracer.by_parent.get(key)
                if slot is None:
                    tracer.by_parent[key] = [1, dt]
                else:
                    slot[0] += 1
                    slot[1] += dt
                if record_span:
                    tracer._close_span(span_id, t0, t1)
            if observe is not None:
                acc[3] += observe(args, kwargs, result)
            if is_theorem:
                tracer.families.add(id(args[0] if args else kwargs["family"]))
            return result

        self._wrappers[id(wrapper)] = wrapper
        return wrapper

    # --- spans -------------------------------------------------------------

    def _open_span(self, name: str, parent: int | None, label: str | None = None) -> int:
        span_id = self._next_span
        self._next_span += 1
        self.spans.append({"id": span_id, "parent": parent, "name": name, "label": label})
        return span_id

    def _close_span(self, span_id: int, start: float, end: float) -> None:
        span = self.spans[span_id]
        span["start"] = start
        span["end"] = end

    def task(self, label: str, fn):
        """Run one benchmark task under a span of its own; the boundary
        calls it makes become its children."""
        span_id = self._open_span("task", None, label)
        frame = ["task", 0.0, span_id]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self._stack.pop()
            self._close_span(span_id, t0, time.perf_counter())

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # --- metrics -----------------------------------------------------------

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass traced since the last ``reset``."""
        acc = self.acc

        def calls(name):
            return acc[name][0]

        def total(name):
            return acc[name][1]

        def self_s(name):
            return acc[name][1] - acc[name][2]

        def under(name, parent):
            return self.by_parent.get((name, parent), [0, 0.0])

        reports_in_theorems = sum(under("saturation.report", t)[0] for t in _THEOREMS)
        m = {
            "embedding.search.calls": calls("embedding.search"),
            "embedding.search.s": total("embedding.search"),
            "embedding.probe.calls": calls("embedding.probe"),
            "embedding.probe.s": total("embedding.probe"),
            "embedding.probe.hit_ratio": _ratio(acc["embedding.probe"][3], calls("embedding.probe")),
            "embedding.index_build.calls": calls("embedding.index_build"),
            "embedding.index_build.s": total("embedding.index_build"),
            "embedding.append.calls": calls("embedding.append"),
            "embedding.append.s": total("embedding.append"),
            "embedding.pop.calls": calls("embedding.pop"),
            "embedding.find_copy.calls": calls("embedding.find_copy"),
            "embedding.find_copy.s": total("embedding.find_copy"),
            "saturation.report.calls": calls("saturation.report"),
            "saturation.report.s": total("saturation.report"),
            "saturation.report.self_s": self_s("saturation.report"),
            "saturation.report.sets_scanned": under("embedding.probe", "saturation.report")[0],
            "saturation.greedy.calls": calls("saturation.greedy"),
            "saturation.greedy.s": total("saturation.greedy"),
            "saturation.greedy.accept_ratio": _ratio(
                acc["saturation.greedy"][3], under("embedding.probe", "saturation.greedy")[0]
            ),
            "saturation.creates_copy.calls": calls("saturation.creates_copy"),
            "saturation.creates_copy.s": total("saturation.creates_copy"),
            "saturation.creates_copy.hit_ratio": _ratio(
                acc["saturation.creates_copy"][3], calls("saturation.creates_copy")
            ),
            "solver.exact.s": total("solver.exact"),
            "solver.exact.self_s": self_s("solver.exact"),
            "solver.greedy_upper.s": under("saturation.greedy", "solver.exact")[1],
            "solver.enumerate.calls": calls("solver.enumerate"),
            "solver.enumerate.s": total("solver.enumerate"),
            "solver.sample.calls": calls("solver.sample"),
            "solver.sample.s": total("solver.sample"),
        }
        for name in _THEOREMS:
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.s"] = total(name)
            m[f"{name}.self_s"] = self_s(name)
        m["theorems.reports_per_family"] = _ratio(reports_in_theorems, len(self.families))
        m["core.family_build.calls"] = calls("core.family_build")
        m["core.family_build.s"] = total("core.family_build")
        m["core.parse.s"] = total("core.parse")
        m["cli.run.s"] = total("cli.run")
        m["cli.self_s"] = self_s("cli.run")
        return m


def combine_passes(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first traced pass (every pass runs the same inputs, so
    they repeat exactly); times and ratios as the median over passes."""
    out = {}
    for key in per_pass[0]:
        if key.endswith(".calls") or key.endswith(".sets_scanned"):
            out[key] = per_pass[0][key]
        else:
            out[key] = statistics.median(p[key] for p in per_pass)
    return out

