"""Outside-in tracing of ``latticemc`` layers.

The tracer replaces a function at every name its callers look up at call
time (each ``latticemc`` module global bound to it, or the class
attribute for methods) with a wrapper that records a span: name, start,
end and parent.  Spans stay in memory; ``summary`` turns them into
per-name call counts, inclusive time and self time once the run is over.

A worker thread's outermost span takes as parent the span open on the
main thread, so a thread pool's work is charged to the call that
submitted it and not to its wait.

A wrap point the program no longer has is recorded in ``absent`` and
skipped: the benchmark must survive a change that renames or removes a
private function.  Hooks that read counts from arguments or results
likewise only count their failures.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "latticemc"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.hook_errors: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[list, list[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        record = [name, time.perf_counter(), None, parent]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(record)
        return record, stack

    @staticmethod
    def _close(record: list, stack: list[int]) -> None:
        record[2] = time.perf_counter()
        stack.pop()

    @contextmanager
    def span(self, name: str):
        record, stack = self._open(name)
        try:
            yield
        finally:
            self._close(record, stack)

    # -- installing wrappers -------------------------------------------------

    def wrap(self, name: str, hook=None) -> None:
        """Trace ``latticemc.<name>`` as span ``name``; ``hook`` reads counts."""
        module_name, _, qualname = name.partition(".")
        owner = sys.modules.get(f"{PACKAGE}.{module_name}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        raw = getattr(owner, "__dict__", {}).get(attr)
        if raw is None:
            self.absent.append(name)
            return
        if isinstance(raw, classmethod):
            self._patch(owner, attr, classmethod(self._wrapper(raw.__func__, name, hook)))
        elif isinstance(owner, type):
            self._patch(owner, attr, self._wrapper(raw, name, hook))
        else:
            wrapped = self._wrapper(raw, name, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != PACKAGE:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrapper(self, fn, name: str, hook):
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record, stack = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record, stack)
            if hook is not None:
                try:
                    hook(self.counts, signature.bind(*args, **kwargs).arguments, result)
                except Exception:  # a changed signature costs a count, not the run
                    self.hook_errors[name] += 1
            return result

        return traced

    # -- reading the spans -----------------------------------------------------

    def summary(self) -> dict[str, SpanStats]:
        """Calls, inclusive time and self time per span name."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent is not None and end is not None:
                children[parent].append((start, end))
        out: dict[str, SpanStats] = defaultdict(SpanStats)
        for index, (name, start, end, _) in enumerate(self.spans):
            if end is None:
                continue
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            stats = out[name]
            stats.calls += 1
            stats.total_s += end - start
            stats.self_s += end - start - covered
        return dict(out)


# ---------------------------------------------------------------------------
# the layer boundaries of latticemc and the counts read at them


def _count_shard_ticks(counts, a, result):
    counts["walker.particle_ticks"] += a["n_particles"] * a["n_steps"]


def _count_trained_particles(counts, a, result):
    counts["qforce.particles"] += a["config"].n_particles


def _count_rays(counts, a, result):
    counts["qforce.rays_solved"] += len(a["p0"])


def _count_training(counts, a, result):
    counts["qforce.bosons_created"] += result.bosons_created
    counts["qforce.overdriven_events"] += result.lattice.overdriven_events
    counts["qforce.live_site_bosons"] += sum(len(v) for v in result.lattice.site_bosons.values())


def _count_csv(rows):
    def hook(counts, a, result):
        counts["stats.csv_rows"] += rows(a)
        counts["stats.csv_bytes"] += os.path.getsize(a["path"])
    return hook


def _count_json(counts, a, result):
    counts["cli.json_bytes"] += os.path.getsize(a["path"])


# span name "<module>.<qualified name there>" -> count hook
LAYERS = {
    "walker.run_ensemble_free": None,
    "walker._simulate_free_shard": _count_shard_ticks,
    "qforce.run_trained_slits": _count_trained_particles,
    "qforce._trained_shard": None,
    "qforce._solve_rays": _count_rays,
    "qforce.run_training_slits": _count_training,
    "qforce._LazySiteBoson.advance": None,
    "qforce.run_ring": None,
    "stats.Histogram.from_samples": None,
    "stats.merge": None,
    "stats.write_histogram_csv": _count_csv(lambda a: len(a["hist"].counts)),
    "stats.write_value_histogram_csv": _count_csv(lambda a: len(a["counts"])),
    "cli._write_json": _count_json,
    "cli._write_manifest": None,
    "scenarios.multi_slit_density": None,
    "qm_oracle.qm_multi_source": None,
    "analytic.ensemble_probability": None,
}


def _noop(value=None):
    return value


def span_cost(hook=None, repeats: int = 20_000, rounds: int = 5) -> float:
    """Seconds a wrapper adds to one call: a no-op function called ``repeats``
    times wrapped and bare, the fastest of ``rounds`` each."""
    tracer = Tracer()
    wrapped = tracer._wrapper(_noop, "noop", hook)

    def fastest(fn) -> float:
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            for _ in range(repeats):
                fn(None)
            times.append(time.perf_counter() - start)
            tracer.spans.clear()
        return min(times)

    return max(0.0, fastest(wrapped) - fastest(_noop)) / repeats


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; the modules must already be imported."""
    for name, hook in LAYERS.items():
        tracer.wrap(name, hook)
