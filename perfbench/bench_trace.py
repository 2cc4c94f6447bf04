"""Span tracing around the calls into modalstab's modules.

The tracer wraps public functions from outside the program: each wrapper
records a span (name, start, end, parent id) in memory.  A function is
replaced in its defining module and wherever another modalstab module holds
the same object (``modalstab.cli`` imported most of them by name), so calls
inside a module, such as ``synthesize_controller`` calling
``care_stabilizing_solution``, are traced too.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# (layer, function) pairs wrapped in a traced run.  Every layer's functions
# named by the per-layer metrics, plus the writers that feed bytes_written.
TRACED = (
    ("plants", ("search_lift_parameter", "build_heat_boundary", "build_heat", "build_wave")),
    ("modal", ("truncate", "partition_spectrum", "select_truncation")),
    ("synthesis", ("synthesize_controller", "care_stabilizing_solution",
                   "check_stabilizable", "matches_observer_structure")),
    ("gains", ("scan_certificate", "decay_envelope", "certify_small_gain")),
    ("simulate", ("simulate_closed_loop", "matrix_exponential", "spectral_abscissa",
                  "estimate_decay_rate")),
    ("fileio", ("validate_document", "read_json", "write_json_atomic",
                "write_trajectory_csv", "write_sweep_csv")),
)
WRITERS = frozenset({"fileio.write_json_atomic", "fileio.write_trajectory_csv",
                     "fileio.write_sweep_csv"})
COMMAND = "cli"


@dataclass(frozen=True)
class Span:
    id: int
    parent: int      # -1 for a command's root span
    name: str
    start: float
    end: float


class Tracer:
    """Collects the spans of the commands run through ``command``."""

    def __init__(self):
        self.spans = []
        self.bytes_written = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._root = -1

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def command(self, fn, *args):
        """Run one command traced under a root span; returns (result, wall seconds).

        The wrappers are in place only while the command runs.
        """
        restore = install(self)
        span_id = next(self._ids)
        self._root = span_id
        stack = self._stack()
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, -1, COMMAND, start, end))
            restore()
        return result, end - start

    def wrap(self, name: str, fn):
        tracer = self
        sized = name in WRITERS

        def traced(*args, **kwargs):
            stack = tracer._stack()
            # a span opened on a worker thread belongs to the running command
            parent = stack[-1] if stack else tracer._root
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(span_id, parent, name, start, end))
            if sized:
                tracer.bytes_written += os.path.getsize(args[0])
            return result

        return traced


def install(tracer: Tracer):
    """Patch every traced function in all loaded modalstab modules.

    Returns a function that restores the originals.
    """
    import modalstab.cli  # noqa: F401  (every module, and the names cli imported)

    wrappers = {}
    for layer, names in TRACED:
        home = sys.modules[f"modalstab.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            wrappers[id(original)] = (original, tracer.wrap(f"{layer}.{fname}", original))
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "modalstab" or name.startswith("modalstab.")):
            continue
        for attr, value in list(vars(module).items()):
            pair = wrappers.get(id(value))
            if pair is not None and pair[0] is value:
                setattr(module, attr, pair[1])
                undo.append((module, attr, value))

    def restore():
        for module, attr, original in undo:
            setattr(module, attr, original)

    return restore


def self_times(spans) -> dict:
    """Wall time attributed to each span name, excluding time in child spans.

    A span's self intervals are its own interval minus the union of its
    children's.  Where self intervals of several threads overlap, each
    instant is shared equally among them, so the attributed times of one
    command sum to its wall time even when it runs work in parallel.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    events = []
    for s in spans:
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            if c.start > cursor:
                events.append((cursor, 1, s.name))
                events.append((min(c.start, s.end), -1, s.name))
            cursor = max(cursor, c.end)
        if s.end > cursor:
            events.append((cursor, 1, s.name))
            events.append((s.end, -1, s.name))
    events.sort(key=lambda e: (e[0], e[1]))
    totals = defaultdict(float)
    active = defaultdict(int)
    n_active = 0
    last = None
    for t, delta, name in events:
        if n_active and t > last:
            share = (t - last) / n_active
            for n, k in active.items():
                if k:
                    totals[n] += share * k
        active[name] += delta
        n_active += delta
        last = t
    return dict(totals)


def call_counts(spans) -> dict:
    return dict(Counter(s.name for s in spans))
