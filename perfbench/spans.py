"""Spans and counters for the traced benchmark run.

The traced run replaces module-level names of the assocnet package with
timing wrappers for the length of the run and puts the originals back
afterwards; nothing in the package is edited. Each layer is timed at the
names its callers look up: the benchmark's own calls go through module
attributes (``ebayes.infer_adjacency``), and the CLI calls the names it
imported into ``assocnet.cli``. WRAPPED lists every such name.

Spans are kept in memory and written out when the run ends. Wrappers
record nothing outside an op or set-up scope, so the output checks,
which call the same functions, are never traced.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_dict(self) -> dict:
        return asdict(self)


def _pairs(m: int) -> int:
    return m * (m - 1) // 2


def _file_bytes(path) -> dict:
    return {"bytes": os.path.getsize(path)}


def _written(args, kwargs, result) -> dict:
    # write_manifest returns the file it wrote; the other writers take it first.
    return _file_bytes(result if isinstance(result, Path) else args[0])


def _read(args, kwargs, result) -> dict:
    return _file_bytes(args[0])


# (module, attribute, span name, info(args, kwargs, result) -> dict or None)
WRAPPED = [
    ("assocnet.simgen", "generate_ground_truth", "simgen.generate_ground_truth",
     lambda a, k, r: {"pairs": _pairs(r.adjacency.m)}),
    ("assocnet.simgen", "generate_correlations", "simgen.generate_correlations",
     lambda a, k, r: {"pairs": _pairs(r.values.shape[0])}),
    ("assocnet.assoc", "fisher_z", "assoc.fisher_z", None),
    ("assocnet.ebayes", "infer_adjacency", "ebayes.infer_adjacency", None),
    ("assocnet.ebayes", "fit_rows", "ebayes.fit_rows", None),
    ("assocnet.community", "detect_communities", "community.detect", None),
    ("assocnet.community", "spectral_on_continuous", "community.baseline", None),
    ("assocnet.community", "eigsh", "community.eigsh", None),
    ("assocnet.metrics", "edge_confusion", "metrics.edge_confusion", None),
    ("assocnet.metrics", "nmi", "metrics.nmi", None),
    ("assocnet.fileio", "write_edges_tsv", "fileio.write", _written),
    ("assocnet.fileio", "write_partition_tsv", "fileio.write", _written),
    ("assocnet.cli", "main", "cli.main", lambda a, k, r: {"exit": r}),
    ("assocnet.cli", "select_num_communities", "community.select_k", None),
    ("assocnet.cli", "detect_communities_report", "community.detect", None),
    ("assocnet.cli", "nmi", "metrics.nmi", None),
    ("assocnet.cli", "read_edges_tsv", "fileio.read", _read),
    ("assocnet.cli", "read_partition_tsv", "fileio.read", _read),
    ("assocnet.cli", "write_partition_tsv", "fileio.write", _written),
    ("assocnet.cli", "write_summary_csv", "fileio.write", _written),
    ("assocnet.cli", "write_manifest", "fileio.write", _written),
]

# (module, attribute, counter name, size(args, kwargs) -> int): counted, not spanned.
COUNTED = [
    ("assocnet.ebayes", "log_laplace_normal_density", "ebayes.density_evals",
     lambda a, k: int(np.broadcast(np.asarray(a[0]), np.asarray(a[1])).size)),
]


class Tracer:
    """Collects spans and counters while a scope is open.

    A span opened on a worker thread, which has no span of its own open,
    takes the innermost open span of the thread that opened the scope as
    its parent: that is the call that started the worker.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.calls: dict[str, int] = defaultdict(int)
        self._scope: str | None = None
        self._scope_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[int, int | None, list[int]]:
        stack = self._stack()
        parent = stack[-1] if stack else (self._scope_stack[-1] if self._scope_stack else None)
        with self._lock:
            sid = self._next_id
            self._next_id += 1
            self.calls[self._scope] += 1
        stack.append(sid)
        return sid, parent, stack

    def _close(self, sid, parent, stack, name, start, info) -> None:
        end = time.perf_counter()
        stack.pop()
        span = Span(sid, name, start, end, parent, self._scope, info or {})
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def scope(self, scope_id: str, name: str = "bench.op"):
        """A root span; every traced call made while it is open belongs to it."""
        self._scope = scope_id
        self._scope_stack = self._stack()
        sid, parent, stack = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, stack, name, start, None)
            self._scope = None

    def wrap(self, name: str, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._scope is None:
                return fn(*args, **kwargs)
            sid, parent, stack = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, parent, stack, name, start, {"raised": True})
                raise
            self._close(sid, parent, stack, name, start,
                        info(args, kwargs, result) if info else None)
            return result

        return traced

    def count(self, name: str, fn, size):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            scope = self._scope
            if scope is not None:
                n = size(args, kwargs)
                with self._lock:
                    self.counts[scope][name] += n
                    self.calls[scope] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def install(self):
        """Swap the WRAPPED and COUNTED names in, and back out on exit."""
        replacements = [(m, a, functools.partial(self.wrap, n, info=i)) for m, a, n, i in WRAPPED]
        replacements += [(m, a, functools.partial(self.count, n, size=s)) for m, a, n, s in COUNTED]
        saved = []
        try:
            for module_name, attr, make in replacements:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, make(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Wall time of each span not covered by its child spans.

    The interval of the scope is cut at every span boundary. Each piece
    goes to the open spans that have no open child; when several are open
    at once (row fits on worker threads) they share it equally. The self
    times of a scope therefore sum to its root span's duration, and for
    sequential calls each equals the span minus its children.
    """
    children = defaultdict(set)
    for s in spans:
        children[s.parent].add(s.sid)
    bounds = sorted({t for s in spans for t in (s.start, s.end)})
    out = {s.sid: 0.0 for s in spans}
    for lo, hi in zip(bounds, bounds[1:]):
        active = {s.sid for s in spans if s.start <= lo and s.end >= hi}
        leaves = [sid for sid in active if not children[sid] & active]
        for sid in leaves:
            out[sid] += (hi - lo) / len(leaves)
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time of one scope summed per layer (the span name's prefix)."""
    layer_of = {s.sid: s.layer for s in spans}
    out: dict[str, float] = defaultdict(float)
    for sid, t in self_times(spans).items():
        out[layer_of[sid]] += t
    return out


def wrapper_cost_s(repeats: int = 20000) -> float:
    """Seconds a span wrapper adds to one call, measured on a no-op."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("bench.noop", noop)
    with tracer.scope("calibrate"):
        start = time.perf_counter()
        for _ in range(repeats):
            traced()
        wrapped = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(repeats):
            noop()
        bare = time.perf_counter() - start
    return max(wrapped - bare, 0.0) / repeats
