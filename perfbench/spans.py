"""Span recording around the program's public functions (traced runs).

The program is not modified: :class:`Recorder` swaps module and class
attributes for timing wrappers and puts the originals back on exit.
That reaches every call site that looks a function up through its
module or class at call time (``kernels.hash_histogram(...)``,
``protocol.encode_chunk(...)``, ``self.handoff.execute(...)``).  A call
site that bound a function at import time (``from m import f``) is not
reached; for those the nearest wrappable boundary is timed instead,
and :data:`TARGETS` says which.

Each span is kept in memory as (id, parent id, name, thread, start,
end) — see :meth:`Recorder.write` — and folded into a per-name
:class:`Stat` as it ends, together with the time its children covered,
so self time is ``duration - children``.  Parents are tracked per
thread, so work on the service's dispatcher thread and the gateway's
event loop nests correctly under its own callers.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import threading
import time
from typing import Callable, Dict, List

import numpy as np

from harness import thread_bytes_written


def _len0(args, kwargs) -> int:
    first = args[0] if args else None
    keys = getattr(first, "keys", first)
    return int(np.shape(keys)[0]) if keys is not None else 0


def _len_probe(args, kwargs) -> int:
    # bucket_probe(build_keys, heads, nxt, num_buckets, probe_keys, ...)
    probe = args[4] if len(args) > 4 else kwargs.get("probe_keys")
    return int(np.shape(probe)[0])


def _len_many(args, kwargs) -> int:
    return sum(_len0((r,), {}) for r in args[0])


def _len_self0(args, kwargs) -> int:
    # bound methods: args[0] is the instance
    return _len0(args[1:], kwargs)


def _len_handoff(args, kwargs) -> int:
    # SpillHandoff.execute(self, donor, peer, keys, payloads, config)
    return int(np.shape(args[3])[0])


def _len_chunk(args, kwargs) -> int:
    # encode_chunk(seq, counts, partition_keys, partition_payloads)
    return int(np.sum(args[1]))


#: (module, owner attribute path or "", function name, span name,
#:  tuple counter).  Call sites bound at import time and the boundary
#:  timed in their place:
#:  * ``repro.gateway.client`` imports ``stitch_output`` by name, so the
#:    client module's own binding is the one wrapped.
#:  * ``repro.cluster.router`` imports ``WorkloadProfile`` inside the
#:    call, so the class method is wrapped, not the module binding.
TARGETS = (
    ("repro.kernels", "", "hash_histogram", "kernels.hash_histogram", _len0),
    ("repro.kernels", "", "hash_only", "kernels.hash_histogram", _len0),
    ("repro.kernels", "", "stable_scatter", "kernels.stable_scatter", _len0),
    ("repro.kernels", "", "scatter", "kernels.stable_scatter", _len0),
    ("repro.kernels", "", "swwc_scatter", "kernels.stable_scatter", _len0),
    ("repro.kernels", "", "bucket_build", "kernels.bucket_build", _len0),
    ("repro.kernels", "", "bucket_probe", "kernels.bucket_probe", _len_probe),
    ("repro.core.partitioner", "FpgaPartitioner", "partition",
     "core.partition", _len_self0),
    ("repro.core.partitioner", "FpgaPartitioner", "partition_many",
     "core.partition", lambda a, k: _len_many(a[1:], k)),
    ("repro.cluster.router", "ShardRouter", "partition",
     "cluster.partition", _len_self0),
    ("repro.optimize.profile", "WorkloadProfile", "from_keys",
     "optimize.profile", _len_self0),
    ("repro.cluster.placement", "PlacementPolicy", "observe_profile",
     "optimize.observe", None),
    ("repro.cluster.handoff", "SpillHandoff", "execute",
     "storage.handoff", _len_handoff),
    ("repro.gateway.protocol", "", "decode_data", "gateway.codec", None),
    ("repro.gateway.protocol", "", "encode_chunk", "gateway.codec",
     _len_chunk),
    ("repro.gateway.chunking", "StreamAccounting", "observe",
     "gateway.accounting", _len_self0),
    ("repro.gateway.chunking", "StreamAccounting", "finalize",
     "gateway.finalize", None),
    ("repro.gateway.client", "", "stitch_output", "gateway.finalize", None),
    ("repro.plan.executor", "", "execute_plan", "plan.execute", None),
)

#: span names whose calls also record bytes written by the thread
_IO_SPANS = {"storage.handoff"}
#: span names whose calls record the bytes their array arguments and
#: results occupy (the kernels' computed traffic)
_BYTE_SPANS = {
    "kernels.hash_histogram", "kernels.stable_scatter",
    "kernels.bucket_build", "kernels.bucket_probe",
}


def _array_bytes(args, result) -> int:
    seen = set()
    total = 0
    items = list(args)
    items.extend(result if isinstance(result, tuple) else (result,))
    for item in items:
        if isinstance(item, np.ndarray) and id(item) not in seen:
            seen.add(id(item))
            total += item.nbytes
    return total


class Stat:
    """Aggregate of every span with one name."""

    __slots__ = ("calls", "total_ns", "self_ns", "tuples", "nbytes",
                 "io_bytes", "results")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.tuples = 0
        self.nbytes = 0
        self.io_bytes = 0
        self.results: List[object] = []


class Recorder:
    """Install with ``with Recorder() as rec:``; read ``rec.stats``.

    The return values of ``optimize.profile`` spans are kept (the
    optimizer's profiles, for their hot-key sets).
    """

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        #: (id, parent id or -1, name, thread id, start ns, end ns)
        self.spans: List[tuple] = []
        self.active = True
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []

    # -- install / restore ---------------------------------------------

    def __enter__(self) -> "Recorder":
        for module_name, owner_path, attr, span, counter in TARGETS:
            owner = importlib.import_module(module_name)
            if owner_path:
                owner = getattr(owner, owner_path)
            self._install(owner, attr, span, counter)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            self._restore.pop()()

    def _install(self, owner, attr, span, counter) -> None:
        raw = owner.__dict__[attr] if attr in vars(owner) else getattr(
            owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        wrapped = self._wrap(func, span, counter)
        setattr(owner, attr, classmethod(wrapped) if is_classmethod
                else wrapped)
        self._restore.append(lambda: setattr(owner, attr, raw))

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, func, span: str, counter):
        stats = self.stats.setdefault(span, Stat())
        keep = span == "optimize.profile"
        count_bytes = span in _BYTE_SPANS
        count_io = span in _IO_SPANS
        recorder = self
        lock = self._lock
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not recorder.active:
                return func(*args, **kwargs)
            stack = recorder._stack()
            parent = stack[-1][1] if stack else -1
            frame = [0, next(ids)]  # children's ns, span id
            stack.append(frame)
            io_before = thread_bytes_written() if count_io else 0
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                spans.append((frame[1], parent, span,
                              threading.get_ident(), start, end))
            tuples = counter(args, kwargs) if counter is not None else 0
            nbytes = _array_bytes(args, result) if count_bytes else 0
            io = thread_bytes_written() - io_before if count_io else 0
            with lock:  # spans end on several threads at once
                stats.calls += 1
                stats.total_ns += elapsed
                stats.self_ns += elapsed - frame[0]
                stats.tuples += tuples
                stats.nbytes += nbytes
                stats.io_bytes += io
                if keep:
                    stats.results.append(result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    # -- reading -------------------------------------------------------

    def stat(self, span: str) -> Stat:
        return self.stats.get(span) or Stat()

    def kernel_ns(self) -> int:
        return sum(
            s.total_ns for name, s in self.stats.items()
            if name.startswith("kernels.")
        )

    def kernel_calls(self) -> int:
        return sum(
            s.calls for name, s in self.stats.items()
            if name.startswith("kernels.")
        )

    @contextlib.contextmanager
    def pause(self):
        """``with rec.pause():`` — calls inside record nothing."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        fields = ("id", "parent", "name", "thread", "start_ns", "end_ns")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")
