"""Output checks, run after each operation's timer has stopped.

:func:`digest` reduces an output to a SHA-256 over every field
:func:`repro.gateway.chunking.outputs_identical` compares — partition
contents in order, counts, cache-line layout, traffic, padding and the
effective configuration — reading whole columns instead of one
partition at a time, which keeps checking thousands of small service
responses per run cheap.  An output is correct when its digest equals
its reference's.  Workloads that drop each large output once digested
compute the reference after the measured loop, so neither inflates
``peak_rss_mib``.

The self-test in ``perfbench/tests`` pins the digest comparison to the
verdicts of ``outputs_identical``, including on one flipped byte.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _column(parts) -> np.ndarray:
    contiguous = getattr(parts, "contiguous", None)
    column = contiguous() if contiguous is not None else None
    if column is not None:
        return column
    parts = list(parts)
    return np.concatenate(parts) if parts else np.empty(0, np.uint32)


def _lengths(parts) -> np.ndarray:
    return np.fromiter(map(len, parts), dtype=np.int64, count=len(parts))


def _feed(hasher, array) -> None:
    array = np.ascontiguousarray(array)
    hasher.update(f"{array.dtype.str}{array.shape}".encode())
    hasher.update(memoryview(array).cast("B"))


def digest(output) -> bytes:
    """SHA-256 of a :class:`PartitionedOutput`'s observable content."""
    hasher = hashlib.sha256()
    _feed(hasher, np.asarray(output.counts, dtype=np.int64))
    for parts in (output.partition_keys, output.partition_payloads):
        _feed(hasher, _lengths(parts))
        _feed(hasher, _column(parts))
    _feed(hasher, np.asarray(output.lines_per_partition, dtype=np.int64))
    _feed(hasher, np.asarray(output.base_lines, dtype=np.int64))
    hasher.update(repr((output.config, int(output.bytes_read),
                        int(output.bytes_written),
                        int(output.dummy_slots))).encode())
    return hasher.digest()


def query_digest(result) -> bytes:
    """SHA-256 of a query result's rows (match count, groups)."""
    hasher = hashlib.sha256(repr(result.matches).encode())
    _feed(hasher, result.group_keys)
    _feed(hasher, result.group_values)
    return hasher.digest()


def require_ok(response) -> None:
    """Stop the run when a set-up call the workload depends on fails."""
    if not response.ok:
        raise RuntimeError(f"{response.status}: {response.error}")


class Tally:
    """Attempted/failed counts; a failure keeps its first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)
        return ok
