"""Chunked-stream accounting and client-side stitching.

The gateway's byte-identity trick is the spill partitioner's
(:mod:`repro.storage.spill`), carried over a socket: every chunk is
partitioned under a HIST/RID clone of the stream's config with explicit
*global-position* payloads, and because the partitioner is stable,
concatenating each partition's tuples across chunks in arrival order
reproduces exactly what one offline :meth:`FpgaPartitioner.partition`
call over the whole stream would have emitted.

Only the *accounting* (cache-line layout, traffic bytes, PAD overflow)
depends on the global tuple count, which is unknowable until the stream
ends.  :class:`StreamAccounting` therefore folds every chunk into a
lane-exact global ``(partition, lane)`` histogram — a tuple's lane is
its global input index mod lanes, so
``kernels.hash_histogram(..., global_offset=offset)`` makes misaligned
chunks account exactly like one big run — and :meth:`finalize` replays
the offline layout math (the same code path as
``SpillPartitioner._merge`` and the cluster router) to produce the
MANIFEST frame.  :func:`stitch_output` is the client-side inverse: chunk
frames + manifest → a :class:`PartitionedOutput` indistinguishable from
the offline call.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.core.modes import LayoutMode, OutputMode, PartitionerConfig
from repro.core.partitioner import PartitionedOutput, PartitionSlices
from repro.errors import PartitionOverflowError
from repro.exec.morsels import parts_dtype
from repro.storage.spill import config_from_dict, config_to_dict

__all__ = [
    "StreamAccounting",
    "chunk_config",
    "global_payloads",
    "iter_chunks",
    "manifest_config",
    "outputs_identical",
    "stitch_output",
]


def outputs_identical(
    ours: PartitionedOutput,
    reference: PartitionedOutput,
    check_accounting: bool = True,
) -> bool:
    """Byte-identity predicate used by tests, the bench and the CLI.

    Partition contents (keys and payloads, per partition, in order)
    must match exactly; with ``check_accounting`` the full layout and
    traffic accounting (counts, cache-line layout, bytes, dummy slots,
    effective config) must match too.
    """
    if ours.num_partitions != reference.num_partitions:
        return False
    if not np.array_equal(ours.counts, reference.counts):
        return False
    for p in range(ours.num_partitions):
        if not np.array_equal(
            ours.partition_keys[p], reference.partition_keys[p]
        ):
            return False
        if not np.array_equal(
            ours.partition_payloads[p], reference.partition_payloads[p]
        ):
            return False
    if not check_accounting:
        return True
    return (
        ours.config == reference.config
        and np.array_equal(
            ours.lines_per_partition, reference.lines_per_partition
        )
        and np.array_equal(ours.base_lines, reference.base_lines)
        and ours.bytes_read == reference.bytes_read
        and ours.bytes_written == reference.bytes_written
        and ours.dummy_slots == reference.dummy_slots
    )


def chunk_config(config: PartitionerConfig) -> PartitionerConfig:
    """The data-plane clone of a stream config: HIST output, RID layout.

    Same fan-out, tuple width and hash — chunk partition ``p`` is global
    partition ``p`` — but no per-chunk PAD capacities (overflow is a
    *global* property checked at end of stream) and explicit payloads
    (chunk-local VRIDs would be wrong; the gateway supplies global
    positions).  The same clone the cluster router's ``shard_config``
    uses for the same reason.
    """
    return dataclasses.replace(
        config, output_mode=OutputMode.HIST, layout_mode=LayoutMode.RID
    )


def global_payloads(
    payloads: Optional[np.ndarray], offset: int, num_tuples: int
) -> np.ndarray:
    """The payload column a chunk submits: the client's values when the
    stream carries payloads, else the tuples' global input positions —
    exactly what the offline partitioner generates for a bare key array
    (and always, in VRID mode)."""
    if payloads is not None:
        return payloads
    return np.arange(offset, offset + num_tuples, dtype=np.uint32)


def iter_chunks(
    keys: np.ndarray,
    payloads: Optional[np.ndarray],
    chunk_tuples: int,
) -> "Sequence[Tuple[np.ndarray, Optional[np.ndarray]]]":
    """Slice one in-memory relation into stream chunks (test/bench aid)."""
    if chunk_tuples <= 0:
        raise ValueError(f"chunk_tuples must be > 0, got {chunk_tuples}")
    chunks = []
    for start in range(0, len(keys), chunk_tuples):
        stop = start + chunk_tuples
        chunks.append(
            (
                keys[start:stop],
                None if payloads is None else payloads[start:stop],
            )
        )
    return chunks


class StreamAccounting:
    """Server-side global accounting of one stream, chunk by chunk."""

    def __init__(self, config: PartitionerConfig, on_overflow: str = "raise"):
        self.config = config
        self.on_overflow = on_overflow
        self.tuples = 0
        self.chunks = 0
        self.lane_counts = np.zeros(
            (config.num_partitions, config.num_lanes), dtype=np.int64
        )

    def observe(self, keys: np.ndarray) -> int:
        """Fold one chunk in; returns the chunk's global tuple offset."""
        offset = self.tuples
        _, _, lane_hist = kernels.hash_histogram(
            np.asarray(keys),
            self.config.num_partitions,
            self.config.uses_hash,
            lanes=self.config.num_lanes,
            global_offset=offset,
        )
        self.lane_counts += lane_hist
        self.tuples += int(keys.shape[0])
        self.chunks += 1
        return offset

    def finalize(self) -> dict:
        """The MANIFEST payload: global layout + traffic accounting.

        Raises :class:`PartitionOverflowError` when a PAD stream under
        the ``"raise"`` policy overflowed — the server turns that into
        a structured ERROR frame, matching the offline call's raise.
        """
        cfg = self.config
        n = self.tuples
        counts = self.lane_counts.sum(axis=1)
        per_line = cfg.tuples_per_line
        lines_per_partition = (-(-self.lane_counts // per_line)).sum(axis=1)
        effective = cfg
        extra_read = 0

        if cfg.output_mode is OutputMode.PAD:
            capacity_lines = cfg.partition_capacity(n) // per_line
            overflowed = np.nonzero(lines_per_partition > capacity_lines)[0]
            if overflowed.size:
                if self.on_overflow == "raise":
                    raise PartitionOverflowError(
                        partition=int(overflowed[0]),
                        capacity=capacity_lines * per_line,
                        tuples_seen=n,
                    )
                # "hist": chunk data is already HIST-identical; only the
                # accounting switches mode, and the aborted PAD scan is
                # still charged (Section 5.4 worst case)
                effective = dataclasses.replace(
                    cfg, output_mode=OutputMode.HIST
                )
                extra_read = cfg.traffic_bytes(n, 0)[0]

        if effective.output_mode is OutputMode.PAD:
            capacity_lines = effective.partition_capacity(n) // per_line
            base_lines = (
                np.arange(cfg.num_partitions, dtype=np.int64) * capacity_lines
            )
        else:
            base_lines = np.zeros(cfg.num_partitions, dtype=np.int64)
            np.cumsum(lines_per_partition[:-1], out=base_lines[1:])

        bytes_read, bytes_written = effective.traffic_bytes(
            n, int(lines_per_partition.sum())
        )
        return {
            "chunks": self.chunks,
            "tuples": n,
            "counts": counts.tolist(),
            "lines_per_partition": lines_per_partition.tolist(),
            "base_lines": base_lines.tolist(),
            "bytes_read": int(bytes_read) + int(extra_read),
            "bytes_written": int(bytes_written),
            "dummy_slots": int(
                lines_per_partition.sum() * per_line - counts.sum()
            ),
            "config": config_to_dict(cfg),
            "effective_config": config_to_dict(effective),
        }


def manifest_config(manifest: dict) -> PartitionerConfig:
    """The effective config a MANIFEST describes (post PAD→HIST)."""
    return config_from_dict(manifest["effective_config"])


def stitch_output(
    manifest: dict,
    chunks: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    produced_by: str = "gateway",
    degraded: bool = False,
) -> PartitionedOutput:
    """Assemble the stream's :class:`PartitionedOutput` client-side.

    ``chunks`` are the decoded CHUNK frames **in sequence order**:
    ``(counts, keys, payloads)`` with both columns concatenated in
    partition order.  Stability of the partitioner guarantees that
    per-partition concatenation across chunks in stream order equals
    the offline single-call output byte for byte.

    One scatter pass: chunk ``c``'s partition ``p`` lands at the
    manifest's global start of ``p`` plus the tuples earlier chunks put
    there, so every chunk is scattered straight from its frame views
    into two preallocated output columns (concatenating the chunks
    first would hold the stream's tuples twice).  The columns come
    back behind :class:`PartitionSlices` like the offline call's.
    """
    effective = manifest_config(manifest)
    num_partitions = effective.num_partitions
    counts = np.asarray(manifest["counts"], dtype=np.int64)
    stitched = np.zeros(num_partitions, dtype=np.int64)
    for chunk_counts, _, _ in chunks:
        stitched += chunk_counts
    # checked before any scatter: with every partition's total right,
    # no chunk can write outside its partitions' output regions
    if not np.array_equal(stitched, counts):
        raise ValueError(
            "stitched partition sizes disagree with the manifest "
            "(missing or reordered chunk frames?)"
        )
    boundaries = np.zeros(num_partitions + 1, dtype=np.int64)
    np.cumsum(counts, out=boundaries[1:])
    out_keys = np.empty(int(boundaries[-1]), dtype=np.uint32)
    out_pays = np.empty(int(boundaries[-1]), dtype=np.uint32)
    labels = np.arange(num_partitions, dtype=parts_dtype(num_partitions))
    # where the current chunk's partitions start: the global partition
    # starts plus everything earlier chunks put there
    cursor = boundaries[:-1].copy()
    for chunk_counts, keys, pays in chunks:
        parts = np.repeat(labels, chunk_counts)
        if keys.shape[0] != parts.shape[0] or pays.shape[0] != parts.shape[0]:
            raise ValueError(
                f"chunk columns hold {keys.shape[0]} keys and "
                f"{pays.shape[0]} payloads but its counts sum to "
                f"{parts.shape[0]}"
            )
        kernels.stable_scatter(
            keys, pays, parts, cursor, num_partitions, out_keys, out_pays
        )
        cursor += chunk_counts
    return PartitionedOutput(
        config=effective,
        partition_keys=PartitionSlices(out_keys, boundaries),
        partition_payloads=PartitionSlices(out_pays, boundaries),
        counts=counts,
        lines_per_partition=np.asarray(
            manifest["lines_per_partition"], dtype=np.int64
        ),
        base_lines=np.asarray(manifest["base_lines"], dtype=np.int64),
        bytes_read=int(manifest["bytes_read"]),
        bytes_written=int(manifest["bytes_written"]),
        dummy_slots=int(manifest["dummy_slots"]),
        produced_by=produced_by,
        fell_back_to_cpu=degraded,
    )
