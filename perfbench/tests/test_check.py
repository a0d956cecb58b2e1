"""Self-test of the benchmark's correctness check.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q`` from the
repository root.  A checker that cannot see a corrupted output would
let any benchmark run report ``correct``; these tests feed it one.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from check import Tally, digest  # noqa: E402

from repro.core.modes import LayoutMode, OutputMode, PartitionerConfig  # noqa: E402
from repro.core.partitioner import FpgaPartitioner  # noqa: E402
from repro.gateway.chunking import outputs_identical  # noqa: E402

MODES = [(o, l) for o in OutputMode for l in LayoutMode]


def _same(ours, reference):
    """The workloads' check: equal digests."""
    return digest(ours) == digest(reference)


def _output(modes, seed=3, n=20_000):
    keys = np.random.default_rng(seed).integers(
        0, 1 << 32, size=n, dtype=np.uint32)
    cfg = PartitionerConfig(num_partitions=64, output_mode=modes[0],
                            layout_mode=modes[1])
    return FpgaPartitioner(cfg).partition(keys, on_overflow="hist")


def _flip_one_byte(output, column: str, position: int):
    """A copy of ``output`` whose ``column`` has one byte flipped."""
    parts = getattr(output, column)
    flat = np.concatenate(list(parts)).copy()
    flat.view(np.uint8)[position] ^= 0x01
    bounds = np.concatenate([[0], np.cumsum(output.counts)])
    corrupted = [flat[bounds[p]:bounds[p + 1]]
                 for p in range(output.num_partitions)]
    return dataclasses.replace(output, **{column: corrupted})


@pytest.mark.parametrize("modes", MODES)
def test_identical_outputs_pass(modes):
    ours, reference = _output(modes), _output(modes)
    assert outputs_identical(ours, reference)
    assert _same(ours, reference)


@pytest.mark.parametrize("modes", MODES)
@pytest.mark.parametrize("column", ["partition_keys", "partition_payloads"])
@pytest.mark.parametrize("position", [0, 4_321, -1])
def test_one_flipped_byte_counts_as_failure(modes, column, position):
    reference = _output(modes)
    nbytes = 4 * reference.num_tuples
    corrupted = _flip_one_byte(reference, column, position % nbytes)
    assert not outputs_identical(corrupted, reference)
    tally = Tally()
    tally.record(_same(corrupted, reference), "corrupted")
    assert (tally.attempted, tally.failed) == (1, 1)


def test_moved_partition_boundary_counts_as_failure():
    """Same bytes in the same order, but one tuple moved to the
    neighbouring partition: the concatenated columns agree, the
    partitions do not."""
    reference = _output((OutputMode.HIST, LayoutMode.RID))
    keys = list(reference.partition_keys)
    pays = list(reference.partition_payloads)
    p = next(i for i in range(len(keys) - 1) if len(keys[i]) > 0)
    flat_k, flat_p = np.concatenate(keys[p:p + 2]), np.concatenate(pays[p:p + 2])
    cut = len(keys[p]) - 1
    keys[p], keys[p + 1] = flat_k[:cut], flat_k[cut:]
    pays[p], pays[p + 1] = flat_p[:cut], flat_p[cut:]
    moved = dataclasses.replace(reference, partition_keys=keys,
                                partition_payloads=pays)
    assert not outputs_identical(moved, reference)
    assert not _same(moved, reference)


def test_accounting_difference_counts_as_failure():
    reference = _output((OutputMode.PAD, LayoutMode.VRID))
    shifted = dataclasses.replace(reference,
                                  bytes_written=reference.bytes_written + 64)
    assert not outputs_identical(shifted, reference)
    assert not _same(shifted, reference)
