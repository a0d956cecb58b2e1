"""Concurrency stress test for the partition service (satellite 3).

Eight client threads hammer one :class:`PartitionService` with mixed
priorities, sizes and configs through a deliberately small admission
queue, so every control path fires: coalesced batches, splits,
rejections with backpressure, and (thread-local) retries after
rejection.  The invariants checked are the service's contract:

* every admitted request resolves — completed or timed out, never lost;
* every completed result is byte-identical to a direct
  :class:`~repro.core.partitioner.FpgaPartitioner` call;
* every rejected request carries a positive ``retry_after`` hint.

The workload is sized to finish comfortably inside CI budgets (a few
seconds on one core) and is additionally *time-bounded*: clients stop
submitting once ``REPRO_STRESS_BUDGET_S`` (default 120 s) of wall
clock has elapsed, so a slow runner degrades to a smaller workload
instead of a blown CI budget; ``timeout`` guards make a hang fail fast
instead of wedging the suite.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.core.modes import PartitionerConfig
from repro.core.partitioner import FpgaPartitioner
from repro.service import (
    PartitionRequest,
    PartitionService,
    Priority,
    RequestStatus,
)

CLIENT_THREADS = 8
REQUESTS_PER_CLIENT = 25
RESULT_TIMEOUT_S = 60.0
#: wall-clock cap on the submission phase (CI sets this explicitly)
STRESS_BUDGET_S = float(os.environ.get("REPRO_STRESS_BUDGET_S", "120"))

CONFIGS = (
    PartitionerConfig(num_partitions=32),
    PartitionerConfig(num_partitions=64),
)
PRIORITIES = (Priority.LOW, Priority.NORMAL, Priority.HIGH)


def _client(client_id, service, barrier, results, errors, deadline):
    """One client: submit a mixed workload, wait for every ticket."""
    rng = np.random.default_rng(1000 + client_id)
    try:
        barrier.wait(timeout=10)
        for i in range(REQUESTS_PER_CLIENT):
            if time.monotonic() > deadline:
                break  # budget exhausted: stop submitting, keep invariants
            size = int(rng.integers(128, 3000))
            keys = rng.integers(0, 2**32, size=size, dtype=np.uint64).astype(
                np.uint32
            )
            request = PartitionRequest(
                relation=keys,
                config=CONFIGS[(client_id + i) % len(CONFIGS)],
                priority=PRIORITIES[i % len(PRIORITIES)],
            )
            ticket = service.submit(request)
            response = ticket.result(timeout=RESULT_TIMEOUT_S)
            results.append((request, response))
            if response.status is RequestStatus.REJECTED:
                # honour the backpressure hint (capped to keep CI fast)
                threading.Event().wait(min(0.05, response.retry_after))
    except Exception as exc:  # noqa: BLE001 - surfaced to the main thread
        errors.append((client_id, repr(exc)))


def test_stress_mixed_priority_clients():
    results = []
    errors = []
    barrier = threading.Barrier(CLIENT_THREADS)
    deadline = time.monotonic() + STRESS_BUDGET_S
    with PartitionService(
        max_queue_requests=32,  # small on purpose: force rejections
        max_batch_requests=16,
        linger_s=0.0005,
    ) as service:
        threads = [
            threading.Thread(
                target=_client,
                args=(i, service, barrier, results, errors, deadline),
                name=f"client-{i}",
            )
            for i in range(CLIENT_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=RESULT_TIMEOUT_S * 2)
            assert not thread.is_alive(), "client thread hung"
    assert not errors, errors

    # time-bounding may shrink the workload on a very slow runner, but
    # every *submitted* request must have resolved
    total = len(results)
    assert 0 < total <= CLIENT_THREADS * REQUESTS_PER_CLIENT

    by_status = {}
    for _, response in results:
        by_status.setdefault(response.status, []).append(response)
    completed = by_status.get(RequestStatus.OK, [])
    rejected = by_status.get(RequestStatus.REJECTED, [])
    timed_out = by_status.get(RequestStatus.TIMED_OUT, [])

    # nothing is lost or failed: admitted -> completed or timed out
    assert len(completed) + len(rejected) + len(timed_out) == total
    assert RequestStatus.FAILED not in by_status
    assert completed, "no request completed"

    # metrics agree with client-side observations
    counters = service.metrics.to_dict()["counters"]
    assert counters["submitted"] == total
    assert counters["admitted"] == len(completed) + len(timed_out)
    assert counters["rejected"] == len(rejected)
    assert counters["completed"] == len(completed)
    assert counters["timed_out"] == len(timed_out)

    # every rejection carries a usable backpressure hint
    for response in rejected:
        assert response.retry_after is not None and response.retry_after > 0

    # byte-identity against direct solo partitioner calls
    references = {cfg: FpgaPartitioner(cfg) for cfg in CONFIGS}
    for request, response in results:
        if response.status is not RequestStatus.OK:
            continue
        assert response.backend == "fpga" and not response.degraded
        direct = references[request.config].partition(request.relation)
        assert np.array_equal(response.output.counts, direct.counts)
        for a, b in zip(
            response.output.partition_keys, direct.partition_keys
        ):
            assert np.array_equal(a, b)
        for a, b in zip(
            response.output.partition_payloads, direct.partition_payloads
        ):
            assert np.array_equal(a, b)

    # with 8 concurrent clients the scheduler should actually coalesce
    assert service.metrics.mean_batch_size() > 1.0


def test_concurrent_submit_snapshot_and_export():
    """Metrics readers race the writers without tearing (satellite of
    the gateway PR): ``snapshot()`` and the Prometheus exporter are
    called continuously from reader threads while writer threads
    submit, and every sampled snapshot must be internally consistent
    and monotone in time."""
    from repro.obs.export import prometheus_from_snapshot

    writer_threads = 4
    reader_threads = 3
    errors = []
    samples = []
    stop = threading.Event()
    deadline = time.monotonic() + min(STRESS_BUDGET_S, 20.0)

    def writer(writer_id, service):
        rng = np.random.default_rng(2000 + writer_id)
        try:
            for i in range(60):
                if time.monotonic() > deadline:
                    break
                keys = rng.integers(
                    0, 2**32, size=int(rng.integers(64, 2048)),
                    dtype=np.uint64,
                ).astype(np.uint32)
                ticket = service.submit(
                    PartitionRequest(relation=keys, config=CONFIGS[0])
                )
                response = ticket.result(timeout=RESULT_TIMEOUT_S)
                assert response.status in (
                    RequestStatus.OK, RequestStatus.REJECTED,
                )
        except Exception as exc:  # noqa: BLE001
            errors.append(("writer", writer_id, repr(exc)))

    def reader(reader_id, service):
        try:
            while not stop.is_set():
                snap = service.snapshot()
                counters = snap["counters"]
                # a torn read would let completed outrun admitted
                assert counters["completed"] <= counters["admitted"]
                # admission is counted before the request is published
                assert (
                    counters["completed"]
                    + counters["failed"]
                    + counters["timed_out"]
                    <= counters["admitted"]
                )
                assert (
                    counters["admitted"] + counters["rejected"]
                    <= counters["submitted"]
                )
                text = prometheus_from_snapshot(snap)
                assert "repro_service_submitted_total" in text
                samples.append(counters["submitted"])
        except Exception as exc:  # noqa: BLE001
            errors.append(("reader", reader_id, repr(exc)))

    with PartitionService(max_queue_requests=256) as service:
        readers = [
            threading.Thread(target=reader, args=(i, service))
            for i in range(reader_threads)
        ]
        writers = [
            threading.Thread(target=writer, args=(i, service))
            for i in range(writer_threads)
        ]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=RESULT_TIMEOUT_S * 2)
            assert not thread.is_alive(), "writer hung"
        stop.set()
        for thread in readers:
            thread.join(timeout=30)
            assert not thread.is_alive(), "reader hung"
        final = service.snapshot()["counters"]

    assert not errors, errors
    assert samples, "readers never sampled a snapshot"
    assert final["submitted"] == max(samples)
    # submitted never decreases across samples *per reader*; the global
    # list interleaves readers, so check the weaker global invariant
    assert final["submitted"] >= samples[0]


def test_drain_under_concurrent_load():
    """``drain()`` while writers are mid-flight: every ticket issued
    before the drain resolves, and late submits fail with
    :class:`ServiceDrainingError` — never a hang or a lost ticket."""
    from repro.service import ServiceDrainingError

    errors = []
    resolved = []
    drained = threading.Event()

    def writer(writer_id, service):
        rng = np.random.default_rng(3000 + writer_id)
        try:
            while not drained.is_set():
                keys = rng.integers(
                    0, 2**32, size=256, dtype=np.uint64
                ).astype(np.uint32)
                try:
                    ticket = service.submit(
                        PartitionRequest(relation=keys, config=CONFIGS[0])
                    )
                except ServiceDrainingError:
                    return  # the documented refusal
                response = ticket.result(timeout=RESULT_TIMEOUT_S)
                resolved.append(response.status)
        except Exception as exc:  # noqa: BLE001
            errors.append((writer_id, repr(exc)))

    service = PartitionService(max_queue_requests=256)
    service.start()
    threads = [
        threading.Thread(target=writer, args=(i, service))
        for i in range(4)
    ]
    for thread in threads:
        thread.start()
    time.sleep(0.3)  # let the writers build up in-flight work
    service.drain()
    drained.set()
    for thread in threads:
        thread.join(timeout=RESULT_TIMEOUT_S)
        assert not thread.is_alive(), "writer hung across drain()"
    assert not errors, errors
    assert resolved, "no request resolved before the drain"
    assert all(
        status in (RequestStatus.OK, RequestStatus.REJECTED)
        for status in resolved
    )
    with pytest.raises(ServiceDrainingError):
        service.submit(
            PartitionRequest(
                relation=np.arange(64, dtype=np.uint32), config=CONFIGS[0]
            )
        )
