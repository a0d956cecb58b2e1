"""Tests for the partitioning service layer (repro.service)."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.modes import OutputMode, PartitionerConfig
from repro.core.partitioner import FpgaPartitioner
from repro.errors import ReproError
from repro.service import (
    AdmissionQueue,
    BackendFault,
    BatchingScheduler,
    CircuitBreaker,
    DegradationPolicy,
    FaultInjector,
    LatencyHistogram,
    PartitionRequest,
    PartitionResponse,
    PartitionService,
    PartitionTicket,
    QueueFullError,
    RequestStatus,
    ServiceMetrics,
    TokenBucket,
    request_signature,
)


class FakeClock:
    """A manually-advanced monotonic clock for deterministic timing."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def assert_outputs_equal(left, right):
    assert np.array_equal(left.counts, right.counts)
    assert np.array_equal(
        left.lines_per_partition, right.lines_per_partition
    )
    for a, b in zip(left.partition_keys, right.partition_keys):
        assert np.array_equal(a, b)
    for a, b in zip(left.partition_payloads, right.partition_payloads):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# AdmissionQueue


class TestAdmissionQueue:
    def test_priority_order_fifo_within_level(self):
        queue = AdmissionQueue(max_requests=10)
        queue.offer("low-1", priority=0, tuples=1)
        queue.offer("high-1", priority=2, tuples=1)
        queue.offer("low-2", priority=0, tuples=1)
        queue.offer("high-2", priority=2, tuples=1)
        order = [queue.take(0) for _ in range(4)]
        assert order == ["high-1", "high-2", "low-1", "low-2"]

    def test_bounded_rejection(self):
        queue = AdmissionQueue(max_requests=2)
        assert queue.offer("a", 0, 1) and queue.offer("b", 0, 1)
        assert not queue.offer("c", 0, 1)
        assert len(queue) == 2

    def test_tuple_budget(self):
        queue = AdmissionQueue(max_requests=100, max_tuples=1000)
        assert queue.offer("big", 0, 900)
        assert not queue.offer("too-much", 0, 200)
        assert queue.offer("fits", 0, 100)
        assert queue.tuples_queued == 1000

    def test_oversized_request_admitted_when_queue_empty(self):
        # a request larger than the whole tuple budget must not be
        # permanently unadmittable
        queue = AdmissionQueue(max_requests=4, max_tuples=100)
        assert queue.offer("huge", 0, 10**6)

    def test_retry_after_hint_uses_drain_rate(self):
        queue = AdmissionQueue(max_requests=4)
        queue.offer("a", 0, 5000)
        queue.note_drain_rate(10_000.0)
        assert queue.retry_after_hint() == pytest.approx(0.5)

    def test_retry_after_hint_bounded(self):
        queue = AdmissionQueue(max_requests=4)
        assert 0.01 <= queue.retry_after_hint() <= 5.0
        queue.offer("a", 0, 10**12)
        queue.note_drain_rate(1.0)
        assert queue.retry_after_hint() == 5.0

    def test_close_rejects_new_but_drains_old(self):
        queue = AdmissionQueue()
        queue.offer("queued", 0, 1)
        queue.close()
        assert not queue.offer("late", 0, 1)
        assert queue.take(0) == "queued"
        assert queue.take(0) is None

    def test_drain_respects_limit(self):
        queue = AdmissionQueue()
        for i in range(5):
            queue.offer(i, 0, 1)
        assert queue.drain(3) == [0, 1, 2]
        assert queue.drain(10) == [3, 4]
        assert queue.drain(0) == []

    def test_take_timeout(self):
        assert AdmissionQueue().take(timeout=0.01) is None

    def test_validation(self):
        with pytest.raises(ReproError):
            AdmissionQueue(max_requests=0)
        with pytest.raises(ReproError):
            AdmissionQueue(max_tuples=0)

    def test_queue_full_error_carries_hint(self):
        err = QueueFullError(depth=7, retry_after=0.25)
        assert err.depth == 7 and err.retry_after == 0.25
        assert "retry" in str(err)


# ---------------------------------------------------------------------------
# BatchingScheduler


class _Entry:
    def __init__(self, signature, tuples, tag=None):
        self.signature = signature
        self.tuples = tuples
        self.tag = tag


class TestBatchingScheduler:
    def test_signature_separates_configs(self):
        a = PartitionerConfig(num_partitions=64)
        b = PartitionerConfig(num_partitions=128)
        assert request_signature(a) == request_signature(a)
        assert request_signature(a) != request_signature(b)

    def test_coalesces_same_signature(self):
        sched = BatchingScheduler(max_batch_requests=8)
        batches = sched.form_batches([_Entry("s", 10) for _ in range(5)])
        assert len(batches) == 1
        assert len(batches[0]) == 5 and batches[0].total_tuples == 50

    def test_signature_groups_kept_apart(self):
        sched = BatchingScheduler()
        batches = sched.form_batches(
            [_Entry("a", 1), _Entry("b", 1), _Entry("a", 1)]
        )
        assert [b.signature for b in batches] == ["a", "b"]
        assert len(batches[0]) == 2

    def test_request_cap_opens_new_batch(self):
        sched = BatchingScheduler(max_batch_requests=2)
        batches = sched.form_batches([_Entry("s", 1) for _ in range(5)])
        assert [len(b) for b in batches] == [2, 2, 1]

    def test_tuple_cap_opens_new_batch(self):
        sched = BatchingScheduler(max_batch_tuples=100, split_tuples=1000)
        batches = sched.form_batches([_Entry("s", 60), _Entry("s", 60)])
        assert [len(b) for b in batches] == [1, 1]

    def test_oversized_goes_solo_split(self):
        sched = BatchingScheduler(split_tuples=1000)
        batches = sched.form_batches(
            [_Entry("s", 10), _Entry("s", 5000), _Entry("s", 10)]
        )
        assert [b.split for b in batches] == [False, True]
        assert len(batches[0]) == 2 and len(batches[1]) == 1

    def test_validation(self):
        with pytest.raises(ReproError):
            BatchingScheduler(max_batch_requests=0)
        with pytest.raises(ReproError):
            BatchingScheduler(max_batch_tuples=0)
        with pytest.raises(ReproError):
            BatchingScheduler(linger_s=-1)

    def test_collect_drains_queue(self):
        queue = AdmissionQueue()
        for i in range(4):
            queue.offer(_Entry("s", 1, tag=i), priority=0, tuples=1)
        sched = BatchingScheduler(linger_s=0.0)
        batches = sched.collect(queue, timeout=0.1)
        assert len(batches) == 1
        assert [e.tag for e in batches[0].entries] == [0, 1, 2, 3]
        assert len(queue) == 0

    def test_collect_timeout_returns_empty(self):
        assert BatchingScheduler().collect(AdmissionQueue(), 0.01) == []


# ---------------------------------------------------------------------------
# Metrics


class TestMetrics:
    def test_histogram_stats(self):
        hist = LatencyHistogram()
        for value in (0.001, 0.002, 0.004, 0.008):
            hist.record(value)
        assert hist.count == 4
        assert hist.mean_seconds == pytest.approx(0.00375)
        assert hist.max_seconds == 0.008
        assert hist.quantile_seconds(0.0) <= hist.quantile_seconds(1.0)

    def test_histogram_export(self):
        hist = LatencyHistogram()
        hist.record(0.5)
        data = hist.to_dict()
        assert data["count"] == 1
        assert len(data["log2_us_buckets"]) == 27

    def test_counters_and_export(self):
        clock = FakeClock()
        metrics = ServiceMetrics(clock=clock)
        metrics.increment("completed", 10)
        metrics.observe("execute", 0.01)
        metrics.observe_batch(4)
        metrics.set_gauge("queue_depth", 3)
        clock.advance(2.0)
        data = metrics.to_dict()
        assert data["counters"]["completed"] == 10
        assert data["counters"]["batches"] == 1
        assert data["gauges"]["queue_depth"] == 3
        assert data["throughput_rps"] == pytest.approx(5.0)
        assert metrics.mean_batch_size() == pytest.approx(4.0)
        assert metrics.throughput_rps() == pytest.approx(5.0)

    def test_unknown_counter_rejected(self):
        with pytest.raises(KeyError):
            ServiceMetrics().increment("nope")

    def test_to_table_renders(self):
        metrics = ServiceMetrics()
        metrics.increment("completed")
        metrics.observe("total", 0.005)
        table = metrics.to_table()
        assert table.headers[0] == "stage"
        assert len(table.rows) == 3
        assert "completed 1" in table.note


# ---------------------------------------------------------------------------
# Degradation primitives


class TestDegradation:
    def test_fault_injector_fail_next(self):
        injector = FaultInjector()
        injector.check()  # no fault armed
        injector.fail_next(2)
        with pytest.raises(BackendFault):
            injector.check()
        with pytest.raises(BackendFault):
            injector.check()
        injector.check()
        assert injector.injected == 2

    def test_fault_injector_rate_deterministic(self):
        outcomes = []
        for _ in range(2):
            injector = FaultInjector(fail_rate=0.5, seed=42)
            run = []
            for _ in range(20):
                try:
                    injector.check()
                    run.append(False)
                except BackendFault:
                    run.append(True)
            outcomes.append(run)
        assert outcomes[0] == outcomes[1]
        assert any(outcomes[0]) and not all(outcomes[0])

    def test_fault_injector_validation(self):
        with pytest.raises(ReproError):
            FaultInjector(fail_rate=1.5)

    def test_token_bucket_drains_and_refills(self):
        clock = FakeClock()
        bucket = TokenBucket(
            tuples_per_second=1000, burst_tuples=1000, clock=clock
        )
        assert bucket.try_acquire(800)
        assert not bucket.try_acquire(800)  # saturated
        clock.advance(0.7)  # +700 tuples of capacity
        assert bucket.try_acquire(800)

    def test_token_bucket_burst_cap(self):
        clock = FakeClock()
        bucket = TokenBucket(
            tuples_per_second=1000, burst_tuples=500, clock=clock
        )
        clock.advance(100.0)
        assert not bucket.try_acquire(501)
        assert bucket.try_acquire(500)

    def test_token_bucket_validation(self):
        with pytest.raises(ReproError):
            TokenBucket(tuples_per_second=0)

    def test_circuit_breaker_state_machine(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown_s=1.0, clock=clock
        )
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.allow()  # below threshold
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        clock.advance(1.5)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()  # the probe
        breaker.record_failure()  # probe failed -> re-open immediately
        assert breaker.state == CircuitBreaker.OPEN
        clock.advance(1.5)
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_policy_refusal_reasons(self):
        clock = FakeClock()
        bucket = TokenBucket(
            tuples_per_second=100, burst_tuples=100, clock=clock
        )
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=10.0, clock=clock
        )
        policy = DegradationPolicy(saturation=bucket, breaker=breaker)
        assert policy.admit_fpga(50) is None
        assert policy.admit_fpga(100) == "saturated"
        policy.record_outcome(False)
        assert policy.admit_fpga(1) == "breaker-open"


# ---------------------------------------------------------------------------
# PartitionService end-to-end


@pytest.fixture
def relations(rng):
    sizes = rng.integers(200, 2000, size=12)
    return [
        rng.integers(0, 2**32, size=int(n), dtype=np.uint64).astype(
            np.uint32
        )
        for n in sizes
    ]


class TestPartitionService:
    def test_results_byte_identical_to_direct_calls(self, relations):
        config = PartitionerConfig(num_partitions=64)
        with PartitionService(max_batch_requests=8) as service:
            tickets = [
                service.submit(PartitionRequest(relation=r, config=config))
                for r in relations
            ]
            responses = [t.result(timeout=30) for t in tickets]
        reference = FpgaPartitioner(config)
        for response, keys in zip(responses, relations):
            assert response.status is RequestStatus.OK
            assert response.backend == "fpga"
            assert not response.degraded
            assert_outputs_equal(response.output, reference.partition(keys))

    def test_mixed_configs_batch_separately_and_stay_correct(self, relations):
        configs = [
            PartitionerConfig(num_partitions=32),
            PartitionerConfig(num_partitions=64, output_mode=OutputMode.PAD,
                              pad_tuples=4096),
        ]
        with PartitionService() as service:
            tickets = [
                service.submit(
                    PartitionRequest(relation=r, config=configs[i % 2])
                )
                for i, r in enumerate(relations)
            ]
            responses = [t.result(timeout=30) for t in tickets]
        for i, (response, keys) in enumerate(zip(responses, relations)):
            assert response.status is RequestStatus.OK
            reference = FpgaPartitioner(configs[i % 2])
            assert_outputs_equal(response.output, reference.partition(keys))

    def test_oversized_request_split_solo(self, rng):
        keys = rng.integers(0, 2**32, size=50_000, dtype=np.uint64).astype(
            np.uint32
        )
        config = PartitionerConfig(num_partitions=64)
        with PartitionService(split_tuples=10_000) as service:
            response = service.submit(
                PartitionRequest(relation=keys, config=config)
            ).result(timeout=30)
        assert response.status is RequestStatus.OK
        assert response.batch_size == 1
        assert service.metrics.to_dict()["counters"]["split_requests"] == 1
        assert_outputs_equal(
            response.output, FpgaPartitioner(config).partition(keys)
        )

    def test_degrades_to_cpu_after_retries(self, relations):
        injector = FaultInjector()
        policy = DegradationPolicy(fault_injector=injector)
        with PartitionService(
            policy=policy, max_retries=1, retry_backoff_s=0.0
        ) as service:
            injector.fail_next(10)  # > retries: all FPGA attempts fault
            response = service.submit(
                PartitionRequest(relation=relations[0])
            ).result(timeout=30)
        assert response.status is RequestStatus.OK
        assert response.degraded and response.backend == "cpu"
        assert response.attempts == 2
        counters = service.metrics.to_dict()["counters"]
        assert counters["degraded"] == 1
        assert counters["retries"] == 1
        assert counters["cpu_invocations"] == 1

    def test_transient_fault_recovers_on_retry(self, relations):
        injector = FaultInjector()
        policy = DegradationPolicy(fault_injector=injector)
        with PartitionService(
            policy=policy, max_retries=2, retry_backoff_s=0.0
        ) as service:
            injector.fail_next(1)
            response = service.submit(
                PartitionRequest(relation=relations[0])
            ).result(timeout=30)
        assert response.status is RequestStatus.OK
        assert response.backend == "fpga" and not response.degraded
        assert response.attempts == 2

    def test_open_breaker_routes_straight_to_cpu(self, relations):
        clock_breaker = CircuitBreaker(failure_threshold=1, cooldown_s=60.0)
        clock_breaker.record_failure()  # pre-open
        policy = DegradationPolicy(breaker=clock_breaker)
        with PartitionService(policy=policy) as service:
            response = service.submit(
                PartitionRequest(relation=relations[0])
            ).result(timeout=30)
        assert response.status is RequestStatus.OK
        assert response.degraded and response.degrade_reason == "breaker-open"

    def test_rejection_carries_retry_after(self, relations):
        with PartitionService(
            max_queue_requests=1, linger_s=0.2
        ) as service:
            rejected = None
            for keys in relations * 4:
                ticket = service.submit(PartitionRequest(relation=keys))
                if ticket.done():
                    response = ticket.result()
                    if response.status is RequestStatus.REJECTED:
                        rejected = response
                        break
            assert rejected is not None
            assert rejected.retry_after and rejected.retry_after > 0
            assert service.metrics.to_dict()["counters"]["rejected"] >= 1

    def test_raise_on_reject(self, relations):
        with PartitionService(
            max_queue_requests=1, linger_s=0.2
        ) as service:
            with pytest.raises(QueueFullError):
                for keys in relations * 4:
                    service.submit(
                        PartitionRequest(relation=keys),
                        raise_on_reject=True,
                    )

    def test_expired_deadline_times_out(self, relations):
        with PartitionService() as service:
            response = service.submit(
                PartitionRequest(relation=relations[0], deadline_s=-0.001)
            ).result(timeout=30)
        assert response.status is RequestStatus.TIMED_OUT
        assert service.metrics.to_dict()["counters"]["timed_out"] == 1

    def test_ticket_wait_timeout(self, relations):
        service = PartitionService()  # never started -> never resolves
        with pytest.raises(ReproError):
            service.submit(PartitionRequest(relation=relations[0]))
        service.stop()

    def test_stop_drains_queued_work(self, relations):
        service = PartitionService(linger_s=0.0).start()
        tickets = [
            service.submit(PartitionRequest(relation=r)) for r in relations
        ]
        service.stop()
        for ticket in tickets:
            assert ticket.result(timeout=5).status in (
                RequestStatus.OK,
                RequestStatus.TIMED_OUT,
            )
        with pytest.raises(ReproError):
            service.start()  # stopped services do not restart

    def test_blocking_partition_helper(self, relations):
        config = PartitionerConfig(num_partitions=32)
        with PartitionService() as service:
            response = service.partition(
                relations[0], config=config, timeout=30
            )
        assert response.status is RequestStatus.OK
        assert_outputs_equal(
            response.output,
            FpgaPartitioner(config).partition(relations[0]),
        )

    def test_metrics_account_every_request(self, relations):
        with PartitionService() as service:
            tickets = [
                service.submit(PartitionRequest(relation=r))
                for r in relations
            ]
            for ticket in tickets:
                ticket.result(timeout=30)
            counters = service.metrics.to_dict()["counters"]
        assert counters["submitted"] == len(relations)
        assert counters["admitted"] == counters["submitted"]
        assert counters["completed"] == len(relations)
        assert counters["fpga_invocations"] >= 1
        latency = service.metrics.to_dict()["latency"]
        assert latency["total"]["count"] == len(relations)
        assert latency["queue_wait"]["count"] == len(relations)


# ---------------------------------------------------------------------------
# PartitionTicket.add_done_callback


def _ok(ticket: PartitionTicket) -> PartitionResponse:
    return PartitionResponse(
        request_id=ticket.request_id, status=RequestStatus.OK
    )


class TestTicketCallbacks:
    def test_registered_before_resolution_fires_once(self):
        ticket = PartitionTicket(1)
        calls = []

        def callback(t):
            # the response is readable without blocking from the callback
            calls.append((t, t.result(timeout=0).status))

        ticket.add_done_callback(callback)
        assert calls == []
        ticket._resolve(_ok(ticket))
        assert calls == [(ticket, RequestStatus.OK)]

    def test_registered_after_resolution_fires_immediately(self):
        ticket = PartitionTicket(2)
        ticket._resolve(_ok(ticket))
        calls = []
        ticket.add_done_callback(
            lambda t: calls.append(threading.get_ident())
        )
        assert calls == [threading.get_ident()]

    def test_concurrent_registration_and_resolution_fire_exactly_once(self):
        # a tiny switch interval makes the two threads interleave inside
        # add_done_callback/_resolve; the start order alternates so
        # either side can be first past the barrier
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(300):
                ticket = PartitionTicket(trial)
                barrier = threading.Barrier(2)
                calls = []

                def register():
                    barrier.wait()
                    for i in range(8):
                        ticket.add_done_callback(
                            lambda t, i=i: calls.append(i)
                        )

                def resolve():
                    barrier.wait()
                    ticket._resolve(_ok(ticket))

                threads = [
                    threading.Thread(target=register),
                    threading.Thread(target=resolve),
                ][:: 1 if trial % 2 else -1]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert sorted(calls) == list(range(8)), (trial, calls)
        finally:
            sys.setswitchinterval(interval)

    def test_raising_callback_does_not_block_the_others(self):
        ticket = PartitionTicket(3)
        calls = []

        def bad(_):
            raise RuntimeError("boom")

        ticket.add_done_callback(bad)
        ticket.add_done_callback(lambda t: calls.append(t.request_id))
        ticket._resolve(_ok(ticket))
        assert calls == [3]
        assert ticket.done()

    def test_service_fires_callback_on_the_dispatcher(self, relations):
        threads = []
        with PartitionService() as service:
            ticket = service.submit(PartitionRequest(relation=relations[0]))
            ticket.add_done_callback(
                lambda t: threads.append(threading.current_thread().name)
            )
            response = ticket.result(timeout=30)
        assert response.status is RequestStatus.OK
        # resolved on the dispatcher, or on this thread if it was
        # already done by the time the callback was registered
        assert len(threads) == 1
        assert threads[0] in (
            "partition-service-dispatcher",
            threading.current_thread().name,
        )


# ---------------------------------------------------------------------------
# Regression tests: service-tier bugfix sweep


class TestDispatcherSurvivesBatchErrors:
    def test_unexpected_error_fails_batch_and_dispatch_continues(self):
        keys = np.arange(1_000, dtype=np.uint32)
        poisoned = np.arange(1_000, dtype=np.uint32)
        poisoned[10] = 0xFFFFFFFF  # the reserved dummy payload: raises
        with PartitionService() as service:
            bad = service.submit(
                PartitionRequest(relation=keys, payloads=poisoned)
            ).result(timeout=30)
            good = service.submit(
                PartitionRequest(relation=keys)
            ).result(timeout=30)
            counters = service.metrics.to_dict()["counters"]
        assert bad.status is RequestStatus.FAILED
        assert bad.error.startswith("ConfigurationError: ")
        assert good.status is RequestStatus.OK
        assert counters["failed"] == 1
        assert counters["completed"] == 1


class TestAdmissionCounting:
    def test_completion_never_outruns_admission(self, relations):
        # the worst interleaving, forced: the dispatcher completes the
        # request before offer() has returned to submit()
        with PartitionService() as service:
            offer = service.queue.offer
            seen = []

            def offer_then_complete(item, priority, tuples):
                published = offer(item, priority, tuples)
                item.ticket.result(timeout=30)
                seen.append(service.metrics.to_dict()["counters"])
                return published

            service.queue.offer = offer_then_complete
            service.submit(PartitionRequest(relation=relations[0]))
        assert seen[0]["completed"] == 1
        assert seen[0]["admitted"] == 1

    def test_failed_offer_reclassifies_as_rejected(self, relations):
        with PartitionService() as service:
            service.queue.offer = lambda item, priority, tuples: False
            response = service.submit(
                PartitionRequest(relation=relations[0])
            ).result(timeout=30)
            counters = service.metrics.to_dict()["counters"]
        assert response.status is RequestStatus.REJECTED
        assert counters["submitted"] == 1
        assert counters["admitted"] == 0
        assert counters["rejected"] == 1


class TestHalfOpenSingleProbe:
    def _half_open_breaker(self, clock) -> CircuitBreaker:
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=1.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(1.5)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        return breaker

    def test_half_open_admits_exactly_one_caller(self):
        clock = FakeClock()
        breaker = self._half_open_breaker(clock)
        assert breaker.allow()  # the probe
        # the bug: every further caller in the window was admitted too
        assert not breaker.allow()
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_half_open_single_probe_under_contention(self):
        clock = FakeClock()
        breaker = self._half_open_breaker(clock)
        admitted = []
        start = threading.Barrier(8)

        def worker():
            start.wait()
            if breaker.allow():
                admitted.append(threading.current_thread().name)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(admitted) == 1

    def test_failed_probe_reopens_with_fresh_probe(self):
        clock = FakeClock()
        breaker = self._half_open_breaker(clock)
        assert breaker.allow()
        breaker.record_failure()  # probe failed -> re-open
        assert breaker.state == CircuitBreaker.OPEN
        clock.advance(1.5)
        # the new half-open window gets its own single probe
        assert breaker.allow()
        assert not breaker.allow()

    def test_release_probe_hands_back_the_claim(self):
        clock = FakeClock()
        breaker = self._half_open_breaker(clock)
        assert breaker.allow()
        breaker.release_probe()
        assert breaker.allow()  # claim returned, next caller may probe

    def test_policy_refusal_does_not_wedge_half_open(self):
        clock = FakeClock()
        bucket = TokenBucket(
            tuples_per_second=100, burst_tuples=100, clock=clock
        )
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=1.0, clock=clock
        )
        policy = DegradationPolicy(saturation=bucket, breaker=breaker)
        policy.record_outcome(False)
        clock.advance(1.5)
        # allow() claims the probe but saturation refuses the work; the
        # claim must be released or the breaker stays wedged half-open
        assert policy.admit_fpga(1000) == "oversized"
        assert policy.admit_fpga(50) is None


class TestTokenBucketValidation:
    def test_explicit_zero_burst_raises(self):
        # the bug: burst_tuples=0 was falsy and silently became `rate`
        with pytest.raises(ReproError):
            TokenBucket(tuples_per_second=100, burst_tuples=0)

    def test_negative_burst_raises(self):
        with pytest.raises(ReproError):
            TokenBucket(tuples_per_second=100, burst_tuples=-5)

    def test_omitted_burst_still_defaults_to_rate(self):
        assert TokenBucket(tuples_per_second=250).burst == 250.0

    def test_oversized_is_distinct_from_saturated(self):
        clock = FakeClock()
        bucket = TokenBucket(
            tuples_per_second=100, burst_tuples=100, clock=clock
        )
        policy = DegradationPolicy(saturation=bucket)
        # larger than burst: can never be admitted however long we wait
        assert policy.admit_fpga(101) == "oversized"
        # within burst: admitted now, saturated on the immediate retry
        assert policy.admit_fpga(100) is None
        assert policy.admit_fpga(100) == "saturated"
        clock.advance(10.0)
        assert policy.admit_fpga(100) is None  # refilled
        assert policy.admit_fpga(101) == "oversized"  # still never


class TestQuantileEdges:
    def test_q0_returns_lowest_occupied_bucket(self):
        hist = LatencyHistogram()
        hist.record(0.008)  # ~8 ms -> the 8192 us bucket
        # the bug: q=0 answered 1 us regardless of where the data sat
        assert hist.quantile_seconds(0.0) >= 0.004
        assert hist.quantile_seconds(0.0) <= 0.008192

    def test_overflow_bucket_clamps_to_max_seconds(self):
        hist = LatencyHistogram()
        hist.record(120.0)  # beyond the ~33.6 s bucket ladder
        # the bug: the open-ended bucket answered its fixed ~67 s bound
        assert hist.quantile_seconds(0.5) == pytest.approx(120.0)
        assert hist.quantile_seconds(1.0) == pytest.approx(120.0)

    def test_bounds_never_exceed_observed_max(self):
        hist = LatencyHistogram()
        hist.record(0.003)  # bucket bound 4096 us > the observation
        assert hist.quantile_seconds(0.99) == pytest.approx(0.003)

    def test_empty_histogram_and_validation(self):
        hist = LatencyHistogram()
        assert hist.quantile_seconds(0.5) == 0.0
        with pytest.raises(ValueError):
            hist.quantile_seconds(-0.1)
        with pytest.raises(ValueError):
            hist.quantile_seconds(1.1)

    def test_quantiles_monotone_in_q(self):
        hist = LatencyHistogram()
        for value in (0.0001, 0.001, 0.01, 0.1, 1.0):
            hist.record(value)
        qs = [hist.quantile_seconds(q) for q in (0.0, 0.25, 0.5, 0.95, 1.0)]
        assert qs == sorted(qs)
        assert qs[-1] <= hist.max_seconds
