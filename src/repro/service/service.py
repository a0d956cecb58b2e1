"""The partition service façade: requests in, tickets out.

:class:`PartitionService` turns the library's one-shot partitioners
into a long-lived serving tier shaped like an inference server:

* Clients call :meth:`PartitionService.submit` from any thread and get
  a :class:`PartitionTicket` immediately — admission control answers
  *now* (admitted, or rejected with a ``retry_after`` hint), the work
  itself resolves asynchronously.
* A single dispatcher thread pulls priority-ordered work from the
  :class:`~repro.service.queue.AdmissionQueue`, forms batches with the
  :class:`~repro.service.scheduler.BatchingScheduler`, and executes
  them: coalesced batches through
  :meth:`~repro.core.partitioner.FpgaPartitioner.partition_many`,
  oversized requests solo through the morsel engine.
* Deadlines are enforced at dequeue and at resolve; FPGA faults retry
  with bounded exponential backoff, then degrade to the CPU (SWWC)
  backend; saturation and open-circuit conditions skip straight to the
  CPU.  Every downgrade is recorded on the response and in
  :class:`~repro.service.metrics.ServiceMetrics`.

A single dispatcher is deliberate: the container this reproduction
targets has one core, so service throughput comes from *vectorised
coalescing* (one hash + one radix sort per batch), not from dispatcher
parallelism — the same amortisation argument as the paper's deeply
pipelined circuit, transplanted to the serving layer.
"""

from __future__ import annotations

import dataclasses
import enum
import logging
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.modes import OutputMode, PartitionerConfig
from repro.core.partitioner import (
    FpgaPartitioner,
    OverflowPolicy,
    PartitionedOutput,
)
from repro.cpu.partitioner import CpuPartitioner
from repro.errors import ReproError
from repro.obs.tracing import resolve_tracer
from repro.service.degradation import BackendFault, DegradationPolicy
from repro.service.metrics import ServiceMetrics
from repro.service.queue import AdmissionQueue, QueueFullError
from repro.service.scheduler import Batch, BatchingScheduler, request_signature
from repro.workloads.relations import Relation

_LOG = logging.getLogger(__name__)


class ServiceDrainingError(ReproError):
    """Submits are refused because the service is draining.

    Raised by :meth:`PartitionService.submit`/:meth:`submit_plan` once
    :meth:`PartitionService.drain` has begun: the service is completing
    already-admitted work but accepts nothing new.  Distinct from the
    generic not-running error so network front-ends (the gateway) can
    surface a structured "draining" outcome instead of a hard failure.
    """


class Priority(enum.IntEnum):
    """Admission-queue priority; higher dequeues first."""

    LOW = 0
    NORMAL = 1
    HIGH = 2


class RequestStatus(enum.Enum):
    """Terminal state of a partition request."""

    OK = "ok"
    REJECTED = "rejected"
    TIMED_OUT = "timed-out"
    FAILED = "failed"


@dataclasses.dataclass
class PartitionRequest:
    """One client request: a relation plus how to partition it.

    Args:
        relation: a :class:`~repro.workloads.relations.Relation` or a
            bare uint32 key array.
        payloads: payload column when ``relation`` is a bare array.
        config: partitioner configuration; requests coalesce only with
            identical configs (see
            :func:`~repro.service.scheduler.request_signature`).
        priority: admission priority (higher first).
        deadline_s: optional per-request deadline, seconds from submit;
            expired requests resolve ``TIMED_OUT`` instead of running.
        on_overflow: PAD-mode overflow policy, forwarded to the kernel.
    """

    relation: "Relation | np.ndarray"
    payloads: Optional[np.ndarray] = None
    config: PartitionerConfig = dataclasses.field(
        default_factory=PartitionerConfig
    )
    priority: int = Priority.NORMAL
    deadline_s: Optional[float] = None
    on_overflow: OverflowPolicy = "raise"

    @property
    def num_tuples(self) -> int:
        if isinstance(self.relation, Relation):
            return self.relation.num_tuples
        return int(np.asarray(self.relation).shape[0])


@dataclasses.dataclass
class PlanRequest:
    """A whole-query request: a logical plan instead of one relation.

    The service executes the plan through the fused pipeline compiler
    (:func:`repro.plan.execute_plan`) — partition → build/probe →
    aggregate in one morsel pass — falling back to the staged operators
    (and marking the response degraded) if the fused pass errors.
    Admission control, priorities and deadlines apply to the *whole
    query*: ``num_tuples`` counts every scan, so a two-relation join
    plan is admitted against the same queue bounds as two partition
    requests of the same size.

    Args:
        plan: a :class:`repro.plan.LogicalPlan` (see the builders in
            :mod:`repro.plan.nodes`).
        priority / deadline_s: as on :class:`PartitionRequest`.
        fused: request the one-pass executor (default); ``False`` runs
            the staged reference pipeline.
    """

    plan: object
    priority: int = Priority.NORMAL
    deadline_s: Optional[float] = None
    fused: bool = True

    @property
    def num_tuples(self) -> int:
        return int(sum(scan.num_tuples for scan in self.plan.scans))


@dataclasses.dataclass
class PartitionResponse:
    """Terminal result delivered through a :class:`PartitionTicket`.

    ``spill`` is set when the request ran out-of-core: a
    :class:`~repro.storage.spill.PartitionSpill` handle whose partition
    files back the (lazily memory-mapped) ``output``.  The files belong
    to the caller from then on — drop them with ``spill.cleanup()``
    when done.
    """

    request_id: int
    status: RequestStatus
    output: Optional[PartitionedOutput] = None
    backend: Optional[str] = None  # "fpga"|"cpu"|"spill"|"fused"|"staged"
    spill: Optional[object] = None  # PartitionSpill when backend=="spill"
    result: Optional[object] = None  # QueryResult for PlanRequests
    degraded: bool = False
    degrade_reason: Optional[str] = None
    retry_after: Optional[float] = None  # set on REJECTED
    attempts: int = 0
    batch_size: int = 0
    queue_wait_s: float = 0.0
    execute_s: float = 0.0
    total_s: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status is RequestStatus.OK


class PartitionTicket:
    """Client-side handle for an in-flight request."""

    def __init__(self, request_id: int):
        self.request_id = request_id
        self._event = threading.Event()
        self._response: Optional[PartitionResponse] = None
        self._lock = threading.Lock()
        self._callbacks: Optional[List[_DoneCallback]] = None

    def done(self) -> bool:
        """True once the request has resolved (any terminal status)."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> PartitionResponse:
        """Block until resolved; raises :class:`TimeoutError` if the
        client-side wait (not the request deadline) expires first."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} not resolved within {timeout}s"
            )
        assert self._response is not None
        return self._response

    def add_done_callback(self, fn: _DoneCallback) -> None:
        """Call ``fn(ticket)`` exactly once, when the ticket resolves.

        ``fn`` runs on the resolving thread — usually the service's
        dispatcher — so it must be quick and must not block (hand off,
        e.g. with ``loop.call_soon_threadsafe``).  On an already
        resolved ticket it runs right away, on the calling thread.
        Either way :meth:`result` no longer blocks once ``fn`` runs.
        An exception from ``fn`` is logged and swallowed.
        """
        with self._lock:
            if self._response is None:
                if self._callbacks is None:
                    self._callbacks = []
                self._callbacks.append(fn)
                return
        _run_callback(fn, self)

    def _resolve(self, response: PartitionResponse) -> None:
        with self._lock:
            self._response = response
            self._event.set()
            callbacks, self._callbacks = self._callbacks, None
        for fn in callbacks or ():
            _run_callback(fn, self)


_DoneCallback = Callable[[PartitionTicket], None]


def _run_callback(fn: _DoneCallback, ticket: PartitionTicket) -> None:
    try:
        fn(ticket)
    except Exception:  # noqa: BLE001 - a callback must not fail the resolver
        _LOG.exception(
            "done-callback of request %d raised", ticket.request_id
        )


@dataclasses.dataclass
class _Pending:
    """Internal queue entry: request + ticket + precomputed batch key."""

    request: PartitionRequest
    ticket: PartitionTicket
    signature: Tuple
    tuples: int
    submitted_at: float
    deadline_at: Optional[float]
    #: root "request" span, opened at submit and ended at resolution
    span: Optional[object] = None
    #: optimizer decision, computed ahead of admission (None = static)
    decision: Optional[object] = None

    @property
    def force_spill(self) -> bool:
        """True when the optimizer routed this request multi-pass."""
        return self.decision is not None and self.decision.backend == "spill"


class PartitionService:
    """Long-lived serving façade over the FPGA and CPU partitioners.

    Args:
        max_queue_requests / max_queue_tuples: admission bounds (see
            :class:`~repro.service.queue.AdmissionQueue`).
        max_batch_requests / max_batch_tuples / split_tuples / linger_s:
            batching knobs (see
            :class:`~repro.service.scheduler.BatchingScheduler`);
            ``max_batch_requests=1`` with ``linger_s=0`` is the naive
            one-request-at-a-time baseline the benchmark compares
            against.
        spill_tuples: requests at or above this many tuples run
            out-of-core through :mod:`repro.storage.spill` instead of
            being held in memory (or rejected): the relation is staged
            into a chunked on-disk store, streamed through the kernel
            under ``spill_bytes_in_memory``, and the response carries a
            :class:`~repro.storage.spill.PartitionSpill` handle plus a
            lazily memory-mapped ``output``.  ``None`` (default)
            disables the spill path.
        spill_dir: directory for spill stores and runs (a fresh
            temporary directory per service if omitted).  Run
            directories outlive their response on purpose — the output
            *is* those files; callers drop them via
            ``response.spill.cleanup()``.
        spill_bytes_in_memory: in-memory budget for the spill path's
            buffered chunk outputs (see
            :class:`~repro.storage.spill.SpillPartitioner`).
        max_retries / retry_backoff_s / retry_backoff_cap_s: bounded
            exponential backoff for faulted FPGA calls before the CPU
            failover kicks in.
        policy: backend-health policy (faults, saturation, breaker); a
            permissive default is built if omitted.
        engine: execution-engine spec for kernel invocations (morsel
            splitting of oversized requests); ``"serial"`` by default —
            on the single-core target, parallel dispatch buys nothing.
        cpu_threads: thread count for the CPU (SWWC) failover backend.
        clock: injectable monotonic clock (tests).
        tracer: optional :class:`~repro.obs.tracing.Tracer`.  Every
            request gets a root ``request`` span from submit to
            resolution, with ``queue_wait`` / ``batch`` / ``execute`` /
            ``resolve`` child spans beneath it; the tracer is forwarded
            to the scheduler and the kernel partitioners, so scheduler
            decisions and per-kernel spans land in the same trace.  The
            service's ``clock`` should be the tracer's clock (both
            default to ``time.monotonic``) so timestamps share one
            timeline.
        optimizer: optional
            :class:`~repro.optimize.optimizer.AdaptiveOptimizer` hook,
            consulted *ahead of admission* for every request.  The
            decision joins the batch signature (requests with
            different execution plans never share a kernel pass) and
            steers execution: sketch-hot keys are isolated into
            dedicated PAD regions, doomed PAD runs go straight to
            HIST, optimizer-routed requests run on the cpu or spill
            path without counting as degradations, and observed
            execute latencies flow back via ``optimizer.observe`` to
            recalibrate its rates.  Response contents stay
            byte-identical to the static path — only layout/base
            addresses and the accounting differ.  ``None`` (default)
            is the static escape hatch: every knob keeps the
            request's configuration.
    """

    def __init__(
        self,
        max_queue_requests: int = 1024,
        max_queue_tuples: Optional[int] = None,
        max_batch_requests: int = 64,
        max_batch_tuples: int = 1 << 20,
        split_tuples: Optional[int] = None,
        spill_tuples: Optional[int] = None,
        spill_dir=None,
        spill_bytes_in_memory: int = 64 << 20,
        linger_s: float = 0.0,
        max_retries: int = 2,
        retry_backoff_s: float = 0.002,
        retry_backoff_cap_s: float = 0.05,
        policy: Optional[DegradationPolicy] = None,
        engine: Optional[str] = "serial",
        cpu_threads: int = 1,
        clock=time.monotonic,
        tracer=None,
        optimizer=None,
    ):
        if max_retries < 0:
            raise ReproError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff_s < 0 or retry_backoff_cap_s < 0:
            raise ReproError("retry backoff values must be >= 0")
        self._clock = clock
        self.tracer = resolve_tracer(tracer)
        self.queue = AdmissionQueue(
            max_requests=max_queue_requests, max_tuples=max_queue_tuples
        )
        self.scheduler = BatchingScheduler(
            max_batch_requests=max_batch_requests,
            max_batch_tuples=max_batch_tuples,
            split_tuples=split_tuples,
            spill_tuples=spill_tuples,
            linger_s=linger_s,
            clock=clock,
            tracer=tracer,
        )
        self._spill_dir = spill_dir
        self.spill_bytes_in_memory = spill_bytes_in_memory
        self.metrics = ServiceMetrics(clock=clock)
        self.policy = policy or DegradationPolicy()
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.retry_backoff_cap_s = retry_backoff_cap_s
        self._engine_spec = engine
        self._cpu_threads = cpu_threads
        self.optimizer = optimizer
        self._fpga: Dict[Tuple, FpgaPartitioner] = {}
        self._cpu: Dict[Tuple, CpuPartitioner] = {}
        self._sequence = 0
        self._sequence_lock = threading.Lock()
        self._dispatcher: Optional[threading.Thread] = None
        self._started = False
        self._stopped = False
        self._draining = False

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "PartitionService":
        """Start the dispatcher thread; idempotent."""
        if self._stopped:
            raise ReproError("service already stopped; build a new one")
        if not self._started:
            self._started = True
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop,
                name="partition-service-dispatcher",
                daemon=True,
            )
            self._dispatcher.start()
        return self

    def drain(self, timeout: Optional[float] = 30.0) -> None:
        """Graceful shutdown: refuse new work, finish admitted work.

        Three phases, in order:

        1. new :meth:`submit`/:meth:`submit_plan` calls raise
           :class:`ServiceDrainingError` immediately (a *clear* refusal
           — clients should fail over, not retry this instance);
        2. every already-admitted request runs to its normal terminal
           state (OK / TIMED_OUT / FAILED) and resolves its ticket;
        3. the dispatcher exits and the partitioner pools close.

        Idempotent, and :meth:`stop` afterwards is a no-op.  Used by
        ``repro serve`` and the gateway's SIGTERM handler.
        """
        if self._stopped:
            return
        self._draining = True
        if not self._started:
            self.stop(timeout)
            return
        # close() stops admission but leaves queued entries drainable;
        # the dispatch loop exits once the closed queue runs dry
        self.queue.close()
        assert self._dispatcher is not None
        self._dispatcher.join(timeout)
        self._stopped = True
        self._close_partitioners()

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` has begun refusing new work."""
        return self._draining

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        """Stop admitting, drain queued work, join the dispatcher."""
        if not self._started or self._stopped:
            self._stopped = True
            self.queue.close()
            self._close_partitioners()
            return
        self._stopped = True
        self.queue.close()
        assert self._dispatcher is not None
        self._dispatcher.join(timeout)
        self._close_partitioners()

    def _close_partitioners(self) -> None:
        for partitioner in self._fpga.values():
            partitioner.close()
        for partitioner in self._cpu.values():
            partitioner.close()
        self._fpga.clear()
        self._cpu.clear()

    def __enter__(self) -> "PartitionService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- client side ----------------------------------------------------

    def submit(
        self, request: PartitionRequest, raise_on_reject: bool = False
    ) -> PartitionTicket:
        """Admit ``request``; always returns a ticket immediately.

        A rejected request's ticket is already resolved with
        ``RequestStatus.REJECTED`` and a ``retry_after`` hint; with
        ``raise_on_reject=True`` a
        :class:`~repro.service.queue.QueueFullError` is raised instead.
        """
        if self._draining:
            raise ServiceDrainingError(
                "service is draining; new submissions are refused "
                "(in-flight work will still complete)"
            )
        if not self._started or self._stopped:
            raise ReproError("service is not running (use start() or `with`)")
        with self._sequence_lock:
            self._sequence += 1
            request_id = self._sequence
        ticket = PartitionTicket(request_id)
        decision = (
            self._decide(request) if self.optimizer is not None else None
        )
        now = self._clock()
        pending = _Pending(
            request=request,
            ticket=ticket,
            # overflow policy joins the signature: a coalesced kernel
            # call applies one policy to the whole batch.  So does the
            # optimizer decision — requests with different execution
            # plans (backend, pad strategy, isolation set) must not
            # share a kernel pass.
            signature=request_signature(request.config)
            + (request.on_overflow,)
            + ((decision.batch_token,) if decision is not None else ()),
            tuples=request.num_tuples,
            submitted_at=now,
            deadline_at=(
                now + request.deadline_s
                if request.deadline_s is not None
                else None
            ),
            decision=decision,
        )
        if self.tracer.enabled:
            span = self.tracer.start_span(
                "request",
                request_id=request_id,
                tuples=pending.tuples,
                priority=int(request.priority),
            )
            # anchor the root span at the submit timestamp from the
            # service clock, the clock every later stage measures with
            span.start_s = now
            pending.span = span
        self.metrics.increment("submitted")
        # counted before the queue publishes the request: the
        # dispatcher may complete it before offer() even returns, and
        # completed + failed + timed_out must never exceed admitted
        self.metrics.increment("admitted")
        if not self.queue.offer(pending, int(request.priority), pending.tuples):
            retry_after = self.queue.retry_after_hint()
            # undo the admission first: admitted + rejected never
            # overshoots submitted in between
            self.metrics.increment("admitted", -1)
            self.metrics.increment("rejected")
            if pending.span is not None:
                pending.span.set_attributes(status="rejected")
                pending.span.end(self._clock())
            if raise_on_reject:
                raise QueueFullError(len(self.queue), retry_after)
            ticket._resolve(
                PartitionResponse(
                    request_id=request_id,
                    status=RequestStatus.REJECTED,
                    retry_after=retry_after,
                )
            )
            return ticket
        self.metrics.set_gauge("queue_depth", len(self.queue))
        return ticket

    def submit_plan(
        self, request: "PlanRequest | object", raise_on_reject: bool = False
    ) -> PartitionTicket:
        """Admit a whole-query :class:`PlanRequest`; ticket immediately.

        A bare :class:`repro.plan.LogicalPlan` is accepted and wrapped
        with default priority/deadline.  Plan requests ride the same
        admission queue and dispatcher as partition requests but never
        coalesce (each carries a unique batch signature): batching,
        deadline enforcement and degradation accounting apply to the
        query as a unit.
        """
        if not isinstance(request, PlanRequest):
            request = PlanRequest(plan=request)
        if self._draining:
            raise ServiceDrainingError(
                "service is draining; new submissions are refused "
                "(in-flight work will still complete)"
            )
        if not self._started or self._stopped:
            raise ReproError("service is not running (use start() or `with`)")
        with self._sequence_lock:
            self._sequence += 1
            request_id = self._sequence
        ticket = PartitionTicket(request_id)
        now = self._clock()
        pending = _Pending(
            request=request,
            ticket=ticket,
            # unique per request: plan batches are solo by construction
            signature=("plan", request_id),
            tuples=request.num_tuples,
            submitted_at=now,
            deadline_at=(
                now + request.deadline_s
                if request.deadline_s is not None
                else None
            ),
        )
        if self.tracer.enabled:
            span = self.tracer.start_span(
                "request",
                request_id=request_id,
                tuples=pending.tuples,
                priority=int(request.priority),
                plan=request.plan.describe(),
            )
            span.start_s = now
            pending.span = span
        self.metrics.increment("submitted")
        self.metrics.increment("plans_submitted")
        self.metrics.increment("admitted")  # before publication, as in submit
        if not self.queue.offer(pending, int(request.priority), pending.tuples):
            retry_after = self.queue.retry_after_hint()
            # undo the admission first: admitted + rejected never
            # overshoots submitted in between
            self.metrics.increment("admitted", -1)
            self.metrics.increment("rejected")
            if pending.span is not None:
                pending.span.set_attributes(status="rejected")
                pending.span.end(self._clock())
            if raise_on_reject:
                raise QueueFullError(len(self.queue), retry_after)
            ticket._resolve(
                PartitionResponse(
                    request_id=request_id,
                    status=RequestStatus.REJECTED,
                    retry_after=retry_after,
                )
            )
            return ticket
        self.metrics.set_gauge("queue_depth", len(self.queue))
        return ticket

    def _decide(self, request: PartitionRequest):
        """Consult the optimizer for one request's execution plan.

        Planning failures fall back to the static path rather than
        failing the request — the optimizer is an accelerator, not a
        gatekeeper.
        """
        try:
            if isinstance(request.relation, Relation):
                keys = request.relation.keys
            else:
                keys = np.ascontiguousarray(
                    request.relation, dtype=np.uint32
                )
            # a reused stale "keep" on a raise-policy PAD request could
            # surface an overflow raise the optimizer exists to prevent
            # — force a fresh profile exactly there
            reuse = not (
                request.on_overflow == "raise"
                and request.config.output_mode is OutputMode.PAD
            )
            decision = self.optimizer.decide(
                keys, request.config, reuse=reuse
            )
        except Exception:  # noqa: BLE001 - static fallback by design
            return None
        self.metrics.increment("optimized")
        if decision.pad_strategy == "isolate":
            self.metrics.increment("isolated")
        elif decision.pad_strategy == "hist":
            self.metrics.increment("preempted_hist")
        return decision

    def snapshot(self) -> dict:
        """Service metrics plus the optimizer's decision/rate state."""
        snap = self.metrics.to_dict()
        if self.optimizer is not None:
            snap["optimizer"] = self.optimizer.snapshot()
        return snap

    def partition(
        self,
        relation: "Relation | np.ndarray",
        payloads: Optional[np.ndarray] = None,
        config: Optional[PartitionerConfig] = None,
        timeout: Optional[float] = None,
        **request_kwargs,
    ) -> PartitionResponse:
        """Blocking convenience wrapper: submit and wait for the result."""
        request = PartitionRequest(
            relation=relation,
            payloads=payloads,
            config=config or PartitionerConfig(),
            **request_kwargs,
        )
        return self.submit(request).result(timeout)

    # -- dispatcher -----------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            batches = self.scheduler.collect(self.queue, timeout=0.05)
            if not batches:
                if self.queue.closed and len(self.queue) == 0:
                    return
                continue
            self.metrics.set_gauge("queue_depth", len(self.queue))
            for batch in batches:
                try:
                    self._execute_batch(batch)
                except Exception as exc:  # noqa: BLE001 - keep dispatching
                    _LOG.exception(
                        "batch of %d requests raised", len(batch.entries)
                    )
                    self._fail_unresolved(batch, exc)

    def _fail_unresolved(self, batch: Batch, exc: Exception) -> None:
        """An unexpected error escaped a batch: resolve every ticket it
        left open ``FAILED`` so no client waits forever, and let the
        dispatcher carry on with the next batch."""
        self.metrics.set_gauge("inflight", 0)
        # a half-open probe the batch claimed never got an outcome
        self.policy.breaker.release_probe()
        unresolved = [e for e in batch.entries if not e.ticket.done()]
        if unresolved:
            self._resolve_failed(
                unresolved, attempts=1, error=f"{type(exc).__name__}: {exc}"
            )

    def _execute_batch(self, batch: Batch) -> None:
        now = self._clock()
        live: List[_Pending] = []
        for entry in batch.entries:
            if entry.deadline_at is not None and now > entry.deadline_at:
                self._resolve_timeout(entry, now)
            else:
                live.append(entry)
        if not live:
            return
        total_tuples = sum(entry.tuples for entry in live)
        self.metrics.set_gauge("inflight", total_tuples)
        for entry in live:
            self.metrics.observe("queue_wait", now - entry.submitted_at)
            if entry.span is not None:
                # retroactive: the wait was measured on service clocks
                self.tracer.record_span(
                    "queue_wait", entry.submitted_at, now, parent=entry.span
                )

        with self.tracer.span(
            "batch",
            requests=len(live),
            tuples=total_tuples,
            split=batch.split,
            spill=batch.spill,
        ):
            if isinstance(live[0].request, PlanRequest):
                # plan signatures are unique, so a plan batch is solo
                self._execute_plan(live[0])
            elif batch.spill:
                self._execute_spill(live)
            else:
                self._execute_live(batch, live, total_tuples)
        self.metrics.set_gauge("inflight", 0)

    def _execute_live(
        self, batch: Batch, live: List[_Pending], total_tuples: int
    ) -> None:
        """Backend selection + execution + resolution for live entries."""
        outputs: Optional[List[PartitionedOutput]] = None
        backend = "fpga"
        degraded = False
        degrade_reason: Optional[str] = None
        attempts = 0
        error: Optional[str] = None
        started = self._clock()
        # all entries of a batch share one decision (it is part of the
        # batch signature), so the head entry speaks for everyone
        decision = live[0].decision

        with self.tracer.span("execute") as exec_span:
            if decision is not None and decision.backend == "cpu":
                # optimizer-routed, not a degradation: the plan says
                # the CPU is the faster backend for this batch
                backend = "cpu"
                degrade_reason = "optimizer-routed"
                self.metrics.increment("routed_cpu", len(live))
                outputs, error = self._try_cpu(live)
            else:
                refusal = self.policy.admit_fpga(total_tuples)
                if refusal is None:
                    outputs, attempts, error = self._try_fpga(live, batch)
                    if outputs is None:
                        degrade_reason = error or "fpga-fault"
                else:
                    degrade_reason = refusal
                if outputs is None:
                    backend = "cpu"
                    degraded = True
                    self.metrics.increment("degraded", len(live))
                    outputs, error = self._try_cpu(live)
            exec_span.set_attributes(
                backend=backend,
                attempts=attempts,
                degraded=degraded,
                degrade_reason=degrade_reason,
            )
        execute_s = self._clock() - started
        if self.optimizer is not None and outputs is not None:
            self.optimizer.observe(backend, total_tuples, execute_s)

        with self.tracer.span("resolve", requests=len(live)):
            if outputs is None:
                self._resolve_failed(live, attempts, error)
            else:
                self._resolve_ok(
                    live, outputs, backend, degraded, degrade_reason,
                    attempts, execute_s, batch,
                )
                if execute_s > 0:
                    self.queue.note_drain_rate(total_tuples / execute_s)

    # -- backends -------------------------------------------------------

    def _try_fpga(
        self, live: List[_Pending], batch: Batch
    ) -> Tuple[Optional[List[PartitionedOutput]], int, Optional[str]]:
        """Run the batch on the FPGA model with bounded-backoff retry.

        Returns ``(outputs, attempts, error)``; ``outputs is None``
        means every attempt faulted (caller degrades to CPU).
        """
        partitioner = self._fpga_for(live[0])
        on_overflow: OverflowPolicy = live[0].request.on_overflow
        decision = live[0].decision
        isolate = (
            decision is not None
            and decision.pad_strategy == "isolate"
            and decision.isolate_keys
        )
        attempts = 0
        error: Optional[str] = None
        deadline = min(
            (e.deadline_at for e in live if e.deadline_at is not None),
            default=None,
        )
        for attempt in range(self.max_retries + 1):
            attempts += 1
            try:
                self.policy.before_fpga_call()
                if isolate:
                    from repro.optimize.isolation import partition_isolated

                    # heavy hitters go to dedicated regions; should the
                    # cold keys overflow anyway, degrade that entry to
                    # HIST accounting rather than raising at the client
                    outputs = [
                        partition_isolated(
                            partitioner,
                            entry.request.relation,
                            entry.request.payloads,
                            hot_keys=decision.isolate_keys,
                            on_overflow=(
                                "hist"
                                if entry.request.on_overflow == "raise"
                                else entry.request.on_overflow
                            ),
                        )
                        for entry in live
                    ]
                elif len(live) == 1:
                    outputs = [
                        partitioner.partition(
                            live[0].request.relation,
                            live[0].request.payloads,
                            on_overflow=on_overflow,
                        )
                    ]
                else:
                    outputs = partitioner.partition_many(
                        [entry.request.relation for entry in live],
                        [entry.request.payloads for entry in live],
                        on_overflow=on_overflow,
                    )
                self.policy.record_outcome(True)
                self.metrics.increment("fpga_invocations")
                return outputs, attempts, None
            except BackendFault as fault:
                self.policy.record_outcome(False)
                error = str(fault)
                if attempt == self.max_retries:
                    break
                backoff = min(
                    self.retry_backoff_cap_s,
                    self.retry_backoff_s * (2 ** attempt),
                )
                if (
                    deadline is not None
                    and self._clock() + backoff > deadline
                ):
                    break
                self.metrics.increment("retries")
                if backoff > 0:
                    time.sleep(backoff)
        return None, attempts, error

    def _try_cpu(
        self, live: List[_Pending]
    ) -> Tuple[Optional[List[PartitionedOutput]], Optional[str]]:
        """CPU (SWWC) failover path: solo calls, no coalescing."""
        partitioner = self._cpu_for(live[0])
        try:
            outputs = [
                partitioner.partition(
                    entry.request.relation, entry.request.payloads
                )
                for entry in live
            ]
        except Exception as exc:  # noqa: BLE001 - terminal failure path
            return None, f"{type(exc).__name__}: {exc}"
        self.metrics.increment("cpu_invocations")
        return outputs, None

    def _execute_spill(self, live: List[_Pending]) -> None:
        """Out-of-core path: stage to disk, stream, resolve with the
        spill handle.  Solo by construction (``Batch.spill`` batches
        hold one entry); failures resolve ``FAILED`` like any other
        terminal error."""
        started = self._clock()
        entry = live[0]
        try:
            with self.tracer.span("execute", backend="spill"):
                spill = self._run_spill(entry)
        except Exception as exc:  # noqa: BLE001 - terminal failure path
            self._resolve_failed(
                live, attempts=1, error=f"{type(exc).__name__}: {exc}"
            )
            return
        execute_s = self._clock() - started
        if self.optimizer is not None:
            self.optimizer.observe("spill", entry.tuples, execute_s)
        self.metrics.increment("spilled")
        with self.tracer.span("resolve", requests=1):
            now = self._clock()
            self.metrics.increment("completed")
            self.metrics.observe("execute", execute_s)
            self.metrics.observe("total", now - entry.submitted_at)
            if entry.span is not None:
                entry.span.set_attributes(
                    status="ok", backend="spill", batch_size=1
                )
                entry.span.end(now)
            entry.ticket._resolve(
                PartitionResponse(
                    request_id=entry.ticket.request_id,
                    status=RequestStatus.OK,
                    output=spill.to_output(),
                    backend="spill",
                    spill=spill,
                    attempts=1,
                    batch_size=1,
                    queue_wait_s=max(
                        0.0, now - execute_s - entry.submitted_at
                    ),
                    execute_s=execute_s,
                    total_s=now - entry.submitted_at,
                )
            )

    def _execute_plan(self, entry: _Pending) -> None:
        """Run one :class:`PlanRequest` through the fused executor.

        A fused failure degrades to the staged pipeline (recorded on
        the response, like the FPGA→CPU failover); a staged failure is
        terminal.
        """
        from repro.plan import execute_plan

        request: PlanRequest = entry.request
        started = self._clock()
        degraded = False
        degrade_reason: Optional[str] = None
        result = None
        error: Optional[str] = None
        with self.tracer.span("execute", backend="plan") as exec_span:
            try:
                result = execute_plan(
                    request.plan,
                    engine=self._engine_spec,
                    fused=request.fused,
                    tracer=self.tracer,
                    optimizer=self.optimizer,
                )
            except Exception as exc:  # noqa: BLE001 - degrade, then fail
                if request.fused:
                    degraded = True
                    degrade_reason = f"{type(exc).__name__}: {exc}"
                    try:
                        result = execute_plan(
                            request.plan,
                            engine=self._engine_spec,
                            fused=False,
                            tracer=self.tracer,
                            optimizer=self.optimizer,
                        )
                    except Exception as staged_exc:  # noqa: BLE001
                        error = f"{type(staged_exc).__name__}: {staged_exc}"
                else:
                    error = f"{type(exc).__name__}: {exc}"
            backend = (
                None if result is None
                else ("fused" if result.fused else "staged")
            )
            exec_span.set_attributes(
                backend=backend, degraded=degraded,
                degrade_reason=degrade_reason,
            )
        execute_s = self._clock() - started

        with self.tracer.span("resolve", requests=1):
            now = self._clock()
            if result is None:
                self._resolve_failed([entry], attempts=1, error=error)
                return
            self.metrics.increment("plans_completed")
            self.metrics.increment(
                "plans_fused" if result.fused else "plans_staged"
            )
            if degraded:
                self.metrics.increment("degraded")
            self.metrics.increment("completed")
            self.metrics.observe("execute", execute_s)
            self.metrics.observe("total", now - entry.submitted_at)
            if entry.span is not None:
                entry.span.set_attributes(
                    status="ok", backend=backend, degraded=degraded,
                    batch_size=1,
                )
                entry.span.end(now)
            entry.ticket._resolve(
                PartitionResponse(
                    request_id=entry.ticket.request_id,
                    status=RequestStatus.OK,
                    result=result,
                    backend=backend,
                    degraded=degraded,
                    degrade_reason=degrade_reason,
                    attempts=2 if degraded else 1,
                    batch_size=1,
                    queue_wait_s=max(
                        0.0, now - execute_s - entry.submitted_at
                    ),
                    execute_s=execute_s,
                    total_s=now - entry.submitted_at,
                )
            )

    def _spill_root(self):
        if self._spill_dir is None:
            import tempfile

            self._spill_dir = tempfile.mkdtemp(prefix="repro-spill-")
        import pathlib

        root = pathlib.Path(self._spill_dir)
        root.mkdir(parents=True, exist_ok=True)
        return root

    def _run_spill(self, entry: _Pending):
        """Stage one request into a store, spill-partition it, and
        return the :class:`~repro.storage.spill.PartitionSpill`."""
        from repro.core.modes import LayoutMode
        from repro.storage import RelationStore, SpillPartitioner

        request = entry.request
        root = self._spill_root()
        request_id = entry.ticket.request_id
        # VRID payloads are positions; the store generates exactly
        # those when no payload column is given.
        payloads = (
            None
            if request.config.layout_mode is LayoutMode.VRID
            else request.payloads
        )
        store = RelationStore.ingest(
            request.relation, root / f"store-{request_id}", payloads=payloads
        ).seal()
        spiller = SpillPartitioner(
            config=request.config,
            backend="fpga",
            engine=self._engine_spec,
            max_bytes_in_memory=self.spill_bytes_in_memory,
            tracer=self.tracer,
        )
        try:
            spill = spiller.run(
                store,
                root / f"run-{request_id}",
                # the spill path is already software; a requested "cpu"
                # fallback degenerates to the robust HIST accounting
                on_overflow=(
                    "hist"
                    if request.on_overflow == "cpu"
                    else request.on_overflow
                ),
            )
        finally:
            spiller.close()
        # the staging store is internal scratch: the partition files
        # hold all the data now, so drop it rather than leak 2x disk
        store.delete()
        return spill

    def _fpga_for(self, entry: _Pending) -> FpgaPartitioner:
        partitioner = self._fpga.get(entry.signature)
        if partitioner is None:
            config = entry.request.config
            if (
                entry.decision is not None
                and entry.decision.pad_strategy == "hist"
                and config.output_mode is OutputMode.PAD
            ):
                # the optimizer predicted this PAD run is doomed to
                # overflow: go straight to HIST accounting instead of
                # paying a failed PAD pass first.  Contents/counts are
                # identical across modes; the decision is part of the
                # signature, so the cache never mixes the two configs.
                config = dataclasses.replace(
                    config, output_mode=OutputMode.HIST
                )
            partitioner = FpgaPartitioner(
                config=config,
                engine=self._engine_spec,
                tracer=self.tracer,
            )
            self._fpga[entry.signature] = partitioner
        return partitioner

    def _cpu_for(self, entry: _Pending) -> CpuPartitioner:
        partitioner = self._cpu.get(entry.signature)
        if partitioner is None:
            partitioner = CpuPartitioner.matching(
                entry.request.config, threads=self._cpu_threads
            )
            self._cpu[entry.signature] = partitioner
        return partitioner

    # -- resolution -----------------------------------------------------

    def _resolve_timeout(self, entry: _Pending, now: float) -> None:
        self.metrics.increment("timed_out")
        self.metrics.observe("total", now - entry.submitted_at)
        if entry.span is not None:
            entry.span.set_attributes(status="timed-out")
            entry.span.end(now)
        entry.ticket._resolve(
            PartitionResponse(
                request_id=entry.ticket.request_id,
                status=RequestStatus.TIMED_OUT,
                queue_wait_s=now - entry.submitted_at,
                total_s=now - entry.submitted_at,
                error="deadline expired before execution",
            )
        )

    def _resolve_failed(
        self, live: List[_Pending], attempts: int, error: Optional[str]
    ) -> None:
        now = self._clock()
        self.metrics.increment("failed", len(live))
        for entry in live:
            self.metrics.observe("total", now - entry.submitted_at)
            if entry.span is not None:
                entry.span.set_attributes(status="failed", attempts=attempts)
                entry.span.end(now)
            entry.ticket._resolve(
                PartitionResponse(
                    request_id=entry.ticket.request_id,
                    status=RequestStatus.FAILED,
                    attempts=attempts,
                    total_s=now - entry.submitted_at,
                    error=error or "both backends failed",
                )
            )

    def _resolve_ok(
        self,
        live: List[_Pending],
        outputs: List[PartitionedOutput],
        backend: str,
        degraded: bool,
        degrade_reason: Optional[str],
        attempts: int,
        execute_s: float,
        batch: Batch,
    ) -> None:
        now = self._clock()
        self.metrics.observe_batch(len(live))
        if len(live) > 1:
            self.metrics.increment("coalesced_requests", len(live))
        if batch.split:
            self.metrics.increment("split_requests", len(live))
        self.metrics.increment("completed", len(live))
        self.metrics.observe("execute", execute_s)
        for entry, output in zip(live, outputs):
            total_s = now - entry.submitted_at
            self.metrics.observe("total", total_s)
            if entry.span is not None:
                entry.span.set_attributes(
                    status="ok",
                    backend=backend,
                    degraded=degraded,
                    batch_size=len(live),
                )
                entry.span.end(now)
            entry.ticket._resolve(
                PartitionResponse(
                    request_id=entry.ticket.request_id,
                    status=RequestStatus.OK,
                    output=output,
                    backend=backend,
                    degraded=degraded,
                    degrade_reason=degrade_reason,
                    attempts=attempts,
                    batch_size=len(live),
                    queue_wait_s=max(
                        0.0, now - execute_s - entry.submitted_at
                    ),
                    execute_s=execute_s,
                    total_s=total_s,
                )
            )
