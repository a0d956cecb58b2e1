"""The three workloads.

Each workload class follows one life cycle:

* ``generate()`` — build the seeded inputs (never timed);
* ``start(warm)`` — construct and start the program objects and make
  the first warm call; this, plus the program's import and the native
  kernel load, is what ``setup_s`` times (in a fresh process);
* ``run(seconds, result, rec)`` — the measured loop.  Every output is
  checked after its timer stops; ``rec`` is a
  :class:`spans.Recorder` on traced runs and ``None`` otherwise;
* ``close()``.

Why these three (see README.md for the full account): ``bulk`` is the
paper's own use, where the kernels do nearly all the work; ``stream``
exercises the TCP gateway and the service behind it, many 8,192-tuple
requests where per-request fixed cost counts; ``cluster`` exercises
routing, replication, the optimizer and spill handoff.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import gc
import itertools
import shutil
import tempfile
import time
from pathlib import Path
from typing import List

import numpy as np

import inputs
from check import Tally, digest, query_digest, require_ok
from harness import (Clock, Result, median, peak_rss_mib, reset_peak_rss,
                     tail)

from repro import kernels
from repro.core.modes import LayoutMode, OutputMode, PartitionerConfig
from repro.core.partitioner import FpgaPartitioner
from repro.workloads.relations import Relation

HIST_RID = (OutputMode.HIST, LayoutMode.RID)
PAD_VRID = (OutputMode.PAD, LayoutMode.VRID)


def config(fanout: int, modes) -> PartitionerConfig:
    return PartitionerConfig(
        num_partitions=fanout, output_mode=modes[0], layout_mode=modes[1]
    )


def latency_metrics(result: Result, samples_ms: List[float],
                    p50: float = None, note: str = "") -> None:
    """``p50_ms`` and ``p99_ms`` (or the highest percentile with ten
    samples beyond it, noted) over one operation's latencies;
    ``p50``, when given, replaces their median."""
    value, q = tail(samples_ms)
    result.put("p50_ms", median(samples_ms) if p50 is None else p50, "ms",
               len(samples_ms), note)
    result.put("p99_ms", value, "ms", len(samples_ms),
               "" if q >= 0.99 else f"p{q * 100:.0f}: too few samples for p99")


def service_counters(snapshot: dict) -> dict:
    counters = snapshot["counters"]
    return {k: counters[k] for k in ("rejected", "retries", "degraded")}


class Workload:
    name = ""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        #: a :class:`harness.SpeedProbe`, set before :meth:`run`
        self.speed = None

    def generate(self) -> None:
        raise NotImplementedError

    def start(self, warm: np.ndarray) -> None:
        raise NotImplementedError

    def run(self, seconds: float, result: Result, rec=None) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# bulk
# ----------------------------------------------------------------------

class Bulk(Workload):
    """One caller; 2^23-tuple relations (64 MiB with payloads) at
    fan-out 1024, HIST/RID and PAD/VRID calls alternating, interleaved
    with the fused join + group-by (2^21 uniform build, 2^22 Zipf-1.05
    probe, 512 partitions) for :data:`QUERY_SHARE` of the time."""

    name = "bulk"
    TUPLES = 1 << 23
    FANOUT = 1024
    BUILD = 1 << 21
    PROBE = 1 << 22
    QUERY_FANOUT = 512
    QUERY_ZIPF = 1.05
    QUERY_SHARE = 0.4

    def generate(self) -> None:
        gen = inputs.rng(self.seed, 1)
        self.relation = Relation(
            keys=inputs.uniform_keys(self.TUPLES, gen),
            payloads=inputs.uniform_payloads(self.TUPLES, gen),
        )
        build_keys = (gen.permutation(self.BUILD) + 1).astype(np.uint32)
        probe_keys = inputs.zipf_keys(
            self.PROBE, self.QUERY_ZIPF, self.BUILD, gen)
        self.build = Relation(
            keys=build_keys, payloads=np.arange(self.BUILD, dtype=np.uint32))
        self.probe = Relation(
            keys=probe_keys, payloads=np.arange(self.PROBE, dtype=np.uint32))

    def start(self, warm: np.ndarray) -> None:
        from repro.plan import join_groupby_query
        from repro.plan import executor

        self.executor = executor
        self.configs = [config(self.FANOUT, HIST_RID),
                        config(self.FANOUT, PAD_VRID)]
        self.partitioners = [FpgaPartitioner(c) for c in self.configs]
        for partitioner in self.partitioners:
            partitioner.partition(warm, on_overflow="hist")
        self.query_config = config(self.QUERY_FANOUT, HIST_RID)
        warm_rel = Relation(keys=warm, payloads=np.arange(
            warm.shape[0], dtype=np.uint32))
        executor.execute_plan(join_groupby_query(
            warm_rel, warm_rel, config=self.query_config))

    def run(self, seconds, result, rec=None) -> None:
        from repro.plan import join_groupby_query

        plan = join_groupby_query(
            self.build, self.probe, aggregate="sum",
            config=self.query_config, on_overflow="hist")
        part_clock, query_clock = Clock(), Clock()
        # call times (ms) per configuration, as measured and at the
        # reference host's speed (host slowness sampled after each call)
        latencies, scaled = [[], []], [[], []]
        seen = [[], []]  # output digests per configuration
        answers = []  # query-result digests
        query_s, query_scaled = [], []
        calls = 0
        while part_clock.seconds + query_clock.seconds < seconds:
            spent = part_clock.seconds + query_clock.seconds
            if calls and query_clock.seconds <= self.QUERY_SHARE * spent:
                with query_clock:
                    answer = self.executor.execute_plan(plan)
                query_s.append(query_clock.last)
                query_scaled.append(query_clock.last / self.speed())
                answers.append(query_digest(answer))
                del answer
                continue
            k = calls % 2
            with part_clock:
                out = self.partitioners[k].partition(
                    self.relation, on_overflow="hist")
            latencies[k].append(part_clock.last * 1e3)
            scaled[k].append(part_clock.last * 1e3 / self.speed())
            calls += 1
            seen[k].append(digest(out))
            del out
        result.put("peak_rss_mib", peak_rss_mib(), "MiB")
        queries = len(answers)

        # references, after the loop and once per process: the NumPy
        # kernel backend (the byte-identical fallback) and the staged
        # operator chain
        if not hasattr(self, "refs"):
            with _paused(rec):
                with kernels.using_backend("numpy"):
                    self.refs = [digest(FpgaPartitioner(c).partition(
                        self.relation, on_overflow="hist"))
                        for c in self.configs]
                self.query_ref = query_digest(
                    self.executor.execute_plan(plan, fused=False))
        tally = Tally()
        for k, digests in enumerate(seen):
            for d in digests:
                tally.record(d == self.refs[k], self.configs[k].mode_label)
        for d in answers:
            tally.record(d == self.query_ref, "query rows")
        result.attempted += tally.attempted
        result.failed += tally.failed
        # rates from each configuration's median call, robust to a
        # neighbour's burst; one pooled median would sit in whichever
        # configuration's cluster the call count's parity picks
        medians = [median(times) for times in scaled]
        raw = [median(times) for times in latencies]
        result.put("mtps", 2 * self.TUPLES / sum(medians) / 1e3,
                   "Mt/s", calls)
        result.put("mtps.raw", 2 * self.TUPLES / sum(raw) / 1e3,
                   "Mt/s", calls)
        result.put("query_mtps",
                   (self.BUILD + self.PROBE) / median(query_scaled) / 1e6,
                   "Mt/s", queries)
        latency_metrics(result, scaled[0] + scaled[1],
                        p50=sum(medians) / 2,
                        note="mean of the two configurations' medians")
        result.put("p50_ms.raw", sum(raw) / 2, "ms", calls)
        result.details.update(
            partition_calls=calls, queries=queries,
            median_call_ms={c.mode_label: m
                            for c, m in zip(self.configs, raw)},
            query_s=query_s,
            failures=tally.reasons,
            measured_s=part_clock.seconds + query_clock.seconds)
        if rec is not None:
            plan_stat = rec.stat("plan.execute")
            result.put("plan.self_ms",
                       plan_stat.self_ns / max(1, plan_stat.calls) / 1e6, "ms")
        self.ops = calls + queries
        self.measured_s = part_clock.seconds + query_clock.seconds


# ----------------------------------------------------------------------
# stream
# ----------------------------------------------------------------------

#: per-stream send/arrival stamps by chunk sequence number; the
#: client's receive task inherits the context of the task that opened
#: the stream, so each stream stamps its own dict
_STAMPS: contextvars.ContextVar = contextvars.ContextVar("stamps")
#: a round of two streams that takes longer than this has hung
ROUND_TIMEOUT_S = 60.0


def _stamp_hooks():
    """Wrap the client's DATA encoder and CHUNK decoder (public module
    functions) to stamp each chunk's departure and return."""
    from repro.gateway import protocol

    encode, decode = protocol.encode_data, protocol.decode_chunk

    def encode_data(seq, *args, **kwargs):
        stamps = _STAMPS.get(None)
        if stamps is not None:
            stamps[0][seq] = time.perf_counter()
        return encode(seq, *args, **kwargs)

    def decode_chunk(*args, **kwargs):
        decoded = decode(*args, **kwargs)
        stamps = _STAMPS.get(None)
        if stamps is not None:
            stamps[1][decoded[0]] = time.perf_counter()
        return decoded

    protocol.encode_data, protocol.decode_chunk = encode_data, decode_chunk

    def restore():
        protocol.encode_data, protocol.decode_chunk = encode, decode

    return restore


@contextlib.contextmanager
def _service_responses():
    """Collect ``(queue_wait_s, execute_s, batch_size)`` of every
    response the gateway waits for (``PartitionTicket.result``, looked
    up per call), for the service's per-layer metrics."""
    from repro.service.service import PartitionTicket

    wait = PartitionTicket.result
    responses = []

    def result(ticket, *args, **kwargs):
        response = wait(ticket, *args, **kwargs)
        responses.append((response.queue_wait_s, response.execute_s,
                          response.batch_size))
        return response

    PartitionTicket.result = result
    try:
        yield responses
    finally:
        PartitionTicket.result = wait


def service_metrics(result: Result, responses) -> None:
    """The service's queue wait, execution time and batch size, from the
    public fields of the responses it returned."""
    queue_wait = [r[0] * 1e3 for r in responses]
    execute = [r[1] * 1e3 for r in responses]
    result.put("service.queue_wait_ms.p50", median(queue_wait), "ms",
               len(queue_wait))
    result.put("service.queue_wait_ms.p99", tail(queue_wait)[0], "ms",
               len(queue_wait))
    result.put("service.execute_ms.p50", median(execute), "ms",
               len(execute))
    result.put("service.batch_size.mean",
               float(np.mean([r[2] for r in responses]))
               if responses else 0.0, "count")


class Stream(Workload):
    """Two concurrent TCP streams through one gateway over one service:
    2^22 Zipf-1.1 tuples with payloads each, 8,192-tuple chunks, one
    HIST/RID and one PAD/VRID stream (``on_overflow="hist"``)."""

    name = "stream"
    TUPLES = 1 << 22
    CHUNK = 8192
    FANOUT = 256
    ZIPF = 1.1

    def generate(self) -> None:
        self.relations = []
        for index in range(2):
            gen = inputs.rng(self.seed, 4, index)
            keys = inputs.zipf_keys(self.TUPLES, self.ZIPF, self.TUPLES, gen)
            self.relations.append((keys, inputs.uniform_payloads(
                self.TUPLES, gen)))

    def start(self, warm: np.ndarray) -> None:
        from repro.gateway import GatewayServer
        from repro.service import PartitionService

        self.configs = [config(self.FANOUT, HIST_RID),
                        config(self.FANOUT, PAD_VRID)]
        self.loop = asyncio.new_event_loop()
        self.restore_hooks = _stamp_hooks()
        self.service = PartitionService(max_queue_requests=2048).start()
        self.server = GatewayServer(
            service=self.service, chunk_tuples=self.CHUNK,
            drain_backend=True)
        self.loop.run_until_complete(self.server.start())
        pays = np.arange(warm.shape[0], dtype=np.uint32)
        for outcome in self.loop.run_until_complete(
                self._round([(warm, pays)] * 2)):
            if isinstance(outcome, Exception):
                raise outcome

    def close(self) -> None:
        try:
            self.loop.run_until_complete(self.server.drain())
        finally:
            self.restore_hooks()
            self.loop.close()

    async def _round(self, relations):
        """Both streams at once, one connection each; a stream that
        fails returns its exception."""
        return await asyncio.gather(*[
            self._stream(k, p, c)
            for c, (k, p) in zip(self.configs, relations)],
            return_exceptions=True)

    async def _stream(self, keys, pays, cfg):
        from repro.gateway import GatewayClient
        from repro.gateway.chunking import iter_chunks

        stamps = ({}, {})
        _STAMPS.set(stamps)
        client = await GatewayClient.connect("127.0.0.1", self.server.port)
        try:
            stream = await client.open_stream(
                cfg, on_overflow="hist", has_payloads=True)
            for chunk_keys, chunk_pays in iter_chunks(keys, pays, self.CHUNK):
                await stream.send(chunk_keys, chunk_pays)
            output = await stream.finish()
        finally:
            await client.close()
        sent, back = stamps
        rtts = [(back[s] - sent[s]) * 1e3 for s in sent if s in back]
        return output, rtts, len(stream.stalls)

    def run(self, seconds, result, rec=None) -> None:
        clock = Clock()
        # chunk round trips (ms) and round times as measured, and at the
        # reference host's speed: divided by the mean of the host
        # slowness sampled right before and right after the round
        rtts: List[float] = []
        raw_rtts: List[float] = []
        seen = [[], []]  # output digests per stream
        round_s, scaled_s = [], []
        # peak resident memory per round; each round is reset first
        peaks = []
        stalls = rounds = 0
        with (_service_responses() if rec is not None
              else contextlib.nullcontext([])) as responses:
            while clock.seconds < seconds:
                before = self.speed(3)
                reset_peak_rss()
                with clock:
                    outcomes = self.loop.run_until_complete(
                        asyncio.wait_for(self._round(self.relations),
                                         ROUND_TIMEOUT_S))
                slow = (before + self.speed(3)) / 2
                round_s.append(clock.last)
                scaled_s.append(clock.last / slow)
                peaks.append(peak_rss_mib())
                rounds += 1
                for index, outcome in enumerate(outcomes):
                    if isinstance(outcome, Exception):
                        # an error, never equal to a digest
                        seen[index].append(repr(outcome))
                        continue
                    output, chunk_rtts, stalled = outcome
                    rtts.extend(t / slow for t in chunk_rtts)
                    raw_rtts.extend(chunk_rtts)
                    stalls += stalled
                    seen[index].append(digest(output))
                    del output
                # free the round's outputs (the client's stream objects sit
                # in reference cycles) before the next round, so the peak
                # does not depend on when the collector happens to run
                del outcomes, outcome
                gc.collect()
        # the median round's peak: which of the two streams' outputs and
        # buffers coexist at a round's high point depends on thread
        # timing, so single rounds peak about 25 MiB apart
        result.put("peak_rss_mib", median(peaks), "MiB", len(peaks))
        result.details["round_peak_rss_mib"] = peaks
        if not hasattr(self, "refs"):  # once per process
            with _paused(rec):
                self.refs = [
                    digest(FpgaPartitioner(cfg).partition(
                        keys, pays, on_overflow="hist"))
                    for cfg, (keys, pays) in zip(self.configs, self.relations)
                ]
        tally = Tally()
        for digests, ref, cfg in zip(seen, self.refs, self.configs):
            for d in digests:
                tally.record(d == ref, d if isinstance(d, str)
                             else cfg.mode_label)
        result.attempted += tally.attempted
        result.failed += tally.failed
        streams = 2 * rounds
        result.put("mtps", 2 * self.TUPLES / median(scaled_s) / 1e6,
                   "Mt/s", rounds)
        result.put("mtps.raw", 2 * self.TUPLES / median(round_s) / 1e6,
                   "Mt/s", rounds)
        latency_metrics(result, rtts)
        result.put("p50_ms.raw", median(raw_rtts), "ms", len(raw_rtts))
        result.put("gateway.credit_stalls", stalls, "count")
        for key, value in service_counters(self.service.snapshot()).items():
            result.put(f"service.{key}", value, "count")
        chunks = streams * (self.TUPLES // self.CHUNK)
        if rec is not None:
            service_metrics(result, responses)
            for span, metric in (("gateway.codec", "codec_us_per_chunk"),
                                 ("gateway.accounting",
                                  "accounting_us_per_chunk")):
                result.put(f"gateway.{metric}",
                           rec.stat(span).total_ns / chunks / 1e3, "us")
            result.put("gateway.finalize_ms",
                       rec.stat("gateway.finalize").total_ns / streams / 1e6,
                       "ms")
        result.details.update(rounds=rounds, failures=tally.reasons,
                              round_s=round_s, measured_s=clock.seconds)
        self.ops = chunks
        self.measured_s = clock.seconds


# ----------------------------------------------------------------------
# cluster
# ----------------------------------------------------------------------

class Cluster(Workload):
    """One caller, closed loop, through a 2-shard router with default
    replication and an attached optimizer.  Requests are log-uniform
    2^14..2^19 Zipf-1.2 tuples; HIST/RID and PAD/VRID alternate.  The
    timed loop runs whole rounds of :data:`ROUND` requests.

    After it, one *pressure round* of the same mix goes through a second
    router whose shards hand jobs above :data:`HANDOFF_TUPLES` tuples
    (about a tenth of shard jobs) to a peer through ``storage.spill``.
    A handoff fsyncs its run files: on a shared disk it costs as much as
    a whole round of in-memory routing and its latency follows the disk,
    so inside the timed loop it made ``mtps`` swing by 30% from run to
    run.  The pressure round's outputs are checked like every other,
    and its numbers are reported (``storage.*``, the record's details)
    but not gated."""

    name = "cluster"
    SHARDS = 2
    FANOUT = 64
    ZIPF = 1.2
    POOL = 1 << 21
    MIN_TUPLES, MAX_TUPLES = 1 << 14, 1 << 19
    HANDOFF_TUPLES = 200_000
    MODES = (HIST_RID, PAD_VRID)
    #: requests per round; a run measures whole rounds, each with the
    #: same multiset of sizes
    ROUND = 48

    def generate(self) -> None:
        self.pool = inputs.zipf_keys(
            self.POOL, self.ZIPF, self.POOL, inputs.rng(self.seed, 5))

    def start(self, warm: np.ndarray) -> None:
        from repro.cluster import ShardRouter
        from repro.optimize import AdaptiveOptimizer

        self.configs = [config(self.FANOUT, m) for m in self.MODES]
        self.references = [FpgaPartitioner(c) for c in self.configs]
        self.root = Path(tempfile.mkdtemp(prefix="cluster-",
                                          dir=self.scratch))
        self.router = ShardRouter(
            self.SHARDS, optimizer=AdaptiveOptimizer(),
            storage_root=self.root / "routed",
        ).start()
        self.pressure = ShardRouter(
            self.SHARDS, optimizer=AdaptiveOptimizer(),
            handoff_tuples=self.HANDOFF_TUPLES,
            storage_root=self.root / "pressure",
        ).start()
        for router in (self.router, self.pressure):
            for cfg in self.configs:
                require_ok(router.partition(
                    warm, config=cfg, on_overflow="hist"))

    def close(self) -> None:
        try:
            self.router.stop()
            self.pressure.stop()
        finally:
            shutil.rmtree(self.root, ignore_errors=True)

    def _round(self, router, gen, tally, rec, clock=None) -> dict:
        """One round through ``router``; each request's output is
        checked after its timer stops."""
        sizes = inputs.log_uniform_sizes(
            self.ROUND, self.MIN_TUPLES, self.MAX_TUPLES, gen)
        starts = gen.integers(0, self.POOL - sizes + 1)
        clock = clock or Clock()
        before = clock.seconds
        slow_before = self.speed(3)
        out = {"latencies": [], "replicated": 0, "failovers": 0}
        for i, (start, size) in enumerate(zip(starts, sizes)):
            keys = self.pool[start:start + size]
            k = i % 2
            with clock:
                response = router.partition(
                    keys, config=self.configs[k], on_overflow="hist")
            out["latencies"].append(clock.last * 1e3)
            ok = response.ok
            if ok:
                with _paused(rec):
                    ref = self.references[k].partition(
                        keys, on_overflow="hist")
                    ok = digest(response.output) == digest(ref)
            tally.record(ok, response.error or self.configs[k].mode_label)
            out["replicated"] += response.replicated_partitions
            out["failovers"] += response.failovers
            del response
        out["mtps"] = sizes.sum() / (clock.seconds - before) / 1e6
        # the same at the reference host's speed: divided by the mean of
        # the host slowness sampled right before and right after the
        # round
        slow = (slow_before + self.speed(3)) / 2
        out["scaled"] = [t / slow for t in out["latencies"]]
        out["scaled_mtps"] = out["mtps"] * slow
        return out

    @staticmethod
    def _counts(router) -> tuple:
        """(shard jobs, handoffs) so far."""
        return (sum(n.stats.requests for n in router.nodes),
                sum(n.stats.handoffs_out for n in router.nodes))

    def run(self, seconds, result, rec=None) -> None:
        clock = Clock()
        tally = Tally()
        # request latencies and round rates as measured and at the
        # reference host's speed
        latencies, round_mtps = [], []
        scaled, scaled_mtps = [], []
        replicated = failovers = 0
        for round_ in itertools.count():
            if clock.seconds >= seconds:
                break
            out = self._round(self.router, inputs.rng(self.seed, 6, round_),
                              tally, rec, clock)
            latencies.extend(out["latencies"])
            round_mtps.append(out["mtps"])
            scaled.extend(out["scaled"])
            scaled_mtps.append(out["scaled_mtps"])
            replicated += out["replicated"]
            failovers += out["failovers"]
        result.put("peak_rss_mib", peak_rss_mib(), "MiB")
        # every round offers the same multiset of sizes
        result.put("mtps", median(scaled_mtps), "Mt/s", len(round_mtps))
        result.put("mtps.raw", median(round_mtps), "Mt/s", len(round_mtps))
        latency_metrics(result, scaled)
        result.put("p50_ms.raw", median(latencies), "ms", len(latencies))

        jobs0, handoffs0 = self._counts(self.pressure)
        pressure = self._round(self.pressure, inputs.rng(self.seed, 7),
                               tally, rec)
        jobs, handoffs = (now - then for now, then in zip(
            self._counts(self.pressure), (jobs0, handoffs0)))
        result.attempted += tally.attempted
        result.failed += tally.failed

        requests = len(latencies)
        snapshot = self.router.snapshot()
        loads = np.array([s["shard"]["tuples"]
                          for s in snapshot["shards"].values()], float)
        result.put("cluster.load_imbalance",
                   loads.max() / loads.mean() if loads.mean() else 1.0,
                   "ratio")
        result.put("cluster.replicated_partitions",
                   replicated / max(1, requests), "count")
        result.put("cluster.failovers", failovers, "count")
        result.put("storage.handoffs", handoffs, "count")
        totals = {"rejected": 0, "retries": 0, "degraded": 0}
        for router in (self.router, self.pressure):
            for shard in router.snapshot()["shards"].values():
                for key, value in service_counters(shard).items():
                    totals[key] += value
        for key, value in totals.items():
            result.put(f"service.{key}", value, "count")
        if rec is not None:
            profile = rec.stat("optimize.profile")
            observe = rec.stat("optimize.observe")
            # both routers profile every request they route
            routed = requests + len(pressure["latencies"])
            result.put("optimize.us_per_request",
                       (profile.total_ns + observe.total_ns)
                       / max(1, routed) / 1e3, "us")
            isolated = [len(p.isolation_keys(self.FANOUT))
                        for p in profile.results]
            result.put("optimize.isolated",
                       float(np.mean(isolated)) if isolated else 0.0,
                       "count")
            handoff = rec.stat("storage.handoff")
            result.put("storage.spill_mtps",
                       handoff.tuples / max(handoff.total_ns, 1) * 1e3,
                       "Mt/s")
            result.put("storage.bytes_written_per_tuple",
                       handoff.io_bytes / max(1, handoff.tuples), "B")
        result.details.update(
            requests=requests, round_mtps=round_mtps,
            pressure={
                "requests": len(pressure["latencies"]),
                "mtps": pressure["mtps"],
                "p50_ms": median(pressure["latencies"]),
                "max_ms": max(pressure["latencies"]),
                "shard_jobs": jobs, "handoffs": handoffs,
                "handoff_share": handoffs / max(1, jobs),
            },
            failures=tally.reasons, measured_s=clock.seconds)
        self.ops = requests
        self.measured_s = clock.seconds


def _paused(rec):
    """Suspend span recording around reference work and checks."""
    return rec.pause() if rec is not None else contextlib.nullcontext()


WORKLOADS = {w.name: w for w in (Bulk, Stream, Cluster)}
