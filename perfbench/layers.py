"""Per-layer numbers for traced runs: span-derived costs, the layer
waterfall, and the host roofline.

Waterfall: one request at a time through each layer of the chain
kernel pair → ``partition()`` → ``PartitionService`` → ``ShardRouter``
/ ``GatewayServer``, at sizes from 8 KiB to 32 MiB of keys (2^11 to
2^23 tuples), fitted to ``t(n) = a + b·n``.  A layer's cost is its fit
minus the fit of the layer it calls: ``partition()`` minus the kernel
pair, the service minus ``partition()``, and the router and the
gateway each minus the service.  The fit weighs each size by
``1/t(n)`` so small and large requests count alike.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

import inputs
from check import require_ok
from harness import Result, median

#: 8 KiB .. 32 MiB of uint32 keys
SIZES = tuple(1 << s for s in (11, 13, 15, 17, 19, 21, 23))
#: wall time spent per (layer, size) point
POINT_BUDGET_S = 0.25
MIN_REPS, MAX_REPS = 3, 200
FANOUT = 256
#: the ROADMAP's anchors at 8,192 tuples and fan-out 256 (µs)
ANCHORS = {"core": (140.0, 160.0), "service": (260.0, 430.0)}


def span_metrics(rec, result: Result, ops: int, measured_s: float) -> None:
    """Kernel and core metrics from a traced run's spans."""
    for name in ("hash_histogram", "stable_scatter", "bucket_build",
                 "bucket_probe"):
        stat = rec.stat(f"kernels.{name}")
        result.put(f"kernels.{name}.ns_per_tuple",
                   stat.total_ns / stat.tuples if stat.tuples else 0.0, "ns")
    kernel_ns = rec.kernel_ns()
    kernel_bytes = sum(rec.stat(f"kernels.{n}").nbytes for n in (
        "hash_histogram", "stable_scatter", "bucket_build", "bucket_probe"))
    result.put("kernels.gbps", kernel_bytes / kernel_ns if kernel_ns else 0.0,
               "GB/s")
    result.put("kernels.share", kernel_ns / 1e9 / measured_s, "ratio")
    result.put("kernels.calls_per_op", rec.kernel_calls() / max(1, ops),
               "count")
    core = rec.stat("core.partition")
    result.put("core.glue_us", core.self_ns / max(1, core.calls) / 1e3, "us")


# ----------------------------------------------------------------------
# Waterfall
# ----------------------------------------------------------------------

def _time_point(fn, keys, pays) -> float:
    """Median seconds of one request of ``len(keys)`` tuples."""
    times = []
    deadline = time.perf_counter() + POINT_BUDGET_S
    while len(times) < MIN_REPS or (
            len(times) < MAX_REPS and time.perf_counter() < deadline):
        start = time.perf_counter()
        fn(keys, pays)
        times.append(time.perf_counter() - start)
    return median(times)


def fit(sizes, seconds) -> tuple:
    """``(a_us, b_ns)`` of ``t(n) = a + b·n``, relative-error weighted."""
    t = np.asarray(seconds)
    b, a = np.polyfit(np.asarray(sizes, float), t, 1, w=1.0 / t)
    return a * 1e6, b * 1e9


class _Chain:
    """The layer objects the waterfall times, built once."""

    def __init__(self, scratch: Path):
        from repro.core.modes import PartitionerConfig
        from repro.core.partitioner import FpgaPartitioner

        self.cfg = PartitionerConfig(num_partitions=FANOUT)
        self.partitioner = FpgaPartitioner(self.cfg)
        self.scratch = scratch
        self._closers = []

    def kernels(self, keys, pays):
        from repro import kernels

        cfg = self.cfg
        parts, counts, _ = kernels.hash_histogram(
            keys, cfg.num_partitions, cfg.uses_hash, lanes=cfg.num_lanes)
        base = np.zeros(cfg.num_partitions, dtype=np.int64)
        np.cumsum(counts[:-1], out=base[1:])
        out_k = np.empty_like(keys)
        out_p = np.empty_like(pays)
        kernels.stable_scatter(keys, pays, parts, base, cfg.num_partitions,
                               out_k, out_p)

    def core(self, keys, pays):
        self.partitioner.partition(keys, pays)

    def service(self, keys, pays):
        if not hasattr(self, "_service"):
            from repro.service import PartitionService

            self._service = PartitionService().start()
            self._closers.append(self._service.stop)
        response = self._service.partition(keys, pays, config=self.cfg,
                                           timeout=120)
        require_ok(response)

    def cluster(self, keys, pays):
        if not hasattr(self, "_router"):
            from repro.cluster import ShardRouter

            root = Path(tempfile.mkdtemp(prefix="waterfall-",
                                         dir=self.scratch))
            self._router = ShardRouter(2, storage_root=root).start()
            self._closers.append(self._router.stop)
            self._closers.append(
                lambda: shutil.rmtree(root, ignore_errors=True))
        response = self._router.partition(keys, pays, config=self.cfg)
        require_ok(response)

    def gateway(self, keys, pays):
        if not hasattr(self, "_loop"):
            from repro.gateway import GatewayServer
            from repro.service import PartitionService

            self._loop = asyncio.new_event_loop()
            service = PartitionService(max_queue_requests=2048).start()
            self._server = GatewayServer(service=service, chunk_tuples=8192,
                                         drain_backend=True)
            self._loop.run_until_complete(self._server.start())

            def close():
                try:
                    self._loop.run_until_complete(self._server.drain())
                finally:
                    self._loop.close()

            self._closers.append(close)
        from repro.gateway import stream_partition

        self._loop.run_until_complete(stream_partition(
            "127.0.0.1", self._server.port, keys, pays, config=self.cfg,
            chunk_tuples=8192))

    def close(self) -> None:
        while self._closers:
            self._closers.pop()()


#: which layers each workload's traced run puts through the waterfall,
#: and the layer below each one
CHAINS = {
    "bulk": ("kernels", "core"),
    "cluster": ("kernels", "core", "service", "cluster"),
    "stream": ("kernels", "core", "service", "gateway"),
}
BELOW = {"core": "kernels", "service": "core", "cluster": "service",
         "gateway": "service"}


def waterfall(workload: str, seed: int, result: Result,
              scratch: Path) -> dict:
    """Fit every layer in the workload's chain; puts
    ``<layer>.fixed_us`` / ``<layer>.ns_per_tuple`` (own minus below)
    and the 8,192-tuple anchors, returns the raw fits."""
    gen = inputs.rng(seed, 7)
    keys_all = inputs.uniform_keys(SIZES[-1], gen)
    pays_all = inputs.uniform_payloads(SIZES[-1], gen)
    chain = _Chain(scratch)
    raw = {}
    try:
        for layer in CHAINS[workload]:
            fn = getattr(chain, layer)
            fn(keys_all[:SIZES[0]], pays_all[:SIZES[0]])  # build + warm
            times = [_time_point(fn, keys_all[:n], pays_all[:n])
                     for n in SIZES]
            a_us, b_ns = fit(SIZES, times)
            raw[layer] = {"fixed_us": a_us, "ns_per_tuple": b_ns,
                          "median_us": [t * 1e6 for t in times]}
    finally:
        chain.close()
    for layer, below in BELOW.items():
        if layer in raw:
            result.put(f"{layer}.fixed_us",
                       raw[layer]["fixed_us"] - raw[below]["fixed_us"], "us")
            result.put(f"{layer}.ns_per_tuple",
                       raw[layer]["ns_per_tuple"]
                       - raw[below]["ns_per_tuple"], "ns")
    anchor_index = SIZES.index(8192)
    anchors = {}
    for layer, (low, high) in ANCHORS.items():
        if layer in raw:
            value = raw[layer]["median_us"][anchor_index]
            result.put(f"{layer}.t8192_us", value, "us")
            anchors[layer] = {"measured_us": value, "range_us": [low, high],
                              "within": low <= value <= high}
    return {"sizes": list(SIZES), "layers": raw, "anchors": anchors}


# ----------------------------------------------------------------------
# Roofline
# ----------------------------------------------------------------------

def roofline(result: Result, seed: int) -> dict:
    """STREAM-style copy and partition-scatter bandwidth of the host,
    next to the Section 4.6 model for the ``bulk`` configurations.
    Context numbers only; none of them is gated."""
    from repro.core.model import FpgaCostModel
    from repro.core.modes import LayoutMode, OutputMode, PartitionerConfig

    n = 1 << 23  # 32 MiB per uint32 column, far above the LLC
    gen = inputs.rng(seed, 8)
    src = inputs.uniform_keys(n, gen)
    dst = np.empty_like(src)
    order = np.argsort(src >> np.uint32(22), kind="stable")  # 1024 bins
    best_copy = best_scatter = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        np.copyto(dst, src)
        best_copy = min(best_copy, time.perf_counter() - start)
        start = time.perf_counter()
        dst[order] = src
        best_scatter = min(best_scatter, time.perf_counter() - start)
    copy_gbps = 2 * src.nbytes / best_copy / 1e9
    scatter_gbps = (2 * src.nbytes + order.nbytes) / best_scatter / 1e9
    result.put("host.copy_gbps", copy_gbps, "GB/s")
    result.put("host.scatter_gbps", scatter_gbps, "GB/s")

    model = FpgaCostModel()
    modes = {}
    for out_mode, layout in ((OutputMode.HIST, LayoutMode.RID),
                             (OutputMode.PAD, LayoutMode.VRID)):
        cfg = PartitionerConfig(num_partitions=1024, output_mode=out_mode,
                                layout_mode=layout)
        r = cfg.read_write_ratio()
        modes[cfg.mode_label] = {
            "model_mtps": model.predict(cfg, 1 << 23).mtuples_per_second,
            # the same Equation 6 with this host's copy bandwidth
            "host_memory_roof_mtps":
                copy_gbps * 1e9 / (cfg.tuple_bytes * (r + 1.0)) / 1e6,
        }
    return {"copy_gbps": copy_gbps, "scatter_gbps": scatter_gbps,
            "bulk_configs": modes}
