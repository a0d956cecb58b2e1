"""The partitioning stack's benchmark: one command, three workloads.

Run one workload::

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload untraced for a quarter of the time, with spans recorded
around the program's public functions for half, and untraced again
for a quarter, then the layer waterfall and the host roofline, and
reports the per-layer metrics.  The last line of stdout
is the one-line JSON result; the lines before it are the same numbers
for people, plus the workload-specific metrics.  Every run also writes
its full record (provenance included) to ``--out``, and a traced run
its spans, one JSON object per line.

Run every workload, each in a fresh process::

    python3 perfbench/run.py --all --seed 1 --seconds 20 --out runs/a

Compare two sets of runs::

    python3 perfbench/run.py compare runs/a runs/b

See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
#: a workload still running after this long has hung: dump every
#: thread's stack and exit non-zero, with no result
DEADLINE_S = 170


def _prepare_environment() -> Path:
    """Point imports at the checkout's sources and keep every file the
    program writes (kernel build, temp files) inside the checkout."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {ROOT / 'src'}; "
                 "run from a full checkout")
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from harness import BUILD, KERNEL_CACHE

    os.environ["REPRO_KERNELS_CACHE"] = str(KERNEL_CACHE)
    scratch = BUILD / "tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    return scratch


def _setup_probe(workload: str, seed: int) -> None:
    """Child process: time import + kernel load + start + warm call."""
    import inputs
    from harness import SPEED_REFERENCE_S, speed_loop_s

    warm = inputs.warm_keys(seed)
    # the host's slowness (see harness.SpeedProbe), sampled before the
    # program and its threads exist
    slowness = speed_loop_s(5) / SPEED_REFERENCE_S
    start = time.perf_counter()
    from repro import kernels
    import workloads

    kernels.backend_name()  # loads the native library
    instance = workloads.WORKLOADS[workload](seed, Path(tempfile.gettempdir()))
    try:
        instance.start(warm)
        elapsed = time.perf_counter() - start
    finally:
        instance.close()
    print(json.dumps({"setup_s": elapsed, "slowness": slowness}))


def _measure_setup(workload: str, seed: int) -> list:
    """``(seconds, slowness)`` of :data:`SETUP_PROBES` fresh processes."""
    probes = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "_setup", workload,
             str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        probes.append((probe["setup_s"], probe["slowness"]))
    return probes


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scratch: Path, spans_path: Path):
    from harness import (Result, SpeedProbe, cpu_times, median,
                         peak_rss_mib, provenance, reset_peak_rss)
    import layers
    import workloads
    import inputs
    from spans import Recorder

    result = Result(workload=name, seed=seed, trace=trace)
    result.provenance = provenance(seed)
    if not trace:
        probes = _measure_setup(name, seed)
        # each probe at the reference host's speed (harness.SpeedProbe)
        result.put("setup_s", median([t / s for t, s in probes]), "s",
                   len(probes))
        result.put("setup_s.raw", median([t for t, _ in probes]), "s",
                   len(probes))
        result.details["setup_probes"] = [
            {"setup_s": t, "slowness": s} for t, s in probes]

    instance = workloads.WORKLOADS[name](seed, scratch)
    instance.generate()
    instance.start(inputs.warm_keys(seed))
    instance.speed = SpeedProbe()

    def measure(seconds, into, rec=None):
        # peak_rss_mib covers the measured loop only: input generation
        # and set-up leave their temporaries in the high-water mark, so
        # it is recorded here and then lowered to the current set
        into.details["peak_rss_before_loop_mib"] = peak_rss_mib()
        into.details["peak_rss_reset"] = reset_peak_rss()
        instance.run(seconds, into, rec)

    try:
        if not trace:
            steal0, total0 = cpu_times()
            measure(seconds, result)
            steal1, total1 = cpu_times()
            # CPU time the hypervisor gave to other guests during the
            # run: context for a slow run, not a metric
            result.details["host_steal_frac"] = (
                (steal1 - steal0) / max(1, total1 - total0))
            return result
        # untraced, traced, untraced: the untraced quarters bracket the
        # traced half, so drift over the run cancels in the comparison
        before = Result(workload=name, seed=seed, trace=False)
        measure(seconds / 4, before)
        with Recorder() as rec:
            measure(seconds / 2, result, rec)
            layers.span_metrics(rec, result, instance.ops,
                                instance.measured_s)
        rec.write(spans_path)
        after = Result(workload=name, seed=seed, trace=False)
        measure(seconds / 4, after)
    finally:
        try:
            instance.close()
        finally:
            instance.speed.close()
    plain = (before, after)
    for part in plain:
        result.attempted += part.attempted
        result.failed += part.failed
    untraced = sum(part.metrics["mtps"].value for part in plain) / 2
    traced = result.metrics["mtps"].value
    result.put("trace.overhead_frac", (untraced - traced) / untraced,
               "ratio")
    result.details["untraced"] = [{k: m.value for k, m in part.metrics.items()}
                                  for part in plain]
    result.details["waterfall"] = layers.waterfall(name, seed, result,
                                                   scratch)
    result.details["roofline"] = layers.roofline(result, seed)
    return result


def _print_context(result) -> None:
    """The roofline and waterfall anchors next to the achieved numbers."""
    roof = result.details.get("roofline")
    if roof:
        gbps = result.metrics.get("kernels.gbps")
        print(f"  roofline: host copy {roof['copy_gbps']:.2f} GB/s, "
              f"scatter {roof['scatter_gbps']:.2f} GB/s"
              + (f"; kernels achieved {gbps.value:.2f} GB/s "
                 f"({gbps.value / roof['copy_gbps']:.0%} of copy)"
                 if gbps else ""))
        untraced = result.details.get("untraced") or [{}]
        # as measured: the roofline is this host's speed now
        mtps = untraced[0].get("mtps.raw", untraced[0].get("mtps"))
        for label, row in roof["bulk_configs"].items():
            print(f"  model {label} @1024: Section 4.6 "
                  f"{row['model_mtps']:.0f} Mt/s, host memory roof "
                  f"{row['host_memory_roof_mtps']:.0f} Mt/s"
                  + (f", bulk achieved {mtps:.1f} Mt/s"
                     if mtps and result.workload == "bulk" else ""))
    fall = result.details.get("waterfall")
    if fall:
        for layer, fitted in fall["layers"].items():
            print(f"  waterfall {layer:<8} t(n) = {fitted['fixed_us']:9.1f} us"
                  f" + {fitted['ns_per_tuple']:7.3f} ns * n")
        for layer, anchor in fall["anchors"].items():
            low, high = anchor["range_us"]
            print(f"  anchor {layer} @8192: {anchor['measured_us']:.0f} us "
                  f"(ROADMAP {low:.0f}-{high:.0f}: "
                  f"{'within' if anchor['within'] else 'OUTSIDE'})")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["_setup"]:
        scratch = _prepare_environment()
        try:
            _setup_probe(argv[1], int(argv[2]))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        return 0
    if argv[:1] == ["compare"]:
        sys.path.insert(0, str(HERE))
        import compare

        return compare.main(argv[1:])

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload")
    which.add_argument("--all", action="store_true",
                       help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="directory for full result records "
                             "(default .bench_build/results)")
    args = parser.parse_args(argv)

    if args.all:
        # one fresh process per workload, so peak memory and program
        # state never carry over from the previous workload
        sys.path.insert(0, str(HERE))
        from harness import load_contract

        status = 0
        for workload in load_contract()["workloads"]:
            command = [sys.executable, __file__, "--workload",
                       workload["name"], "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            if args.out:
                command += ["--out", str(args.out)]
            status |= subprocess.run(command).returncode
        return status

    scratch = _prepare_environment()
    from harness import RESULTS, load_contract
    from repro.kernels import KernelBuildError, build_native
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    try:
        build_native()  # a one-time build, never part of setup_s
    except KernelBuildError as error:
        print(f"perfbench: native kernels unavailable ({error}); "
              "running on the NumPy backend", file=sys.stderr)
    section = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in load_contract()[section]}
    out_dir = args.out or RESULTS
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                      f"-{int(time.time() * 1000)}")
    faulthandler.dump_traceback_later(DEADLINE_S, exit=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), scratch,
                              stem.with_suffix(".spans.jsonl"))
    finally:
        faulthandler.cancel_dump_traceback_later()
        shutil.rmtree(scratch, ignore_errors=True)
    # a per-layer metric the workload does not exercise is 0
    for metric, unit in wanted.items():
        if metric not in result.metrics:
            result.put(metric, 0.0, unit, note="not exercised")
    result.report()
    _print_context(result)
    stem.with_suffix(".json").write_text(
        json.dumps(result.to_dict(), indent=1))
    print(result.contract_line(list(wanted)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
