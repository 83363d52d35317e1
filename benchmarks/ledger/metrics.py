"""The ledger's metric catalogue: names, units, directions, bounds.

``BENCHMARK.json`` at the repository root repeats the names, units and
directions below (``test_ledger_smoke.py`` checks they agree); the
``moves`` text — which end-to-end metric a layer metric should move, and
on which workload — cannot live there because its schema fixes the keys
of a ``per_layer`` entry, so it lives here and in ``README.md``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple


#: How long one run measures (``--seconds`` default; ``BENCHMARK.json``
#: ``run_seconds``).
RUN_SECONDS = 15


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float
    what: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: Public function the benchmark calls to take the measurement.
    source: str


#: Workload name -> the one-line reason it exists (``BENCHMARK.json``'s
#: ``why``; the long form is in README.md).
WORKLOADS: Dict[str, str] = {
    "suite_sweep": "79 suite programs + 26 Table-1 workloads, a fresh session each: the only "
                   "workload where cudac, ptx, instrument and per-launch fixed cost show; "
                   "also the accuracy check",
    "compute_bound": "one 4,096-thread kernel, 48 integer loop steps per thread, one store: "
                     "engine dispatch is >=95% of the pass, so a host-side change must not move it",
    "stream_scale": "saxpy-style kernel on 16,384 converged threads with planted write-write "
                    "overlaps: engine stepping, queues and the detector's converged path share the time",
    "sync_mix": "3,072 threads of nested divergence, barrier tree reductions, atomics, fenced flag "
                "publication and spin-locks: barrier release and the non-converged clock formats",
    "replay_scale": "no engine: a synthetic 32,768-thread binary capture is loaded, replayed through "
                    "the columnar detector and re-saved: detector and codec are ~100% of the pass",
}

#: Timings carry the contract's widest bound: on this shared 2-vCPU box
#: ten runs of identical code spread (IQR/median) by 2-11% in a calm hour
#: and 6-14% in a busy one, even for the quiet-machine estimate ``run.py``
#: reports (7-13% and 13-23% for the median pass), so the 10% the issue
#: asked for would reject identical code.
TIMING_BOUND = 0.25

END_TO_END: List[EndToEnd] = [
    EndToEnd("wall_s", "s", "lower", TIMING_BOUND,
             "wall time of one pass, input to rendered and checked verdict, on a quiet "
             "machine: sum over the pass's laps of each lap's fastest reading"),
    EndToEnd("cpu_s", "s", "lower", TIMING_BOUND,
             "the same estimate over user+sys CPU time"),
    EndToEnd("records_per_s", "records/s", "higher", TIMING_BOUND,
             "log records carried to a verdict per pass / wall_s"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.15,
             "process ru_maxrss after the timed passes (spread up to 3.6% here)"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "median of seven from-scratch set-ups: import repro, generate inputs from the seed"),
    EndToEnd("ops_attempted", "count", "higher", 0.005,
             "verdict and output checks attempted per pass, the base of failed_share; "
             "any drop is a regression"),
]

PER_LAYER: List[PerLayer] = [
    PerLayer("cudac.compile_s", "s", "lower", "compile_cuda"),
    PerLayer("ptx.parse_s", "s", "lower", "parse_ptx (uncached)"),
    PerLayer("ptx.static_instructions", "count", "lower", "Module.static_instruction_count"),
    PerLayer("instrument.instrument_s", "s", "lower", "Instrumenter.instrument_module"),
    PerLayer("instrument.sites", "count", "lower", "InstrumentationReport"),
    PerLayer("instrument.instrumented_share", "ratio", "lower", "InstrumentationReport"),
    PerLayer("gpu.alloc_memcpy_s", "s", "lower", "GpuDevice.alloc/memcpy_to_device"),
    PerLayer("gpu.launch_s", "s", "lower", "GpuDevice.launch (instrumented, RecordingSink)"),
    PerLayer("gpu.native_launch_s", "s", "lower", "GpuDevice.launch (pristine, no sink)"),
    PerLayer("gpu.instructions", "count", "lower", "LaunchResult.instructions"),
    PerLayer("gpu.steps", "count", "lower", "LaunchResult.steps"),
    PerLayer("gpu.records_emitted", "count", "lower", "LaunchResult.records_emitted"),
    PerLayer("gpu.instructions_per_s", "1/s", "higher", "instructions / launch_s"),
    PerLayer("gpu.step_us", "us", "lower", "launch_s / steps"),
    PerLayer("gpu.cycle_overhead_ratio", "ratio", "lower",
             "instrumented / native simulated cycles (Figure 10)"),
    PerLayer("runtime.queue.emit_s", "s", "lower", "QueueSet.emit"),
    PerLayer("runtime.queue.drain_s", "s", "lower", "QueueSet.drain_in_order"),
    PerLayer("runtime.queue.stalls", "count", "lower", "QueueStats.stalls"),
    PerLayer("runtime.queue.max_depth", "count", "lower", "QueueStats.max_depth"),
    PerLayer("runtime.queue.wraps", "count", "lower", "QueueStats.wraps"),
    PerLayer("runtime.queue.bytes", "bytes", "lower", "QueueSet.total_bytes"),
    PerLayer("events.expand_s", "s", "lower", "record_to_ops"),
    PerLayer("core.detect_s", "s", "lower", "BarracudaDetector.process"),
    PerLayer("core.detect_columnar_s", "s", "lower", "BarracudaDetector.process_columnar"),
    PerLayer("core.lane_ops", "count", "lower", "BarracudaDetector.ops_processed"),
    PerLayer("core.lane_ops_per_s", "1/s", "higher", "lane_ops / on-path detect time"),
    PerLayer("core.vc_joins", "count", "lower", "PTVCManager.joins"),
    PerLayer("core.races", "count", "lower", "DetectorReports.races"),
    PerLayer("core.filtered_same_value", "count", "lower", "DetectorReports.filtered_same_value"),
    PerLayer("core.shadow_entries", "count", "lower", "ShadowStats.entries"),
    PerLayer("core.ptvc_stored_entries", "count", "lower", "PTVCStats.stored_entries"),
    PerLayer("core.ptvc_compression_ratio", "ratio", "higher", "PTVCStats.compression_ratio"),
    PerLayer("core.ptvc_nonconverged_peak_warps", "count", "lower",
             "ptvc_stats() sampled every 1,024 records"),
    PerLayer("columnar.pack_s", "s", "lower", "iter_batches"),
    PerLayer("columnar.to_records_s", "s", "lower", "ColumnarBatch.to_records"),
    PerLayer("columnar.encode_s", "s", "lower", "encode_batch"),
    PerLayer("columnar.decode_s", "s", "lower", "decode_batch"),
    PerLayer("columnar.encode_pure_s", "s", "lower", "encode_batch, REPRO_NO_NUMPY=1 child"),
    PerLayer("columnar.decode_pure_s", "s", "lower", "decode_batch, REPRO_NO_NUMPY=1 child"),
    PerLayer("columnar.bcap_bytes", "bytes", "lower", "save_capture_binary"),
    PerLayer("columnar.bytes_per_record", "bytes", "lower", "bcap_bytes / records"),
    PerLayer("runtime.replay.load_bcap_s", "s", "lower", "load_capture_binary"),
    PerLayer("runtime.replay.save_bcap_s", "s", "lower", "save_capture_binary"),
    PerLayer("runtime.replay.load_jsonl_s", "s", "lower", "load_capture"),
    PerLayer("runtime.replay.save_jsonl_s", "s", "lower", "save_capture"),
    PerLayer("runtime.replay.jsonl_verdict_s", "s", "lower", "load_capture + per-record replay"),
    PerLayer("runtime.replay.jsonl_bytes", "bytes", "lower", "save_capture"),
    PerLayer("report.render_s", "s", "lower", "str() of every race / barrier-divergence report"),
    PerLayer("trace.coverage", "ratio", "higher",
             "sum of on-path layer times / untraced wall_s (expected 0.8-1.2)"),
    PerLayer("trace.overhead_share", "ratio", "lower",
             "(traced on-path wall - wall_s) / wall_s"),
]

#: Which end-to-end metric each layer's metrics should move, and on which
#: workload: (layer metrics, end-to-end metric, where).  Written down
#: before measuring, as ``choosing-metrics`` asks; the measured shares are
#: in README.md.
MOVES: List[Tuple[str, str, str]] = [
    ("cudac.*, ptx.*, instrument.*", "wall_s",
     "suite_sweep only; <0.1% elsewhere"),
    ("gpu.*", "wall_s, cpu_s",
     "compute_bound (>=95%), stream_scale (~60%), sync_mix (~65%); none on replay_scale"),
    ("runtime.queue.*", "wall_s", "stream_scale, sync_mix; ~0 on compute_bound"),
    ("events.expand_s, core.detect_s", "wall_s",
     "stream_scale (~30%), sync_mix (~30%)"),
    ("core.detect_columnar_s", "wall_s, records_per_s", "replay_scale (~75-85%)"),
    ("core.* state counts", "peak_rss_mb", "replay_scale"),
    ("columnar.*, runtime.replay.*_bcap_s", "wall_s", "replay_scale (~15-25%)"),
    ("columnar.*_pure_s", "none", "per-layer only: settles numpy-vs-stdlib"),
    ("runtime.replay.*jsonl*", "none", "per-layer only: settles JSONL-vs-BCAP"),
    ("report.render_s", "wall_s", "suite_sweep; noise elsewhere"),
    ("trace.*", "none", "checks that the layers account for the pass"),
]


def is_count(metric: PerLayer) -> bool:
    """Simulated or counted, not timed: must repeat exactly for a seed."""
    return metric.unit in ("count", "bytes") or metric.name in (
        "instrument.instrumented_share",
        "gpu.cycle_overhead_ratio",
        "core.ptvc_compression_ratio",
        "columnar.bytes_per_record",
    )


def benchmark_json() -> dict:
    """The contents ``BENCHMARK.json`` must have."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
