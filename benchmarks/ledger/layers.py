"""The traced pass: each layer's public functions, called one at a time.

The untraced passes in ``workloads.py`` time the path a user waits on.
This module takes the same inputs apart: it calls every layer's public
entry point separately from the benchmark's own code, each call inside a
:class:`spans.SpanRecorder` span named after the layer metric it feeds,
and collects the layer's counts at the same boundary.  Spans inside the
program are a later issue.

Two span groups matter to the accounting: ``onpath`` wraps the calls
that stand in for the user's pass (their sum over the untraced wall time
is ``trace.coverage``); ``extras`` wraps the measurements taken for
comparison only (native launch, the other detector path, the other
capture format, the stdlib codec).
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

from repro.columnar import decode_batch, encode_batch, iter_batches
from repro.core.detector import BarracudaDetector
from repro.core.ptvc import PTVCFormat
from repro.core.races import DetectorReports
from repro.core.reference import DetectorConfig
from repro.cudac import compile_cuda
from repro.errors import SimulationError
from repro.events import LogRecord, RecordKind, record_to_ops
from repro.gpu.device import GpuDevice
from repro.gpu.hierarchy import LaunchConfig
from repro.gpu.memory import KEPLER_K520, MAXWELL_TITANX
from repro.instrument import Instrumenter
from repro.ptx import parse_ptx
from repro.runtime.queue import QueueSet
from repro.runtime.replay import (
    RecordingSink,
    load_capture,
    load_capture_binary,
    replay,
    save_capture,
    save_capture_binary,
    write_binary_header,
    write_frame,
)
from repro.trace.layout import GridLayout

from spans import SpanRecorder

#: Records between two samples of the detector's PTVC format occupancy.
PTVC_SAMPLE_RECORDS = 1024
GRANULARITY = DetectorConfig().granularity_bytes


def arch_of(program):
    """Suite programs name their memory model; Table-1 workloads do not."""
    return KEPLER_K520 if getattr(program, "arch", "titanx") == "k520" else MAXWELL_TITANX


def upload(device: GpuDevice, program) -> Dict[str, int]:
    """``cudaMalloc`` + ``cudaMemcpy`` every buffer; returns the launch params."""
    params: Dict[str, int] = {}
    for buffer in program.buffers:
        addr = device.alloc(buffer.words * 4)
        device.memcpy_to_device(
            addr, list(buffer.init) + [0] * (buffer.words - len(buffer.init)))
        params[buffer.name] = addr
    params.update(program.scalars)
    return params


def render(reports: DetectorReports) -> List[str]:
    """The report a user reads: one line per race and barrier divergence."""
    return [str(r) for r in reports.races] + [
        str(d) for d in reports.barrier_divergences]


class LayerTrace:
    """Spans and counts of one workload's traced pass."""

    def __init__(self, workload: str) -> None:
        self.rec = SpanRecorder(workload)
        self.counts: Counter = Counter()
        #: Encoded batch frames of every stream seen, for the stdlib-codec child.
        self.frames: List[bytes] = []
        self.ptvc_peak_nonconverged = 0
        self.mismatches = 0

    # ------------------------------------------------------------------
    # Front end + engine (engine workloads only)
    # ------------------------------------------------------------------
    def program(self, program) -> Optional[DetectorReports]:
        """One program, layer by layer; returns the on-path reports."""
        rec, counts = self.rec, self.counts
        with rec.span("onpath", program=program.name):
            # As registration does: the front end's module travels as
            # PTX text (the fat binary) and is parsed back before
            # instrumentation.
            if program.is_ptx:
                with rec.span("ptx.parse"):
                    module = parse_ptx(program.source)
            else:
                with rec.span("cudac.compile"):
                    module = compile_cuda(program.source)
            ptx_text = str(module)
            with rec.span("ptx.parse"):
                pristine = parse_ptx(ptx_text)
            with rec.span("instrument.instrument"):
                instrumented, report = Instrumenter().instrument_module(pristine)
            counts["ptx.static_instructions"] += pristine.static_instruction_count()
            counts["instrument.sites"] += sum(
                k.instrumented_sites for k in report.kernels)
            kernel = pristine.kernels[0].name
            launch_args = dict(
                grid=program.grid, block=program.block,
                warp_size=program.warp_size, max_steps=program.max_steps,
                cooperative=getattr(program, "cooperative", False),
            )
            layout = LaunchConfig.of(
                program.grid, program.block, program.warp_size).layout()
            device = GpuDevice(arch_of(program))
            with rec.span("gpu.alloc_memcpy"):
                device.load_module(instrumented)
                params = upload(device, program)
            sink = RecordingSink()
            try:
                with rec.span("gpu.launch"):
                    result = device.launch(
                        instrumented, kernel, params=params, sink=sink,
                        instrumented=True, **launch_args)
            except SimulationError:
                # A hang or deadlock is the untraced pass's verdict for
                # this program; no stream reaches the later layers.
                counts["gpu.failed_launches"] += 1
                return None
            counts["gpu.instructions"] += result.instructions
            counts["gpu.steps"] += result.steps
            counts["gpu.records_emitted"] += result.records_emitted
            counts["gpu.cycles"] += result.total_cycles
            records = sink.records
            self.queues(layout, records)
            reports = self.detect(layout, records, sample=True)
            self.render(reports)
        with rec.span("extras", program=program.name):
            native_device = GpuDevice(arch_of(program))
            native_device.load_module(pristine)
            native_params = upload(native_device, program)
            with rec.span("gpu.native_launch"):
                native = native_device.launch(
                    pristine, kernel, params=native_params, **launch_args)
            counts["gpu.native_cycles"] += native.total_cycles
            batches = self.pack(records)
            self._same(reports, self.detect_columnar(layout, batches, sample=False))
            self.codec(batches)
            bcap = self.save_bcap(layout, kernel, records)
            self.load_bcap(bcap)
            self.jsonl(layout, kernel, records, reports)
        return reports

    # ------------------------------------------------------------------
    # A binary capture (replay_scale)
    # ------------------------------------------------------------------
    def capture(self, bcap: bytes) -> DetectorReports:
        rec = self.rec
        with rec.span("onpath"):
            layout, kernel, batches = self.load_bcap(bcap)
            reports = self.detect_columnar(layout, batches, sample=True)
            self.render(reports)
            records = self.to_records(batches)
            self.save_bcap(layout, kernel, records)
        with rec.span("extras"):
            self.queues(layout, records)
            self._same(reports, self.detect(layout, records, sample=False))
            self.codec(self.pack(records))
            self.jsonl(layout, kernel, records, reports)
        return reports

    # ------------------------------------------------------------------
    # Stream layers
    # ------------------------------------------------------------------
    def queues(self, layout: GridLayout, records: List[LogRecord]) -> None:
        """The recorded stream through the rings, consumer discarding."""

        def discard(queue_set: QueueSet, index: int) -> None:
            target = queue_set.queues[index]
            start = target.read_head
            while target.read_head == start and target.pending():
                queue_set.drain_in_order(limit=64)

        queues = QueueSet(
            block_of_record=lambda record: (
                record.warp if record.kind is RecordKind.BARRIER
                else layout.block_of_warp(record.warp)),
            on_full=discard,
        )
        emit = queues.emit
        with self.rec.span("runtime.queue.emit"):
            for record in records:
                emit(record)
        with self.rec.span("runtime.queue.drain"):
            queues.drain_in_order()
        stats = [queue.stats for queue in queues.queues]
        counts = self.counts
        counts["runtime.queue.stalls"] += sum(s.stalls for s in stats)
        counts["runtime.queue.wraps"] += sum(s.wraps for s in stats)
        counts["runtime.queue.bytes"] += queues.total_bytes
        counts["runtime.queue.max_depth"] = max(
            counts["runtime.queue.max_depth"], max(s.max_depth for s in stats))

    def detect(self, layout: GridLayout, records: List[LogRecord],
               sample: bool) -> DetectorReports:
        """Per-record path: ``record_to_ops`` then ``process``."""
        with self.rec.span("events.expand"):
            expanded = [record_to_ops(r, layout, GRANULARITY) for r in records]
        detector = BarracudaDetector(layout, DetectorConfig())
        process = detector.process
        for start in range(0, len(expanded), PTVC_SAMPLE_RECORDS):
            with self.rec.span("core.detect"):
                for ops in expanded[start:start + PTVC_SAMPLE_RECORDS]:
                    for op in ops:
                        process(op)
            if sample:
                self._sample_ptvc(detector)
        if sample:
            self._detector_counts(detector)
        return detector.reports

    def detect_columnar(self, layout: GridLayout, batches,
                        sample: bool) -> DetectorReports:
        detector = BarracudaDetector(layout, DetectorConfig())
        seen = 0
        for batch in batches:
            with self.rec.span("core.detect_columnar"):
                detector.process_columnar(batch, GRANULARITY)
            seen += len(batch)
            if sample and seen >= PTVC_SAMPLE_RECORDS:
                seen = 0
                self._sample_ptvc(detector)
        if sample:
            self._sample_ptvc(detector)
            self._detector_counts(detector)
        return detector.reports

    def _sample_ptvc(self, detector: BarracudaDetector) -> None:
        formats = detector.ptvc_stats().format_counts
        nonconverged = sum(formats.values()) - formats[PTVCFormat.CONVERGED]
        self.ptvc_peak_nonconverged = max(self.ptvc_peak_nonconverged, nonconverged)

    def _detector_counts(self, detector: BarracudaDetector) -> None:
        counts = self.counts
        ptvc = detector.ptvc_stats()
        counts["core.lane_ops"] += detector.ops_processed
        counts["core.vc_joins"] += detector.clocks.joins
        counts["core.races"] += len(detector.reports.races)
        counts["core.filtered_same_value"] += detector.reports.filtered_same_value
        counts["core.shadow_entries"] += detector.shadow.stats.entries
        counts["core.ptvc_stored_entries"] += ptvc.stored_entries
        counts["core.ptvc_dense_entries"] += ptvc.dense_entries

    def _same(self, on_path: DetectorReports, other: DetectorReports) -> None:
        """The two detector paths must agree; a difference fails the run."""
        if (on_path.races != other.races
                or on_path.barrier_divergences != other.barrier_divergences):
            self.mismatches += 1

    def render(self, reports: DetectorReports) -> List[str]:
        with self.rec.span("report.render"):
            return render(reports)

    def pack(self, records: List[LogRecord]):
        with self.rec.span("columnar.pack"):
            return list(iter_batches(records))

    def to_records(self, batches) -> List[LogRecord]:
        with self.rec.span("columnar.to_records"):
            return [record for batch in batches for record in batch.to_records()]

    def codec(self, batches) -> None:
        with self.rec.span("columnar.encode"):
            frames = [encode_batch(batch) for batch in batches]
        with self.rec.span("columnar.decode"):
            for frame in frames:
                decode_batch(frame)
        self.frames.extend(frames)

    def save_bcap(self, layout: GridLayout, kernel: str,
                  records: List[LogRecord]) -> bytes:
        stream = io.BytesIO()
        with self.rec.span("runtime.replay.save_bcap"):
            written = save_capture_binary(stream, layout, records, kernel=kernel)
        self.counts["columnar.bcap_bytes"] += stream.tell()
        self.counts["columnar.records"] += written
        return stream.getvalue()

    def load_bcap(self, bcap: bytes):
        with self.rec.span("runtime.replay.load_bcap"):
            return load_capture_binary(io.BytesIO(bcap))

    def jsonl(self, layout: GridLayout, kernel: str, records: List[LogRecord],
              expected: DetectorReports) -> None:
        stream = io.StringIO()
        with self.rec.span("runtime.replay.save_jsonl"):
            save_capture(stream, layout, records, kernel=kernel)
        text = stream.getvalue()
        self.counts["runtime.replay.jsonl_bytes"] += len(text.encode("utf-8"))
        with self.rec.span("runtime.replay.jsonl_verdict"):
            with self.rec.span("runtime.replay.load_jsonl"):
                loaded_layout, _kernel, loaded = load_capture(io.StringIO(text))
            reports = replay(loaded_layout, loaded)
        self._same(expected, reports)

    # ------------------------------------------------------------------
    # The stdlib codec, in a child with REPRO_NO_NUMPY=1
    # ------------------------------------------------------------------
    def pure_codec(self, scratch: Path) -> Dict[str, float]:
        """Decode and re-encode every frame seen with numpy forced off."""
        path = scratch / f"frames_{self.rec.workload}.bcap"
        with open(path, "wb") as stream:
            write_binary_header(stream, GridLayout(1, 1), "ledger-frames")
            for frame in self.frames:
                write_frame(stream, frame)
        env = dict(os.environ, REPRO_NO_NUMPY="1")
        try:
            with self.rec.span("columnar.pure_child"):
                done = subprocess.run(
                    [sys.executable, str(Path(__file__).with_name("codec_pure.py")),
                     str(path)],
                    env=env, capture_output=True, text=True, timeout=120, check=True)
        finally:
            path.unlink()
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["identical"]:
            self.mismatches += 1
        return result

    # ------------------------------------------------------------------
    # Per-layer metrics
    # ------------------------------------------------------------------
    def metrics(self, on_path: List[str], wall_s: float,
                pure: Dict[str, float]) -> Dict[str, float]:
        total = self.rec.total
        counts = self.counts
        launch_s = total("gpu.launch")
        detect_on_path = total(
            "core.detect" if "core.detect" in on_path else "core.detect_columnar")
        records = counts["columnar.records"]

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        values = {
            "cudac.compile_s": total("cudac.compile"),
            "ptx.parse_s": total("ptx.parse"),
            "instrument.instrument_s": total("instrument.instrument"),
            "instrument.instrumented_share": ratio(
                counts["instrument.sites"], counts["ptx.static_instructions"]),
            "gpu.alloc_memcpy_s": total("gpu.alloc_memcpy"),
            "gpu.launch_s": launch_s,
            "gpu.native_launch_s": total("gpu.native_launch"),
            "gpu.instructions_per_s": ratio(counts["gpu.instructions"], launch_s),
            "gpu.step_us": ratio(launch_s * 1e6, counts["gpu.steps"]),
            "gpu.cycle_overhead_ratio": ratio(
                counts["gpu.cycles"], counts["gpu.native_cycles"]),
            "runtime.queue.emit_s": total("runtime.queue.emit"),
            "runtime.queue.drain_s": total("runtime.queue.drain"),
            "events.expand_s": total("events.expand"),
            "core.detect_s": total("core.detect"),
            "core.detect_columnar_s": total("core.detect_columnar"),
            "core.lane_ops_per_s": ratio(counts["core.lane_ops"], detect_on_path),
            "core.ptvc_compression_ratio": ratio(
                counts["core.ptvc_dense_entries"], counts["core.ptvc_stored_entries"]),
            "core.ptvc_nonconverged_peak_warps": self.ptvc_peak_nonconverged,
            "columnar.pack_s": total("columnar.pack"),
            "columnar.to_records_s": total("columnar.to_records"),
            "columnar.encode_s": total("columnar.encode"),
            "columnar.decode_s": total("columnar.decode"),
            "columnar.encode_pure_s": pure["encode_s"],
            "columnar.decode_pure_s": pure["decode_s"],
            "columnar.bytes_per_record": ratio(counts["columnar.bcap_bytes"], records),
            "runtime.replay.load_bcap_s": total("runtime.replay.load_bcap"),
            "runtime.replay.save_bcap_s": total("runtime.replay.save_bcap"),
            "runtime.replay.load_jsonl_s": total("runtime.replay.load_jsonl"),
            "runtime.replay.save_jsonl_s": total("runtime.replay.save_jsonl"),
            "runtime.replay.jsonl_verdict_s": total("runtime.replay.jsonl_verdict"),
            "report.render_s": total("report.render"),
            "trace.coverage": ratio(sum(total(name) for name in on_path), wall_s),
            "trace.overhead_share": ratio(total("onpath") - wall_s, wall_s),
        }
        for name in (
            "ptx.static_instructions", "instrument.sites", "gpu.instructions",
            "gpu.steps", "gpu.records_emitted", "runtime.queue.stalls",
            "runtime.queue.max_depth", "runtime.queue.wraps", "runtime.queue.bytes",
            "core.lane_ops", "core.vc_joins", "core.races",
            "core.filtered_same_value", "core.shadow_entries",
            "core.ptvc_stored_entries", "columnar.bcap_bytes",
            "runtime.replay.jsonl_bytes",
        ):
            values[name] = counts[name]
        return values


#: Layer spans that stand in for the user's pass, per kind of workload.
ON_PATH_PROGRAM = [
    "cudac.compile", "ptx.parse", "instrument.instrument", "gpu.alloc_memcpy",
    "gpu.launch", "runtime.queue.emit", "runtime.queue.drain", "events.expand",
    "core.detect", "report.render",
]
ON_PATH_CAPTURE = [
    "runtime.replay.load_bcap", "core.detect_columnar", "report.render",
    "columnar.to_records", "runtime.replay.save_bcap",
]
