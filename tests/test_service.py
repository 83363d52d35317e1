"""The concurrent race-detection service: protocol, pool, server, CLI."""

import json
import os
import threading

import pytest

from repro.core.reference import DetectorConfig
from repro.cudac import compile_cuda
from repro.errors import ReproError
from repro.gpu import GpuDevice, ListSink
from repro.gpu.hierarchy import LaunchConfig
from repro.instrument import Instrumenter
from repro.columnar import ColumnarBatch, encode_batch, iter_batches
from repro.runtime.replay import (
    capture_header_line,
    load_capture_path_batches,
    replay,
    save_capture,
    save_capture_binary,
)
from repro.service import (
    FrameDecoder,
    ProtocolError,
    RaceService,
    ServiceClient,
    ServiceJobError,
    ServiceThread,
    ShardedDetectorPool,
    encode_frame,
    reports_from_payload,
    reports_to_payload,
)
from repro.service import protocol

RACY = """
__global__ void racy(int* data) {
    if (threadIdx.x == 0) {
        data[0] = blockIdx.x + 1;
    }
    data[1] = 7;
}
"""

CLEAN = """
__global__ void clean(int* data) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    data[gid] = gid;
}
"""

GOOD_HEADER = (
    '{"format": "barracuda-capture", "version": 1, "kernel": "k", '
    '"layout": {"num_blocks": 1, "threads_per_block": 2, "warp_size": 2}}\n'
)


def _capture(source=RACY, grid=2, block=32, warp_size=8, words=256):
    module, _ = Instrumenter().instrument_module(compile_cuda(source))
    device = GpuDevice()
    data = device.alloc(words * 4)
    sink = ListSink()
    device.launch(module, module.kernels[0].name, grid=grid, block=block,
                  warp_size=warp_size, params={"data": data}, sink=sink,
                  instrumented=True)
    layout = LaunchConfig.of(grid, block, warp_size).layout()
    return layout, sink.records


def _capture_file(tmp_path, name, source=RACY, grid=2, block=32, warp_size=8,
                  batch_records=None):
    """A JSONL capture, or — with ``batch_records`` — a binary one whose
    frames (and therefore RECORDS frames) hold that many records."""
    layout, records = _capture(source, grid, block, warp_size)
    path = tmp_path / name
    if batch_records is None:
        with open(path, "w") as stream:
            save_capture(stream, layout, records, kernel="k")
    else:
        with open(path, "wb") as stream:
            save_capture_binary(stream, layout, records, kernel="k",
                                batch_records=batch_records)
    return str(path), layout, records


def _submit_path(client, path, **kwargs):
    """Load ``path`` the way every front door does and submit it."""
    layout, kernel, batches, _fmt = load_capture_path_batches(path)
    return client.submit(capture_header_line(layout, kernel), batches,
                         **kwargs)


def _race_keys(reports):
    return {(r.loc, r.prior_tid, r.current_tid, r.kind, r.branch_ordering)
            for r in reports.races}


def _frames(layout, records, batch=8, kernel="k"):
    """The OPEN header line and the ``(encoded batch, count)`` wire items
    of a capture chunked ``batch`` records at a time."""
    return capture_header_line(layout, kernel), [
        protocol.encode_batch_wire(encode_batch(chunk))
        for chunk in iter_batches(records, batch_records=batch)]


#: Hostile wire items: each must fail its own job, nothing else.
HOSTILE_FRAMES = {
    "garbage": ("bm90IGEgYmF0Y2g=", 1),     # base64 of "not a batch"
    "non-base64": ("not//valid base64!!", 1),
    "empty": ("", 1),
    "truncated": (protocol.encode_batch_wire(
        encode_batch(ColumnarBatch()))[0][:-8], 1),
}


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_frame_round_trip(self):
        message = protocol.batch_frame("job-1", "AAAA", 1)
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(message)) == [message]

    def test_decoder_handles_arbitrary_chunking(self):
        frames = encode_frame(protocol.status_frame()) + encode_frame(
            protocol.close_frame("job-9"))
        decoder = FrameDecoder()
        seen = []
        for i in range(len(frames)):
            seen.extend(decoder.feed(frames[i:i + 1]))
        assert [m["verb"] for m in seen] == [protocol.STATUS, protocol.CLOSE]

    def test_garbage_payload_rejected(self):
        frame = len(b"not json").to_bytes(4, "big") + b"not json"
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(frame)

    def test_bogus_length_prefix_rejected(self):
        huge = (protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(huge)

    def test_payload_must_carry_verb(self):
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(encode_frame({"no": "verb"}))

    def test_reports_payload_round_trip(self):
        layout, records = _capture()
        reports = replay(layout, records)
        assert reports.races
        decoded = reports_from_payload(reports_to_payload(reports))
        assert _race_keys(decoded) == _race_keys(reports)
        assert decoded.filtered_same_value == reports.filtered_same_value

    def test_reports_payload_is_deterministic(self):
        layout, records = _capture()
        reports = replay(layout, records)
        shuffled = replay(layout, records)
        shuffled.races.reverse()
        assert reports_to_payload(reports) == reports_to_payload(shuffled)


# ----------------------------------------------------------------------
# Sharded worker pool
# ----------------------------------------------------------------------
class TestShardedDetectorPool:
    def _run_job(self, pool, job_id, layout, frames):
        pool.open_job(job_id, layout).result()
        for frame in frames:
            pool.submit_batch(job_id, [frame]).result()
        return reports_from_payload(pool.close_job(job_id).result())

    def test_inline_pool_matches_replay(self):
        layout, records = _capture()
        _header, frames = _frames(layout, records)
        with ShardedDetectorPool(workers=0) as pool:
            reports = self._run_job(pool, "j1", layout, frames)
        assert _race_keys(reports) == _race_keys(replay(layout, records))

    def test_process_pool_matches_replay_across_jobs(self):
        layout, records = _capture()
        _header, frames = _frames(layout, records)
        expected = _race_keys(replay(layout, records))
        with ShardedDetectorPool(workers=2) as pool:
            for job in ("j1", "j2", "j3"):
                assert _race_keys(
                    self._run_job(pool, job, layout, frames)) == expected

    def test_jobs_are_shard_affine_round_robin(self):
        layout, _ = _capture(CLEAN, grid=1, block=4, warp_size=4)
        with ShardedDetectorPool(workers=0) as pool:
            # Inline mode still tracks assignments over a virtual shard set.
            pool.open_job("a", layout).result()
            pool.open_job("b", layout).result()
            assert pool.shard_of("a") == pool.shard_of("b") == 0
        with ShardedDetectorPool(workers=2) as pool:
            pool.open_job("a", layout).result()
            pool.open_job("b", layout).result()
            pool.open_job("c", layout).result()
            assert pool.shard_of("a") == pool.shard_of("c") == 0
            assert pool.shard_of("b") == 1

    def test_malformed_record_fails_the_job_only(self):
        layout, records = _capture()
        _header, frames = _frames(layout, records)
        with ShardedDetectorPool(workers=0) as pool:
            for name, hostile in HOSTILE_FRAMES.items():
                pool.open_job(name, layout).result()
                future = pool.submit_batch(name, [hostile])
                with pytest.raises(ReproError, match="corrupt|truncated"):
                    future.result()
                pool.discard_job(name).result()
                # The pool keeps serving other jobs.
                reports = self._run_job(pool, f"after-{name}", layout, frames)
                assert reports.races

    def test_a_count_the_batch_does_not_hold_fails_the_job(self):
        layout, records = _capture()
        _header, [(encoded, count), *_rest] = _frames(layout, records)
        with ShardedDetectorPool(workers=0) as pool:
            pool.open_job("liar", layout).result()
            with pytest.raises(ReproError, match="corrupt batch frame"):
                pool.submit_batch("liar", [(encoded, count + 1)]).result()

    def test_unknown_job_rejected(self):
        with ShardedDetectorPool(workers=0) as pool:
            with pytest.raises(ReproError):
                pool.submit_batch("nope", [])
            with pytest.raises(ReproError):
                pool.close_job("nope")

    def test_worker_stats_accumulate(self):
        layout, records = _capture()
        _header, frames = _frames(layout, records)
        with ShardedDetectorPool(workers=0) as pool:
            self._run_job(pool, "j1", layout, frames)
            stats = pool.worker_stats[0]
            assert stats.records == len(records)
            assert stats.batches > 0
            assert stats.busy_seconds > 0


# ----------------------------------------------------------------------
# Server + client integration
# ----------------------------------------------------------------------
@pytest.fixture
def service(tmp_path):
    sock = str(tmp_path / "svc.sock")
    with ServiceThread(RaceService(socket_path=sock, workers=0)) as thread:
        yield sock, thread.service


class TestServiceIntegration:
    def test_two_concurrent_submits_match_in_process_replay(self, tmp_path):
        sock = str(tmp_path / "svc.sock")
        captures = {
            "a": _capture_file(tmp_path, "a.bcap", RACY, grid=2,
                               batch_records=8),
            "b": _capture_file(tmp_path, "b.jsonl", RACY, grid=3, warp_size=16),
        }
        results = {}
        errors = []

        def submit(name, path):
            try:
                with ServiceClient(socket_path=sock) as client:
                    results[name] = _submit_path(client, path)
            except Exception as exc:  # surfaced after join
                errors.append((name, exc))

        with ServiceThread(RaceService(socket_path=sock, workers=2)):
            threads = [
                threading.Thread(target=submit, args=(name, path))
                for name, (path, _layout, _records) in captures.items()
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        for name, (_path, layout, records) in captures.items():
            local = replay(layout, records)
            remote = results[name].reports
            assert _race_keys(remote) == _race_keys(local)
            assert _race_keys(remote)  # the kernel is racy
            assert remote.filtered_same_value == local.filtered_same_value
            assert results[name].records_processed == len(records)

    def test_submit_honors_detector_config(self, service, tmp_path):
        sock, _ = service
        path, layout, records = _capture_file(tmp_path, "c.jsonl")
        unfiltered_config = DetectorConfig(filter_same_value=False)
        with ServiceClient(socket_path=sock) as client:
            filtered = _submit_path(client, path)
            unfiltered = _submit_path(client, path, config=unfiltered_config)
        assert len(unfiltered.reports.races) > len(filtered.reports.races)
        assert filtered.reports.filtered_same_value > 0

    def test_malformed_corpus_yields_per_job_errors_not_a_crash(
            self, service, tmp_path):
        from repro.service import submit_capture

        sock, _ = service
        corpus = {
            "empty.jsonl": "",
            "garbage-header.jsonl": "definitely not json\n",
            "wrong-format.jsonl": '{"format": "something-else"}\n',
            "bad-version.jsonl":
                GOOD_HEADER.replace('"version": 1', '"version": 999'),
            "no-layout.jsonl":
                '{"format": "barracuda-capture", "version": 1}\n',
            "garbage-record.jsonl": GOOD_HEADER + "}{ not a record\n",
            "truncated-record.jsonl": GOOD_HEADER + '{"kind": "store", "wa',
            "bad-kind.jsonl": GOOD_HEADER + '{"kind": "not-a-kind", '
                              '"warp": 0, "active": [0]}\n',
        }
        # One loader: a file that is no capture fails on its way to a
        # service with the very error a local replay of it gives.
        for name, text in corpus.items():
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(ReproError) as local:
                load_capture_path_batches(str(path))
            with pytest.raises(ReproError) as served:
                submit_capture(str(path), socket_path=sock)
            assert str(served.value) == str(local.value)
        # What can still be malformed on the wire is a batch frame: each
        # hostile one fails its own job with one error frame.
        for name, hostile in HOSTILE_FRAMES.items():
            with ServiceClient(socket_path=sock) as client:
                job_id = client._request(
                    protocol.open_frame(GOOD_HEADER))["job_id"]
                client._request(protocol.batch_frame(job_id, *hostile))
                with pytest.raises(ServiceJobError, match="corrupt|truncated"):
                    client._raise_on_error(
                        client._request(protocol.close_frame(job_id)))
        # After the whole corpus, the server is still healthy.
        good, layout, records = _capture_file(tmp_path, "good.jsonl")
        with ServiceClient(socket_path=sock) as client:
            result = _submit_path(client, good)
            stats = client.status("stats")["stats"]
        assert _race_keys(result.reports) == _race_keys(replay(layout, records))
        assert stats["jobs_done"] >= 1
        assert stats["jobs_failed"] == len(HOSTILE_FRAMES)

    @pytest.mark.parametrize("workers", [0, 1])
    @pytest.mark.parametrize("hostile", sorted(HOSTILE_FRAMES))
    def test_hostile_batch_frame_fails_its_job_while_a_concurrent_one_finishes(
            self, tmp_path, workers, hostile):
        # Two jobs open on the same shard (the inline one, or a pool's
        # only process); a garbage / truncated / non-base64 batch lands
        # in one of them mid-stream.
        sock = str(tmp_path / "svc.sock")
        layout, records = _capture()
        header, frames = _frames(layout, records)
        with ServiceThread(RaceService(socket_path=sock, workers=workers)):
            with ServiceClient(socket_path=sock) as victim, \
                    ServiceClient(socket_path=sock) as bystander:
                bad = victim._request(protocol.open_frame(header))["job_id"]
                good = bystander._request(
                    protocol.open_frame(header))["job_id"]
                half = len(frames) // 2
                for frame in frames[:half]:
                    bystander._request(protocol.batch_frame(good, *frame))
                    victim._request(protocol.batch_frame(bad, *frame))
                victim._request(protocol.batch_frame(
                    bad, *HOSTILE_FRAMES[hostile]))
                for frame in frames[half:]:
                    bystander._request(protocol.batch_frame(good, *frame))
                failure = victim._request(protocol.close_frame(bad))
                assert failure["verb"] == protocol.ERROR
                assert failure["job_id"] == bad
                report = bystander._expect(
                    bystander._request(protocol.close_frame(good)),
                    protocol.REPORT)
        assert report["reports"] == reports_to_payload(replay(layout, records)) \
            | {"records_processed": len(records)}

    def test_garbage_frames_do_not_kill_other_jobs(self, service, tmp_path):
        import socket as socketlib

        sock, _ = service
        path, layout, records = _capture_file(tmp_path, "d.jsonl")
        raw = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        raw.settimeout(10)
        raw.connect(sock)
        # A well-framed but garbage payload: per-frame error, stream survives.
        raw.sendall(len(b"junk").to_bytes(4, "big") + b"junk")
        reply = protocol.recv_frame(raw)
        assert reply["verb"] == protocol.ERROR
        # Unknown verbs answer with ERROR too.
        protocol.send_frame(raw, {"verb": "launch-missiles"})
        assert protocol.recv_frame(raw)["verb"] == protocol.ERROR
        raw.close()
        with ServiceClient(socket_path=sock) as client:
            result = _submit_path(client, path)
        assert _race_keys(result.reports) == _race_keys(replay(layout, records))

    def test_client_disconnect_aborts_its_job_only(self, service, tmp_path):
        sock, svc = service
        path, layout, records = _capture_file(tmp_path, "e.jsonl")
        header, frames = _frames(layout, records, batch=4)
        client = ServiceClient(socket_path=sock)
        reply = client._request(protocol.open_frame(header))
        job_id = reply["job_id"]
        client._request(protocol.batch_frame(job_id, *frames[0]))
        client.close()  # vanish mid-job
        with ServiceClient(socket_path=sock) as other:
            result = _submit_path(other, path)
            stats = other.status("stats")["stats"]
        assert _race_keys(result.reports) == _race_keys(replay(layout, records))
        assert stats["jobs_aborted"] >= 1

    def test_records_for_unknown_job_rejected(self, service):
        sock, _ = service
        with ServiceClient(socket_path=sock) as client:
            with pytest.raises(ServiceJobError):
                client._raise_on_error(
                    client._request(protocol.batch_frame("job-999", "", 0)))

    @pytest.mark.parametrize("bad", [
        {"granularity_bytes": -4},  # looped forever in the cell expansion
        {"granularity_bytes": 0},   # ZeroDivisionError in the worker
        {"provenance_depth": -1},
    ])
    def test_open_with_impossible_config_is_one_error_frame(
            self, service, tmp_path, bad):
        sock, race_service = service
        path, layout, records = _capture_file(tmp_path, "g.jsonl")
        header, _ = _frames(layout, records)
        with ServiceClient(socket_path=sock) as client:
            reply = client._request({"verb": protocol.OPEN,
                                     "header_line": header,
                                     "config": bad})
            assert reply["verb"] == protocol.ERROR
            assert "malformed detector config" in reply["message"]
            assert "job_id" not in reply
            assert not race_service.stats.jobs  # no job was created
            result = _submit_path(client, path)  # and the service still serves
        assert _race_keys(result.reports) == _race_keys(replay(layout, records))

    @pytest.mark.parametrize("layout", [
        {"num_blocks": 1, "threads_per_block": 32.5, "warp_size": 32},
        {"num_blocks": 40_000_000, "threads_per_block": 1024,
         "warp_size": 32},
    ], ids=["float-threads", "4e10-threads"])
    def test_open_with_hostile_header_is_one_error_frame(self, tmp_path,
                                                         layout):
        # The float used to reach the shard and kill it (and every other
        # job on it) before the error frame came back; 4e10 threads asked
        # the shard for the machine's memory.
        sock = str(tmp_path / "svc.sock")
        path, good_layout, records = _capture_file(tmp_path, "h.jsonl")
        header = json.dumps({"format": "barracuda-capture", "version": 1,
                             "kernel": "k", "layout": layout})
        with ServiceThread(RaceService(socket_path=sock, workers=1)) as thread:
            with ServiceClient(socket_path=sock) as client:
                reply = client._request(protocol.open_frame(header))
                assert reply["verb"] == protocol.ERROR
                assert "malformed capture layout" in reply["message"]
                assert not thread.service.stats.jobs  # no job was created
                result = _submit_path(client, path)  # still serving
                health = client.status("health")["health"]
        assert [shard["restarts"] for shard in health["shards"]] == [0]
        assert _race_keys(result.reports) == _race_keys(
            replay(good_layout, records))

    def test_status_reply_is_bounded_however_many_jobs_finished(
            self, service):
        from repro.service.stats import FINISHED_JOBS_RETAINED

        sock, race_service = service
        layout, records = _capture(CLEAN, grid=1, block=4, warp_size=4)
        header, frames = _frames(layout, records)
        sizes = []
        with ServiceClient(socket_path=sock) as client:
            held = client._request(protocol.open_frame(header))["job_id"]
            client._request(protocol.batch_frame(held, *frames[0]))
            for done in range(1, 3 * FINISHED_JOBS_RETAINED + 1):
                client.submit(header, iter_batches(records))
                if done % FINISHED_JOBS_RETAINED == 0:
                    sizes.append(len(json.dumps(
                        client.status("stats", "metrics"))))
            stats = client.status("stats")["stats"]
        # Flat once the bound is reached (digits of counters aside) ...
        assert max(sizes) - min(sizes) < 0.01 * min(sizes)
        assert len(stats["jobs"]) == FINISHED_JOBS_RETAINED + 1
        # ... the job still open is never the one evicted ...
        assert stats["jobs"][held]["state"] == "open"
        assert stats["jobs_open"] == 1
        # ... and the totals count every job ever served.
        assert stats["jobs_done"] == 3 * FINISHED_JOBS_RETAINED
        assert stats["records_in"] == frames[0][1] + \
            3 * FINISHED_JOBS_RETAINED * len(records)

    def test_stats_surface(self, service, tmp_path):
        sock, _ = service
        path, _layout, records = _capture_file(tmp_path, "f.bcap",
                                               batch_records=8)
        with ServiceClient(socket_path=sock) as client:
            result = _submit_path(client, path)
            stats = client.status("stats")["stats"]
        job_stats = result.stats
        assert job_stats["records_in"] == len(records)
        assert job_stats["batches_in"] == -(-len(records) // 8)
        assert job_stats["records_per_sec"] > 0
        assert job_stats["batch_latency_ms"]["p50"] >= 0
        assert job_stats["state"] == "done"
        assert stats["jobs_done"] >= 1
        assert stats["workers"] and stats["workers"][0]["records"] >= len(records)

    def test_status_carries_only_the_sections_asked_for(self, service):
        sock, race_service = service
        gathers = []
        shard_futures = race_service.pool.status_futures
        race_service.pool.status_futures = \
            lambda section: gathers.append(section) or shard_futures(section)
        with ServiceClient(socket_path=sock) as client:
            assert set(client.status("health", "stats")) == \
                {"health", "stats"}
            assert gathers == []  # answered without asking any shard
            assert set(client.status("flight")) == {"flight"}
            assert gathers == ["flight"]
            everything = client.status()
        assert tuple(everything) == protocol.STATUS_SECTIONS
        assert gathers == ["flight", "metrics", "flight"]
        assert set(everything["metrics"]) == {"text", "snapshot"}
        assert everything["health"]["shards"][0]["alive"] is True
        assert everything["flight"]["processes"]

    @pytest.mark.parametrize("sections", ["stats", ["stats", "uptime"], [7]])
    def test_status_rejects_unknown_sections(self, service, sections):
        sock, _ = service
        with ServiceClient(socket_path=sock) as client:
            with pytest.raises(ServiceJobError, match="STATUS sections"):
                client._raise_on_error(client._request(
                    {"verb": protocol.STATUS, "sections": sections}))
            assert client.status("health")  # the connection survives

    @pytest.mark.parametrize("verb", ["stats", "metrics", "health", "dump"])
    def test_retired_introspection_verbs_are_unknown(self, service, verb):
        sock, _ = service
        with ServiceClient(socket_path=sock) as client:
            reply = client._request({"verb": verb})
        assert reply["verb"] == protocol.ERROR
        assert reply["message"] == f"unknown verb {verb!r}"

    def test_tcp_endpoint(self, tmp_path):
        path, layout, records = _capture_file(tmp_path, "g.jsonl")
        with ServiceThread(RaceService(port=0, workers=0)) as thread:
            port = thread.service.bound_port
            with ServiceClient(port=port) as client:
                result = _submit_path(client, path)
        assert _race_keys(result.reports) == _race_keys(replay(layout, records))

    def test_backpressure_stalls_then_drains(self, tmp_path):
        sock = str(tmp_path / "bp.sock")
        layout, records = _capture()
        header, frames = _frames(layout, records, batch=8)
        service = RaceService(socket_path=sock, workers=0, high_water=4)
        with ServiceThread(service):
            with ServiceClient(socket_path=sock) as client:
                reply = client._request(protocol.open_frame(header))
                job_id = reply["job_id"]
                for frame in frames:
                    client._expect(
                        client._request(protocol.batch_frame(job_id, *frame)),
                        protocol.ACK)
                report = client._expect(
                    client._request(protocol.close_frame(job_id)),
                    protocol.REPORT)
        reports = reports_from_payload(report["reports"])
        assert _race_keys(reports) == _race_keys(replay(layout, records))


# ----------------------------------------------------------------------
# STATUS metrics section (the observability surface of the service)
# ----------------------------------------------------------------------
class TestBinaryCaptureSubmit:
    """Either capture format travels as base64 columnar batch frames."""

    def test_binary_submit_matches_jsonl_and_local_replay(
        self, service, tmp_path
    ):
        sock, _ = service
        jsonl_path, layout, records = _capture_file(tmp_path, "cap.jsonl")
        bin_path, _, _ = _capture_file(tmp_path, "cap.bcap", batch_records=3)
        with ServiceClient(socket_path=sock) as client:
            from_jsonl = _submit_path(client, jsonl_path)
            from_binary = _submit_path(client, bin_path)
        local = replay(layout, records)
        assert _race_keys(from_binary.reports) == _race_keys(local)
        assert _race_keys(from_binary.reports) == _race_keys(
            from_jsonl.reports)
        assert from_binary.records_processed == len(records)
        assert (from_binary.reports.filtered_same_value
                == from_jsonl.reports.filtered_same_value)
        # Framing comes from the capture: a BCAP file's own frames.
        assert from_binary.stats["batches_in"] == -(-len(records) // 3)
        assert from_jsonl.stats["batches_in"] == 1

    def test_binary_submit_through_worker_processes(self, tmp_path):
        sock = str(tmp_path / "svc.sock")
        bin_path, layout, records = _capture_file(
            tmp_path, "cap.bcap", batch_records=2)
        with ServiceThread(RaceService(socket_path=sock, workers=2)):
            with ServiceClient(socket_path=sock) as client:
                result = _submit_path(client, bin_path)
        assert _race_keys(result.reports) == _race_keys(replay(layout, records))
        assert result.records_processed == len(records)

    def test_batch_frame_validation(self, service):
        sock, _ = service
        layout, records = _capture()
        header, frames = _frames(layout, records)
        with ServiceClient(socket_path=sock) as client:
            job_id = client._request(protocol.open_frame(header))["job_id"]
            client._expect(client._request(
                protocol.batch_frame(job_id, *frames[0])), protocol.ACK)
            hostile = [
                {"batch": 7},                          # non-string payload
                {"count": None},                       # missing count
                {"count": -3}, {"count": True}, {"count": 1.0},
                {"batch": None, "lines": ['{"kind": "load"}']},  # retired
            ]
            for fields in hostile:
                bad = {**protocol.batch_frame(job_id, "AAAA", 1), **fields}
                reply = client._request(
                    {k: v for k, v in bad.items() if v is not None})
                assert reply["verb"] == protocol.ERROR
                assert reply["job_id"] == job_id
                assert "RECORDS frame needs" in reply["message"]
            # Each was one error frame; the job's other frames stand.
            for frame in frames[1:]:
                client._expect(client._request(
                    protocol.batch_frame(job_id, *frame)), protocol.ACK)
            report = client._expect(
                client._request(protocol.close_frame(job_id)),
                protocol.REPORT)
        assert _race_keys(reports_from_payload(report["reports"])) == \
            _race_keys(replay(layout, records))

    def test_corrupt_batch_payload_fails_job_cleanly(self, service, tmp_path):
        sock, _ = service
        with ServiceClient(socket_path=sock) as client:
            reply = client._request(protocol.open_frame(GOOD_HEADER))
            job_id = reply["job_id"]
            # Well-formed frame, garbage payload: the job fails, the
            # connection (and service) survive.
            client._request(
                protocol.batch_frame(job_id, *HOSTILE_FRAMES["garbage"]))
            with pytest.raises(ServiceJobError):
                client._raise_on_error(
                    client._request(protocol.close_frame(job_id)))
        # Service still healthy afterwards.
        path, layout, records = _capture_file(tmp_path, "ok.jsonl")
        with ServiceClient(socket_path=sock) as client:
            result = _submit_path(client, path)
        assert _race_keys(result.reports) == _race_keys(replay(layout, records))


class TestMetricsVerb:
    def _sample(self, parsed, name, **labels):
        for sample_labels, value in parsed.get(name, []):
            if sample_labels == labels:
                return value
        raise AssertionError(f"no sample {name}{labels} in {parsed.get(name)}")

    def test_metrics_round_trip_and_matches_stats(self, service, tmp_path):
        from repro.obs import parse_exposition
        from repro.service.stats import metrics_registry_from_snapshot

        sock, _ = service
        path, _layout, records = _capture_file(tmp_path, "m.bcap",
                                               batch_records=8)
        with ServiceClient(socket_path=sock) as client:
            _submit_path(client, path)
            status = client.status("metrics", "stats")
        metrics, stats = status["metrics"], status["stats"]
        parsed = parse_exposition(metrics["text"])
        assert self._sample(parsed, "repro_service_jobs", state="done") >= 1
        assert self._sample(
            parsed, "repro_service_records_in_total") == len(records)
        assert sum(value for _labels, value
                   in parsed["repro_service_worker_records_total"]) == \
            len(records)
        # The metrics section is the stats snapshot through the registry
        # (rebuilding locally yields the same snapshot format; uptime is
        # the only clock-dependent series).  A record job publishes
        # nothing into the shards' own registries: its batches are
        # counted once, here, from WorkerStats.
        local = metrics_registry_from_snapshot(stats).snapshot()
        remote = metrics["snapshot"]
        assert set(remote) == set(local)
        for name in local:
            assert remote[name]["type"] == local[name]["type"]
            assert remote[name]["labels"] == local[name]["labels"]

    def _open_job(self, client, header):
        return client._expect(
            client._request(protocol.open_frame(header)),
            protocol.ACCEPT)["job_id"]

    def _send(self, client, job_id, frame):
        client._expect(client._request(protocol.batch_frame(job_id, *frame)),
                       protocol.ACK)

    def test_concurrent_jobs_have_isolated_counters(self, service, tmp_path):
        from repro.obs import parse_exposition

        sock, _ = service
        layout, records = _capture()
        header, frames = _frames(layout, records, batch=4)
        _header, [twelve, *_rest] = _frames(layout, records, batch=12)
        first = ServiceClient(socket_path=sock)
        second = ServiceClient(socket_path=sock)
        try:
            job_a = self._open_job(first, header)
            job_b = self._open_job(second, header)
            assert job_a != job_b
            # Stream different volumes into each mid-flight job.
            self._send(first, job_a, twelve)
            self._send(second, job_b, frames[0])
            self._send(second, job_b, frames[1])
            with ServiceClient(socket_path=sock) as observer:
                metrics = observer.status("metrics")["metrics"]
            parsed = parse_exposition(metrics["text"])
            per_job = "repro_service_job_records_total"
            assert self._sample(parsed, per_job, job=job_a) == 12
            assert self._sample(parsed, per_job, job=job_b) == 8
            assert self._sample(
                parsed, "repro_service_job_batches_total", job=job_a) == 1
            assert self._sample(
                parsed, "repro_service_job_batches_total", job=job_b) == 2
            # The mid-stream snapshot is internally consistent: the
            # service-wide ingest counter is the sum of the per-job ones.
            total = self._sample(parsed, "repro_service_records_in_total")
            assert total == sum(v for _l, v in parsed[per_job])
            assert self._sample(parsed, "repro_service_jobs", state="open") == 2
            # Finishing the jobs flips the state gauges, not the counters.
            first._expect(first._request(protocol.close_frame(job_a)),
                          protocol.REPORT)
            second._expect(second._request(protocol.close_frame(job_b)),
                           protocol.REPORT)
            with ServiceClient(socket_path=sock) as observer:
                parsed = parse_exposition(
                    observer.status("metrics")["metrics"]["text"])
            assert self._sample(parsed, per_job, job=job_a) == 12
            assert self._sample(parsed, per_job, job=job_b) == 8
            assert self._sample(parsed, "repro_service_jobs", state="open") == 0
            assert self._sample(parsed, "repro_service_jobs", state="done") == 2
        finally:
            first.close()
            second.close()

    def test_metrics_verb_over_tcp(self, tmp_path):
        from repro.obs import parse_exposition

        path, _layout, records = _capture_file(tmp_path, "tcp.jsonl")
        with ServiceThread(RaceService(port=0, workers=0)) as thread:
            port = thread.service.bound_port
            with ServiceClient(port=port) as client:
                _submit_path(client, path)
                metrics = client.status("metrics")["metrics"]
        parsed = parse_exposition(metrics["text"])
        assert self._sample(
            parsed, "repro_service_records_in_total") == len(records)
        assert metrics["snapshot"]["repro_service_jobs"]["type"] == "gauge"


# ----------------------------------------------------------------------
# CLI subcommands
# ----------------------------------------------------------------------
class TestServiceCli:
    def test_submit_cli_against_live_service(self, tmp_path, capsys):
        from repro.cli import main

        sock = str(tmp_path / "cli.sock")
        path, layout, records = _capture_file(tmp_path, "cli.jsonl")
        with ServiceThread(RaceService(socket_path=sock, workers=0)):
            code = main(["replay", path, "--socket", sock, "--stats"])
        out = capsys.readouterr().out
        assert code == 1  # the capture is racy
        assert "race report" in out
        assert "job statistics" in out
        assert "service statistics" in out

    def test_submit_cli_metrics_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs import parse_exposition

        sock = str(tmp_path / "cli-m.sock")
        path, _layout, _records = _capture_file(tmp_path, "cli-m.jsonl")
        with ServiceThread(RaceService(socket_path=sock, workers=0)):
            code = main(["replay", path, "--socket", sock, "--metrics"])
        out = capsys.readouterr().out
        assert code == 1
        assert "--------- metrics" in out
        exposition = out.split("--------- metrics\n", 1)[1]
        parsed = parse_exposition(exposition)
        assert "repro_service_records_in_total" in parsed

    def test_submit_cli_introspection_flags_share_one_request(
            self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        requests = []
        status_frame = protocol.status_frame
        monkeypatch.setattr(
            protocol, "status_frame",
            lambda sections=(): requests.append(tuple(sections))
            or status_frame(sections))
        sock = str(tmp_path / "cli-s.sock")
        flight = tmp_path / "flight.json"
        path, _layout, _records = _capture_file(tmp_path, "cli-s.jsonl")
        with ServiceThread(RaceService(socket_path=sock, workers=0)):
            code = main(["replay", path, "--socket", sock, "--stats",
                         "--metrics", "--health", "--flight-dump",
                         str(flight)])
        out = capsys.readouterr().out
        assert code == 1
        assert requests == [("stats", "metrics", "health", "flight")]
        for heading in ("service statistics", "--------- metrics",
                        "--------- health"):
            assert heading in out
        assert json.loads(flight.read_text())["processes"]

    def test_submit_cli_without_service_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        path, _layout, _records = _capture_file(tmp_path, "lone.jsonl")
        code = main(["replay", path, "--socket", str(tmp_path / "nope.sock"),
                     "--max-retries", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
