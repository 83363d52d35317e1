"""The concurrent race-detection service: protocol, pool, server, CLI."""

import io
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
from repro.runtime.replay import replay, save_capture
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


def _capture_file(tmp_path, name, source=RACY, grid=2, block=32, warp_size=8):
    layout, records = _capture(source, grid, block, warp_size)
    path = tmp_path / name
    with open(path, "w") as stream:
        save_capture(stream, layout, records, kernel="k")
    return str(path), layout, records


def _race_keys(reports):
    return {(r.loc, r.prior_tid, r.current_tid, r.kind, r.branch_ordering)
            for r in reports.races}


def _lines(layout, records, kernel="k"):
    stream = io.StringIO()
    save_capture(stream, layout, records, kernel=kernel)
    stream.seek(0)
    header, *rest = stream.read().splitlines()
    return header, rest


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_frame_round_trip(self):
        message = protocol.records_frame("job-1", ['{"kind": "load"}'])
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
    def _run_job(self, pool, job_id, layout, lines, batch=8):
        pool.open_job(job_id, layout).result()
        for start in range(0, len(lines), batch):
            pool.submit_batch(job_id, lines[start:start + batch]).result()
        return reports_from_payload(pool.close_job(job_id).result())

    def test_inline_pool_matches_replay(self):
        layout, records = _capture()
        _header, lines = _lines(layout, records)
        with ShardedDetectorPool(workers=0) as pool:
            reports = self._run_job(pool, "j1", layout, lines)
        assert _race_keys(reports) == _race_keys(replay(layout, records))

    def test_process_pool_matches_replay_across_jobs(self):
        layout, records = _capture()
        _header, lines = _lines(layout, records)
        expected = _race_keys(replay(layout, records))
        with ShardedDetectorPool(workers=2) as pool:
            for job in ("j1", "j2", "j3"):
                assert _race_keys(
                    self._run_job(pool, job, layout, lines)) == expected

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
        _header, lines = _lines(layout, records)
        with ShardedDetectorPool(workers=0) as pool:
            pool.open_job("bad", layout).result()
            future = pool.submit_batch("bad", ["this is not json"])
            with pytest.raises(ReproError):
                future.result()
            pool.discard_job("bad").result()
            # The pool keeps serving other jobs.
            reports = self._run_job(pool, "good", layout, lines)
            assert reports.races

    def test_unknown_job_rejected(self):
        with ShardedDetectorPool(workers=0) as pool:
            with pytest.raises(ReproError):
                pool.submit_batch("nope", [])
            with pytest.raises(ReproError):
                pool.close_job("nope")

    def test_worker_stats_accumulate(self):
        layout, records = _capture()
        _header, lines = _lines(layout, records)
        with ShardedDetectorPool(workers=0) as pool:
            self._run_job(pool, "j1", layout, lines)
            stats = pool.worker_stats[0]
            assert stats.records == len(lines)
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
            "a": _capture_file(tmp_path, "a.jsonl", RACY, grid=2),
            "b": _capture_file(tmp_path, "b.jsonl", RACY, grid=3, warp_size=16),
        }
        results = {}
        errors = []

        def submit(name, path):
            try:
                with ServiceClient(socket_path=sock) as client:
                    results[name] = client.submit_path(path, batch_size=8)
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
            filtered = client.submit_path(path)
            unfiltered = client.submit_path(path, config=unfiltered_config)
        assert len(unfiltered.reports.races) > len(filtered.reports.races)
        assert filtered.reports.filtered_same_value > 0

    def test_malformed_corpus_yields_per_job_errors_not_a_crash(
            self, service, tmp_path):
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
        for name, text in corpus.items():
            path = tmp_path / name
            path.write_text(text)
            with ServiceClient(socket_path=sock) as client:
                with pytest.raises(ReproError):
                    client.submit_path(str(path), batch_size=4)
        # After the whole corpus, the server is still healthy.
        good, layout, records = _capture_file(tmp_path, "good.jsonl")
        with ServiceClient(socket_path=sock) as client:
            result = client.submit_path(good)
            stats = client.status("stats")["stats"]
        assert _race_keys(result.reports) == _race_keys(replay(layout, records))
        assert stats["jobs_done"] >= 1
        assert stats["jobs_failed"] >= 1  # record-level corpus entries

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
            result = client.submit_path(path)
        assert _race_keys(result.reports) == _race_keys(replay(layout, records))

    def test_client_disconnect_aborts_its_job_only(self, service, tmp_path):
        sock, svc = service
        path, layout, records = _capture_file(tmp_path, "e.jsonl")
        header, lines = _lines(layout, records)
        client = ServiceClient(socket_path=sock)
        reply = client._request(protocol.open_frame(header + "\n"))
        job_id = reply["job_id"]
        client._request(protocol.records_frame(job_id, lines[:4]))
        client.close()  # vanish mid-job
        with ServiceClient(socket_path=sock) as other:
            result = other.submit_path(path)
            stats = other.status("stats")["stats"]
        assert _race_keys(result.reports) == _race_keys(replay(layout, records))
        assert stats["jobs_aborted"] >= 1

    def test_records_for_unknown_job_rejected(self, service):
        sock, _ = service
        with ServiceClient(socket_path=sock) as client:
            with pytest.raises(ServiceJobError):
                client._raise_on_error(
                    client._request(protocol.records_frame("job-999", [])))

    @pytest.mark.parametrize("bad", [
        {"granularity_bytes": -4},  # looped forever in the cell expansion
        {"granularity_bytes": 0},   # ZeroDivisionError in the worker
        {"provenance_depth": -1},
    ])
    def test_open_with_impossible_config_is_one_error_frame(
            self, service, tmp_path, bad):
        sock, race_service = service
        path, layout, records = _capture_file(tmp_path, "g.jsonl")
        header, _ = _lines(layout, records)
        with ServiceClient(socket_path=sock) as client:
            reply = client._request({"verb": protocol.OPEN,
                                     "header_line": header + "\n",
                                     "config": bad})
            assert reply["verb"] == protocol.ERROR
            assert "malformed detector config" in reply["message"]
            assert "job_id" not in reply
            assert not race_service.stats.jobs  # no job was created
            result = client.submit_path(path)  # and the service still serves
        assert _race_keys(result.reports) == _race_keys(replay(layout, records))

    def test_stats_surface(self, service, tmp_path):
        sock, _ = service
        path, _layout, records = _capture_file(tmp_path, "f.jsonl")
        with ServiceClient(socket_path=sock) as client:
            result = client.submit_path(path, batch_size=8)
            stats = client.status("stats")["stats"]
        job_stats = result.stats
        assert job_stats["records_in"] == len(records)
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
                result = client.submit_path(path)
        assert _race_keys(result.reports) == _race_keys(replay(layout, records))

    def test_backpressure_stalls_then_drains(self, tmp_path):
        sock = str(tmp_path / "bp.sock")
        layout, records = _capture()
        header, lines = _lines(layout, records)
        service = RaceService(socket_path=sock, workers=0, high_water=4)
        with ServiceThread(service):
            with ServiceClient(socket_path=sock) as client:
                reply = client._request(protocol.open_frame(header + "\n"))
                job_id = reply["job_id"]
                for start in range(0, len(lines), 8):
                    ack = client._expect(
                        client._request(
                            protocol.records_frame(job_id, lines[start:start + 8])),
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
    """Binary captures stream as base64 columnar batch frames."""

    def _binary_capture_file(self, tmp_path, name, batch_records=3):
        from repro.runtime.replay import save_capture_binary

        layout, records = _capture()
        path = tmp_path / name
        with open(path, "wb") as stream:
            save_capture_binary(stream, layout, records, kernel="k",
                                batch_records=batch_records)
        return str(path), layout, records

    def test_binary_submit_matches_jsonl_and_local_replay(
        self, service, tmp_path
    ):
        sock, _ = service
        jsonl_path, layout, records = _capture_file(tmp_path, "cap.jsonl")
        bin_path, _, _ = self._binary_capture_file(tmp_path, "cap.bcap")
        with ServiceClient(socket_path=sock) as client:
            from_jsonl = client.submit_path(jsonl_path)
            from_binary = client.submit_path(bin_path)
        local = replay(layout, records)
        assert _race_keys(from_binary.reports) == _race_keys(local)
        assert _race_keys(from_binary.reports) == _race_keys(
            from_jsonl.reports)
        assert from_binary.records_processed == len(records)
        assert (from_binary.reports.filtered_same_value
                == from_jsonl.reports.filtered_same_value)

    def test_binary_submit_through_worker_processes(self, tmp_path):
        sock = str(tmp_path / "svc.sock")
        bin_path, layout, records = self._binary_capture_file(
            tmp_path, "cap.bcap", batch_records=2)
        with ServiceThread(RaceService(socket_path=sock, workers=2)):
            with ServiceClient(socket_path=sock) as client:
                result = client.submit_path(bin_path)
        assert _race_keys(result.reports) == _race_keys(replay(layout, records))
        assert result.records_processed == len(records)

    def test_batch_frame_validation(self, service):
        sock, _ = service
        with ServiceClient(socket_path=sock) as client:
            reply = client._request(protocol.open_frame(GOOD_HEADER))
            job_id = reply["job_id"]
            # Non-string batch payload.
            bad = protocol.batch_records_frame(job_id, "AAAA", 1)
            bad["batch"] = 7
            assert client._request(bad)["verb"] == protocol.ERROR
            # Missing/negative count.
            bad = protocol.batch_records_frame(job_id, "AAAA", 1)
            del bad["count"]
            assert client._request(bad)["verb"] == protocol.ERROR
            bad = protocol.batch_records_frame(job_id, "AAAA", -3)
            assert client._request(bad)["verb"] == protocol.ERROR

    def test_corrupt_batch_payload_fails_job_cleanly(self, service, tmp_path):
        sock, _ = service
        with ServiceClient(socket_path=sock) as client:
            reply = client._request(protocol.open_frame(GOOD_HEADER))
            job_id = reply["job_id"]
            # Well-formed frame, garbage payload: the job fails, the
            # connection (and service) survive.
            garbage = protocol.batch_records_frame(
                job_id, "bm90IGEgYmF0Y2g=", 1)
            client._request(garbage)
            with pytest.raises(ServiceJobError):
                client._raise_on_error(
                    client._request(protocol.close_frame(job_id)))
        # Service still healthy afterwards.
        path, layout, records = _capture_file(tmp_path, "ok.jsonl")
        with ServiceClient(socket_path=sock) as client:
            result = client.submit_path(path)
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
        path, _layout, records = _capture_file(tmp_path, "m.jsonl")
        with ServiceClient(socket_path=sock) as client:
            client.submit_path(path, batch_size=8)
            status = client.status("metrics", "stats")
        metrics, stats = status["metrics"], status["stats"]
        parsed = parse_exposition(metrics["text"])
        assert self._sample(parsed, "repro_service_jobs", state="done") >= 1
        assert self._sample(
            parsed, "repro_service_records_in_total") == len(records)
        assert parsed["repro_service_worker_records_total"]
        # The metrics section is the stats snapshot through the registry
        # (rebuilding locally yields the same snapshot format; uptime is
        # the only clock-dependent series), plus each shard worker's own
        # always-on registry merged under a shard label.
        local = metrics_registry_from_snapshot(stats).snapshot()
        remote = metrics["snapshot"]
        worker_families = {name for name in remote
                           if name.startswith("repro_worker_")}
        assert set(remote) - worker_families == set(local)
        for name in worker_families:
            assert "shard" in remote[name]["labels"]
        for name in local:
            assert remote[name]["type"] == local[name]["type"]
            assert remote[name]["labels"] == local[name]["labels"]

    def _open_job(self, client, header):
        return client._expect(
            client._request(protocol.open_frame(header + "\n")),
            protocol.ACCEPT)["job_id"]

    def test_concurrent_jobs_have_isolated_counters(self, service, tmp_path):
        from repro.obs import parse_exposition

        sock, _ = service
        layout, records = _capture()
        header, lines = _lines(layout, records)
        first = ServiceClient(socket_path=sock)
        second = ServiceClient(socket_path=sock)
        try:
            job_a = self._open_job(first, header)
            job_b = self._open_job(second, header)
            assert job_a != job_b
            # Stream different volumes into each mid-flight job.
            first._send_batch(job_a, lines[:12])
            second._send_batch(job_b, lines[:4])
            second._send_batch(job_b, lines[4:8])
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
                client.submit_path(path)
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
            code = main(["submit", path, "--socket", sock, "--stats"])
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
            code = main(["submit", path, "--socket", sock, "--metrics"])
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
            code = main(["submit", path, "--socket", sock, "--stats",
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
        code = main(["submit", path, "--socket", str(tmp_path / "nope.sock")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
