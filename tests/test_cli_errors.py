"""CLI error surfaces: every bad input exits non-zero with a one-line
``error:`` diagnostic on stderr — never a traceback — and degraded
service results get their own exit code.
"""

import json
import pathlib

import pytest

from repro import cli
from repro.cudac import compile_cuda
from repro.errors import ReproError
from repro.faults import FaultPlan, FaultSpec, sites
from repro.gpu import GpuDevice, ListSink
from repro.gpu.hierarchy import LaunchConfig
from repro.instrument import Instrumenter
from repro.jobs import LaunchSpec, launch_spec
from repro.runtime.replay import save_capture
from repro.service import RaceService, ServiceThread

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

RACY = """
__global__ void racy(int* data) {
    if (threadIdx.x == 0) {
        data[0] = blockIdx.x + 1;
    }
    data[1] = 7;
}
"""


def _write_kernel(tmp_path):
    path = tmp_path / "racy.cu"
    path.write_text(RACY)
    return str(path)


def _write_capture(tmp_path):
    module, _ = Instrumenter().instrument_module(compile_cuda(RACY))
    device = GpuDevice()
    data = device.alloc(1024)
    sink = ListSink()
    device.launch(module, module.kernels[0].name, grid=2, block=32,
                  warp_size=8, params={"data": data}, sink=sink,
                  instrumented=True)
    path = tmp_path / "capture.jsonl"
    with open(path, "w") as stream:
        save_capture(stream, LaunchConfig.of(2, 32, 8).layout(),
                     sink.records, kernel="k")
    return str(path)


def _assert_clean_error(capsys):
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line]
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    assert "Traceback" not in err
    return lines[0]


class TestCheckErrors:
    def test_missing_source_is_a_one_line_error(self, capsys):
        assert cli.main(["check", "/nonexistent/kernel.cu"]) == 2
        _assert_clean_error(capsys)

    @pytest.mark.parametrize("subcommand", ["check", "sweep", "fix", "serve"])
    def test_retired_engine_flag_is_rejected_by_argparse(
            self, subcommand, tmp_path, capsys):
        # One engine: the selector is gone from every subcommand that
        # had it, so even its old default value is a usage error.
        argv = [subcommand, "--engine", "decoded"]
        if subcommand != "serve":
            argv.insert(1, _write_kernel(tmp_path))
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --engine" in err
        assert "Traceback" not in err

    def test_bad_fault_plan_json_is_a_one_line_error(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text("{not json")
        assert cli.main(["check", _write_kernel(tmp_path),
                         "--fault-plan", str(plan)]) == 2
        assert "fault plan" in _assert_clean_error(capsys)

    def test_missing_fault_plan_file_is_a_one_line_error(self, tmp_path,
                                                         capsys):
        assert cli.main(["check", _write_kernel(tmp_path),
                         "--fault-plan", str(tmp_path / "absent.json")]) == 2
        _assert_clean_error(capsys)

    def test_unknown_fault_site_is_a_one_line_error(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"seed": 0, "faults": [{"site": "queue.psuh", "kind": "ring-full",
                                    "nth": 1}]}))
        assert cli.main(["check", _write_kernel(tmp_path),
                         "--fault-plan", str(plan)]) == 2
        assert "queue.psuh" in _assert_clean_error(capsys)

    # The batch-emit site and its tear kind were deleted with the path
    # they injected into; the names are spelled in halves so a grep for
    # them finds no live use.
    @pytest.mark.parametrize("site, kind", [
        ("queue.push" + "_batch", "ring-full"),
        ("queue.push", "torn" + "-batch"),
    ])
    def test_retired_batch_fault_names_are_rejected_at_load(
            self, tmp_path, capsys, site, kind):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"seed": 0, "faults": [{"site": site, "kind": kind, "nth": 1}]}))
        assert cli.main(["check", _write_kernel(tmp_path),
                         "--fault-plan", str(plan)]) == 2
        _assert_clean_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["check", "KERNEL", "--columnar"],
        ["replay", "capture.bcap", "--columnar"],
    ])
    def test_retired_columnar_flag_is_rejected_by_argparse(
            self, tmp_path, capsys, argv):
        argv = [_write_kernel(tmp_path) if a == "KERNEL" else a for a in argv]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestLaunchFlags:
    """The one launch parser refuses a launch its flags would silently
    change, on every subcommand that launches, with one line."""

    @pytest.mark.parametrize("flags, message", [
        (["--buffer", "data:2:1,2,3"],
         "error: --buffer data: 3 init values for 2 words"),
        (["--buffer", "data:4", "--buffer", "data:8"],
         "error: --buffer data: parameter 'data' is already bound"),
        (["--buffer", "data:4", "--scalar", "data:1"],
         "error: --scalar data: parameter 'data' is already bound"),
        (["--buffer", "data:4", "--scalar", "n:1"],
         "error: --scalar n: kernel racy has no parameter 'n'"),
        (["--buffer", "data:4", "--buffer", "out:4"],
         "error: --buffer out: kernel racy has no parameter 'out'"),
        (["--buffer", "data:4", "--kernel", "nosuch"],
         "error: --kernel nosuch: the module has no kernel named 'nosuch'"),
        # No step budget used to report every kernel as a hang (exit 3).
        (["--buffer", "data:4", "--max-steps", "0"],
         "error: --max-steps must be at least 1, not 0"),
        (["--buffer", "data:4", "--max-steps", "-1"],
         "error: --max-steps must be at least 1, not -1"),
    ], ids=["init-past-words", "buffer-twice", "buffer-and-scalar",
            "unknown-scalar", "unknown-buffer", "unknown-kernel",
            "max-steps-0", "max-steps--1"])
    @pytest.mark.parametrize("subcommand", ["check", "explain", "sweep",
                                            "fix", "profile"])
    def test_a_launch_the_flags_would_change_is_a_one_line_error(
            self, capsys, subcommand, flags, message):
        argv = [subcommand, str(EXAMPLES / "racy.cu"), "--grid", "2", *flags]
        assert cli.main(argv) == 2
        assert _assert_clean_error(capsys) == message


    @pytest.mark.parametrize("steps", [0, -1])
    def test_a_header_or_payload_without_a_step_budget_is_refused(
            self, tmp_path, capsys, steps):
        kernel = tmp_path / "racy.cu"
        kernel.write_text(f"// repro-launch: --grid 2 --buffer data:4 "
                          f"--max-steps {steps}\n" + RACY)
        assert cli.main(["check", str(kernel)]) == 2
        message = f"--max-steps must be at least 1, not {steps}"
        assert _assert_clean_error(capsys) == "error: " + message
        with pytest.raises(ReproError, match=message):
            LaunchSpec.from_payload({"source": RACY, "max_steps": steps})


class TestBlockLimit:
    """A block holds at most 1024 threads on both modelled architectures;
    a larger one is refused where every launch is configured, not
    simulated."""

    @pytest.mark.parametrize("subcommand", ["check", "sweep"])
    def test_a_block_over_1024_threads_is_a_one_line_error(
            self, capsys, subcommand):
        argv = [subcommand, str(EXAMPLES / "racy.cu"), "--block", "1025",
                "--buffer", "data:4"]
        assert cli.main(argv) == 2
        assert (_assert_clean_error(capsys)
                == "error: a block has at most 1024 threads, not 1025")

    def test_a_payload_cannot_ask_a_shard_for_one(self):
        spec = LaunchSpec.from_payload(
            {"source": RACY, "block": 1025, "buffers": [["data", 4, []]]})
        with pytest.raises(ReproError,
                           match="a block has at most 1024 threads, not 1025"):
            launch_spec(spec)

    def test_1024_threads_still_launch(self, capsys):
        argv = ["check", str(EXAMPLES / "racy.cu"), "--block", "1024",
                "--buffer", "data:4"]
        assert cli.main(argv) == 0


class TestMaxReports:
    """A negative ``--max-reports`` used to slice reports away (5 of 6
    shown, then "... and 7 more"); it is one line on every subcommand
    that takes it, and 0 still means a summary only."""

    @pytest.mark.parametrize("subcommand", ["check", "explain", "sweep",
                                            "fix", "replay"])
    def test_a_negative_count_is_a_one_line_error(
            self, tmp_path, capsys, subcommand):
        if subcommand == "replay":
            argv = ["replay", _write_capture(tmp_path)]
        else:
            argv = [subcommand, str(EXAMPLES / "racy.cu"), "--grid", "2",
                    "--buffer", "data:4"]
        assert cli.main([*argv, "--max-reports", "-1"]) == 2
        assert _assert_clean_error(capsys) == (
            "error: --max-reports must be at least 0, not -1")

    def test_zero_is_a_summary_only(self, capsys):
        assert cli.main(["check", str(EXAMPLES / "racy.cu"), "--grid", "4",
                         "--buffer", "data:4", "--max-reports", "0"]) == 1
        out = capsys.readouterr().out
        assert "global[0x10000000]: 6 report(s)\n    ... and 6 more" in out


_SHARED_PAST_END_CU = """
__global__ void past(int* out) {
    __shared__ int s[64];
    s[threadIdx.x + 1] = threadIdx.x;
    __syncthreads();
    out[0] = s[1];
}
"""

_LOAD_PAST_HEAP_CU = """
__global__ void past(int* out) {
    out[0] = out[4];
}
"""

#: Lanes 2-7 of an 8-thread block read past ``out:4``: the warp's load
#: is one AFFINE run, and the fault names the first lane outside.
_WARP_LOAD_PAST_HEAP_CU = """
__global__ void past(int* out) {
    out[0] = out[threadIdx.x + 2];
}
"""


class TestIllegalAddress:
    """An access outside its address space's extent is what the GPU
    makes of it: a fault, here exit 2 and one ``error:`` line."""

    def test_pointer_without_a_buffer_is_null(self, capsys):
        code = cli.main(["check", str(EXAMPLES / "racy.cu"), "--grid", "2"])
        assert code == 2
        assert _assert_clean_error(capsys).startswith(
            "error: illegal address 0x0:")

    @pytest.mark.parametrize("source, block, address", [
        (_SHARED_PAST_END_CU, "64", "0x100"),        # s[64], one past s
        (_LOAD_PAST_HEAP_CU, "32", "0x10000010"),   # out[4] of out:4
        (_WARP_LOAD_PAST_HEAP_CU, "8", "0x10000010"),  # lane 2's out[4]
    ], ids=["shared-store-past-declaration", "load-past-heap-cursor",
            "warp-load-past-heap-cursor"])
    def test_access_past_the_extent(self, tmp_path, capsys, source, block,
                                    address):
        path = tmp_path / "past.cu"
        path.write_text(source)
        code = cli.main(["check", str(path), "--block", block,
                         "--buffer", "out:4"])
        assert code == 2
        assert _assert_clean_error(capsys).startswith(
            f"error: illegal address {address}:")


#: One row each (capture JSON form, on a 2-block, 8-thread, warp-4
#: launch) of the shapes the engine never emits.  The first six ended
#: in a KeyError traceback; the last three were accepted silently.
_ROWS_THE_ENGINE_CANNOT_EMIT = {
    "if-on-warp-99": {"kind": "if", "warp": 99, "active": [0, 1, 2, 3],
                      "then_mask": [0]},
    "barrier-on-block-99": {"kind": "bar", "warp": 99,
                            "active": list(range(8))},
    "store-on-warp-99": {"kind": "store", "warp": 99, "active": [0],
                         "addrs": {"0": ["global", 0]}, "values": {"0": 1}},
    "store-by-tid-999": {"kind": "store", "warp": 0, "active": [999],
                         "addrs": {"999": ["global", 0]}},
    "addrs-lack-an-active-tid": {"kind": "store", "warp": 0,
                                 "active": [0, 1],
                                 "addrs": {"0": ["global", 0]}},
    "barrier-naming-tid-999": {"kind": "bar", "warp": 0,
                               "active": [*range(8), 999]},
    "lane-outside-its-warp": {"kind": "store", "warp": 0, "active": [0, 5],
                              "addrs": {"0": ["global", 0],
                                        "5": ["global", 4]}},
    "shared-lane-from-another-block": {
        "kind": "store", "warp": 1, "active": [4, 12],
        "addrs": {"4": ["shared", 0], "12": ["shared", 4]}},
    "present-none-value": {"kind": "store", "warp": 0, "active": [0],
                           "addrs": {"0": ["global", 0]},
                           "values": {"0": None}},
    "barrier-carrying-a-lane": {"kind": "bar", "warp": 0,
                                "active": list(range(8)),
                                "addrs": {"0": ["global", 0]}},
}


class TestReplayErrors:
    def test_missing_capture_is_a_one_line_error(self, capsys):
        assert cli.main(["replay", "/nonexistent/capture.jsonl"]) == 2
        _assert_clean_error(capsys)

    def test_truncated_capture_is_a_one_line_error(self, tmp_path, capsys):
        source = _write_capture(tmp_path)
        truncated = tmp_path / "truncated.jsonl"
        text = open(source).read()
        truncated.write_text(text[: len(text) // 2])
        assert cli.main(["replay", str(truncated)]) == 2
        _assert_clean_error(capsys)

    def test_garbage_header_is_a_one_line_error(self, tmp_path, capsys):
        capture = tmp_path / "garbage.jsonl"
        capture.write_text("this is not a capture header\n")
        assert cli.main(["replay", str(capture)]) == 2
        _assert_clean_error(capsys)

    def test_hostile_access_width_is_a_one_line_error(self, tmp_path, capsys):
        # One LOAD claiming a terabyte-wide access: it used to load
        # cleanly and then hang the replay building ~2**38 shadow cells.
        from repro.events import LogRecord, RecordKind
        from repro.runtime.replay import save_capture_binary
        from repro.trace.operations import Space

        capture = tmp_path / "hostile.bcap"
        record = LogRecord(kind=RecordKind.LOAD, warp=0, active=frozenset({0}),
                           addrs={0: (Space.GLOBAL, 0)}, width=1 << 40)
        with open(capture, "wb") as stream:
            save_capture_binary(stream, LaunchConfig.of(1, 32, 32).layout(),
                                [record], kernel="k")
        assert cli.main(["replay", str(capture)]) == 2
        assert "access width" in _assert_clean_error(capsys)

    @pytest.mark.parametrize("flags", [
        ["replay"], ["replay", "--reference"], ["replay", "--predict"],
        ["profile"], ["replay", "--socket", "SOCKET"]],
        ids=["fused", "reference", "predict", "profile", "socket"])
    @pytest.mark.parametrize(
        "tamper", ["duplicate-lane", "mask-extra", *_ROWS_THE_ENGINE_CANNOT_EMIT])
    def test_lanes_disagreeing_with_the_mask_are_a_one_line_error(
            self, tmp_path, capsys, request, tamper, flags):
        # Used to decode: plain ``replay`` then said "no races detected"
        # while ``--reference`` and ``--predict`` exited 1 in a KeyError
        # traceback from ``record_to_ops``.  The other rows, each alone
        # in a BCAP and a JSONL capture, used to end in a KeyError
        # traceback or be accepted without a word.
        from repro.columnar import ColumnarBatch
        from repro.events import LogRecord, RecordKind
        from repro.runtime.replay import (
            capture_header_line, write_binary_batch, write_binary_header)
        from repro.trace.operations import Space

        from test_columnar import _write_bcap

        if tamper in _ROWS_THE_ENGINE_CANNOT_EMIT:
            layout = LaunchConfig.of(2, 8, 4).layout()
            row = {"pc": 3, **_ROWS_THE_ENGINE_CANNOT_EMIT[tamper]}
            jsonl = tmp_path / "hostile.jsonl"
            jsonl.write_text(
                f"{capture_header_line(layout, 'k')}\n{json.dumps(row)}\n")
            bcap = tmp_path / "hostile.bcap"
            _write_bcap(bcap, layout, [row])
            captures = [bcap, jsonl]
        else:
            layout = LaunchConfig.of(1, 32, 32).layout()
            batch = ColumnarBatch.from_records([LogRecord(
                kind=RecordKind.STORE, warp=0, active=frozenset({0, 1}),
                addrs={0: (Space.GLOBAL, 0), 1: (Space.GLOBAL, 4)},
                values={0: 1, 1: 2})])
            if tamper == "duplicate-lane":
                batch.lane_tids[1] = 0
            else:
                batch.masks[0] = (0, 1, 2)
            captures = [tmp_path / "hostile.bcap"]
            with open(captures[0], "wb") as stream:
                write_binary_header(stream, layout, "k")
                write_binary_batch(stream, batch)
        flags = [request.getfixturevalue("live_service") if f == "SOCKET"
                 else f for f in flags]
        for capture in captures:
            assert cli.main([*flags, str(capture)]) == 2
            line = _assert_clean_error(capsys)
            if tamper not in _ROWS_THE_ENGINE_CANNOT_EMIT:
                assert "are not its active mask" in line

    @pytest.mark.parametrize("field, hostile", [
        ("warp", "w"),
        ("pc", "p"),
        ("warp", True),
        ("active", [0, "x"]),
        ("then_mask", [1.5]),
        ("addrs", {"0": ["global", "x"]}),
        ("addrs", {"x": ["global", 64]}),
        ("values", {"x": 1}),
    ])
    def test_non_integer_record_field_is_a_one_line_error(
            self, tmp_path, capsys, field, hostile):
        # ``"warp": "w"`` used to load, then die in the detector with
        # ``TypeError: '<=' not supported between 'int' and 'str'``.
        header, first, *rest = open(_write_capture(tmp_path)).read().splitlines()
        record = json.loads(first)
        record[field] = hostile
        capture = tmp_path / "hostile.jsonl"
        capture.write_text("\n".join([header, json.dumps(record), *rest]) + "\n")
        assert cli.main(["replay", str(capture)]) == 2
        assert "malformed capture record" in _assert_clean_error(capsys)

    @pytest.mark.parametrize("fmt", ["jsonl", "binary"])
    @pytest.mark.parametrize("layout", [
        {"num_blocks": 1, "threads_per_block": 32.5, "warp_size": 32},
        {"num_blocks": 40_000_000, "threads_per_block": 1024,
         "warp_size": 32},
    ], ids=["float-threads", "4e10-threads"])
    def test_hostile_header_is_a_one_line_error(self, tmp_path, capsys,
                                                layout, fmt):
        # The float used to exit 1 in a TypeError traceback; the 140-byte
        # 4e10-thread capture in a MemoryError (or the machine's memory).
        import struct

        from repro.runtime.replay import BINARY_MAGIC, write_frame

        header = json.dumps({"format": "barracuda-capture", "version": 1,
                             "kernel": "k", "layout": layout})
        capture = tmp_path / "hostile.capture"
        if fmt == "jsonl":
            capture.write_text(header + "\n")
        else:
            with open(capture, "wb") as stream:
                stream.write(BINARY_MAGIC + struct.pack("<H", 1))
                write_frame(stream, header.encode())
        assert cli.main(["replay", str(capture)]) == 2
        assert "malformed capture layout" in _assert_clean_error(capsys)

    def test_fault_plan_corruption_surfaces_as_clean_error(self, tmp_path,
                                                           capsys):
        capture = _write_capture(tmp_path)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"seed": 7, "faults": [{"site": sites.REPLAY_LINE,
                                    "kind": sites.GARBAGE_LINE, "nth": 1}]}))
        assert cli.main(["replay", capture, "--fault-plan", str(plan)]) == 2
        _assert_clean_error(capsys)

    def test_fault_plan_counts_hits_across_the_capture(self, tmp_path, capsys):
        # ``nth: 3`` never fired from the CLI: the plan was wrapped in a
        # fresh injector for every line, so every line was hit 1.
        capture = _write_capture(tmp_path)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"seed": 7, "faults": [{"site": sites.REPLAY_LINE,
                                    "kind": sites.GARBAGE_LINE, "nth": 3}]}))
        assert cli.main(["replay", capture, "--fault-plan", str(plan)]) == 2
        assert "on line 4" in _assert_clean_error(capsys)


class TestConvertErrors:
    @pytest.mark.parametrize("count", [0, -3])
    def test_non_positive_batch_records_is_a_one_line_error(
            self, tmp_path, capsys, count):
        # -3 used to write one frame per record, and 0 to mean the
        # default, both exiting 0.
        capture = _write_capture(tmp_path)
        out = tmp_path / "out.bcap"
        assert cli.main(["convert", capture, str(out), "--to", "binary",
                         "--batch-records", str(count)]) == 2
        assert f"at least 1, not {count}" in _assert_clean_error(capsys)


class TestServeErrors:
    def test_bad_fault_plan_json_is_a_one_line_error(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text("[1, 2, 3]")
        assert cli.main(["serve", "--socket", str(tmp_path / "s.sock"),
                         "--fault-plan", str(plan)]) == 2
        _assert_clean_error(capsys)


class TestSubmitErrors:
    """Submission is ``replay --socket``; ``submit`` is not a subcommand."""

    def test_retired_submit_subcommand_is_rejected_by_argparse(
            self, tmp_path, capsys):
        assert "submit" not in cli._SUBCOMMANDS
        with pytest.raises(SystemExit) as exc:  # parsed as `check submit …`
            cli.main(["submit", _write_capture(tmp_path), "--socket", "s"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flags", [
        ["--reference", "--socket", "SOCK"], ["--reference", "--port", "1"],
        ["--health"], ["--flight-dump", "dump.json"]])
    def test_flags_that_contradict_where_the_replay_runs(
            self, tmp_path, capsys, flags):
        # The reference detector lives in this process; health and the
        # flight recorder live in a service.
        flags = [str(tmp_path / "nope.sock") if f == "SOCK" else f
                 for f in flags]
        assert cli.main(["replay", _write_capture(tmp_path), *flags]) == 2
        _assert_clean_error(capsys)

    def test_unreachable_service_is_a_one_line_error(self, tmp_path, capsys):
        capture = _write_capture(tmp_path)
        assert cli.main(["replay", capture, "--socket",
                         str(tmp_path / "nope.sock"),
                         "--max-retries", "0"]) == 2
        _assert_clean_error(capsys)

    def test_bad_fault_plan_json_is_a_one_line_error(self, tmp_path, capsys):
        capture = _write_capture(tmp_path)
        plan = tmp_path / "plan.json"
        plan.write_text("{not json")
        assert cli.main(["replay", capture, "--socket",
                         str(tmp_path / "nope.sock"),
                         "--fault-plan", str(plan)]) == 2
        _assert_clean_error(capsys)

    def test_degraded_job_exits_4_with_failure_log(self, tmp_path, capsys):
        capture = _write_capture(tmp_path)
        sock = str(tmp_path / "svc.sock")
        plan = FaultPlan(specs=(FaultSpec(site=sites.WORKER_BATCH,
                                          kind=sites.CRASH, nth=1),))
        thread = ServiceThread(RaceService(socket_path=sock, workers=0,
                                           max_requeues=1,
                                           fault_plan=plan)).start()
        try:
            code = cli.main(["replay", capture, "--socket", sock])
        finally:
            thread.stop()
        assert code == 4
        err = capsys.readouterr().err
        assert "degraded" in err
        assert "requeue budget" in err
        assert "Traceback" not in err

    def test_retry_notice_is_printed_on_transient_failure(self, tmp_path,
                                                          capsys):
        capture = _write_capture(tmp_path)
        sock = str(tmp_path / "svc.sock")
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"seed": 0, "faults": [{"site": sites.CLIENT_SEND,
                                    "kind": sites.CONNECTION_RESET,
                                    "nth": 1, "times": 1}]}))
        thread = ServiceThread(RaceService(socket_path=sock,
                                           workers=0)).start()
        try:
            code = cli.main(["replay", capture, "--socket", sock,
                             "--fault-plan", str(plan)])
        finally:
            thread.stop()
        assert code == 1  # races found in the racy capture
        err = capsys.readouterr().err
        assert "succeeded on attempt 2" in err


_BAD_MASK_PTX = """
.version 4.3
.target sm_35
.address_size 64

.visible .entry k(
    .param .u64 out
)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;

    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    shfl.sync.bfly.b32 %r2, %r1, 1, 31, 256;
    cvt.s64.s32 %rd2, %r1;
    mul.lo.s64 %rd3, %rd2, 4;
    add.s64 %rd3, %rd1, %rd3;
    st.global.u32 [%rd3], %r2;
    ret;
}
"""

_BAD_SIZE_PTX = """
.version 4.3
.target sm_35
.address_size 64

.visible .entry k(
    .param .u64 src
)
{
    .reg .u32 %r<3>;
    .reg .u64 %rd<3>;
    .shared .align 4 .b8 tile[32];

    ld.param.u64 %rd1, [src];
    mov.u64 %rd2, tile;
    cp.async.ca.shared.global [%rd2], [%rd1], 3;
    cp.async.wait_all;
    ret;
}
"""

_BAD_WAIT_PTX = """
.version 4.3
.target sm_35
.address_size 64

.visible .entry k(
    .param .u64 src
)
{
    .reg .u32 %r<3>;
    .reg .u64 %rd<3>;
    .shared .align 4 .b8 tile[32];

    ld.param.u64 %rd1, [src];
    mov.u64 %rd2, tile;
    cp.async.ca.shared.global [%rd2], [%rd1], 4;
    cp.async.commit_group;
    cp.async.wait_group %r1;
    ret;
}
"""

_INF_STORE_PTX = """
.version 4.3
.target sm_35
.address_size 64

.visible .entry k(
    .param .u64 out
)
{
    .reg .f32 %f<4>;
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;

    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    cvt.rn.f32.u32 %f1, %r1;
    mov.f32 %f2, 0.0;
    div.rn.f32 %f3, %f1, %f2;
    cvt.s64.s32 %rd2, %r1;
    mul.lo.s64 %rd3, %rd2, 4;
    add.s64 %rd3, %rd1, %rd3;
    st.global.f32 [%rd3], %f3;
    ret;
}
"""

_GRID_SYNC_CU = """
__global__ void g(int* out) {
    out[threadIdx.x] = 1;
    __grid_sync();
}
"""


class TestModernIdiomErrors:
    """Malformed shuffle masks, cp.async misuse, and non-cooperative
    grid sync all surface as one-line ``error:`` diagnostics, never
    tracebacks."""

    ARGS = ["--block", "8", "--warp-size", "8"]

    def _check(self, tmp_path, name, text, buffer):
        path = tmp_path / name
        path.write_text(text)
        return cli.main(["check", str(path), "--buffer", buffer] + self.ARGS)

    def test_membermask_with_no_live_lane(self, tmp_path, capsys):
        code = self._check(tmp_path, "mask.ptx", _BAD_MASK_PTX, "out:8")
        assert code == 2
        assert "membermask" in _assert_clean_error(capsys)

    def test_non_finite_float_store(self, tmp_path, capsys):
        # x / 0.0 is modelled as inf; storing it was an OverflowError
        # traceback from the record's logged value.
        code = self._check(tmp_path, "inf.ptx", _INF_STORE_PTX, "out:8")
        assert code == 2
        assert _assert_clean_error(capsys) == (
            "error: store at line 22 writes a non-finite float")

    def test_non_finite_float_vector_store(self, tmp_path, capsys):
        # The same store widened to v2: int(inf) was an OverflowError
        # traceback from the vector branch of the store itself.
        text = _INF_STORE_PTX.replace(
            "mul.lo.s64 %rd3, %rd2, 4;", "mul.lo.s64 %rd3, %rd2, 8;").replace(
            "st.global.f32 [%rd3], %f3;", "st.global.v2.f32 [%rd3], {%f3, %f3};")
        code = self._check(tmp_path, "inf2.ptx", text, "out:16")
        assert code == 2
        assert _assert_clean_error(capsys) == (
            "error: store at line 22 writes a non-finite float")

    def test_cp_async_bad_copy_size(self, tmp_path, capsys):
        code = self._check(tmp_path, "size.ptx", _BAD_SIZE_PTX, "src:8")
        assert code == 2
        assert "copy size" in _assert_clean_error(capsys)

    def test_cp_async_wait_group_without_immediate(self, tmp_path, capsys):
        code = self._check(tmp_path, "wait.ptx", _BAD_WAIT_PTX, "src:8")
        assert code == 2
        assert "group count" in _assert_clean_error(capsys)

    def test_grid_sync_without_cooperative_flag(self, tmp_path, capsys):
        code = self._check(tmp_path, "grid.cu", _GRID_SYNC_CU, "out:8")
        assert code == 2
        assert "cooperative" in _assert_clean_error(capsys)

    def test_grid_sync_with_cooperative_flag_runs(self, tmp_path, capsys):
        path = tmp_path / "grid.cu"
        path.write_text(_GRID_SYNC_CU)
        code = cli.main(["check", str(path), "--buffer", "out:8",
                         "--cooperative"] + self.ARGS)
        assert code == 0
        assert "no races" in capsys.readouterr().out


_BODY_PTX = """
.version 4.3
.target sm_35
.address_size 64

.visible .entry k(
    .param .u64 out
)
{{
    .reg .pred %p<2>;
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;

    ld.param.u64 %rd1, [out];
    mov.u32 %r1, %tid.x;
    setp.lt.s32 %p1, %r1, 0;
    cvt.s64.s32 %rd2, %r1;
    mul.lo.s64 %rd3, %rd2, 4;
    add.s64 %rd3, %rd1, %rd3;
    {statement}
    st.global.u32 [%rd3], %r1;
    ret;
}}
"""


class TestMalformedInstructions:
    """A statement the engine or the instrumenter cannot compile is a
    one-line ``error:`` (exit 2) when a thread reaches it, and costs
    nothing when none does — ``%p1`` is false in every thread."""

    def _check(self, tmp_path, statement):
        path = tmp_path / "k.ptx"
        path.write_text(_BODY_PTX.format(statement=statement))
        return cli.main(["check", str(path), "--buffer", "out:8",
                         "--block", "8", "--warp-size", "8"])

    def test_short_operand_list_is_a_one_line_error(self, tmp_path, capsys):
        assert self._check(tmp_path, "add.s32 %r2, %r1;") == 2
        line = _assert_clean_error(capsys)
        assert "'k': malformed instruction 'add.s32' at pc " in line
        assert "(line 20)" in line

    def test_unknown_opcode_is_a_one_line_error(self, tmp_path, capsys):
        assert self._check(tmp_path, "frobnicate.s32 %r2, %r1;") == 2
        assert _assert_clean_error(capsys) == (
            "error: unsupported opcode 'frobnicate.s32'")

    @pytest.mark.parametrize(
        "statement", ["add.s32 %r2, %r1;", "frobnicate.s32 %r2, %r1;"])
    def test_unreached_statement_does_not_fail_the_run(
            self, statement, tmp_path, capsys):
        assert self._check(tmp_path, "@%p1 " + statement) == 0
        assert "no races" in capsys.readouterr().out

    def test_logged_access_missing_an_operand(self, tmp_path, capsys):
        assert self._check(tmp_path, "st.global.u32 [%rd3];") == 2
        line = _assert_clean_error(capsys)
        assert "line 20: st.global.u32 [%rd3];" in line
        assert "needs 2" in line


class TestLintExitCodes:
    """``repro lint --fail-on`` picks which findings drive the exit code."""

    WARNING_ONLY = None  # populated lazily from the suite

    def _warning_only_kernel(self, tmp_path):
        # spinlock_missing_acquire_fence lints as exactly one
        # warning-severity finding (unfenced-lock), no errors.
        from repro.suite import ALL_PROGRAMS

        program = next(p for p in ALL_PROGRAMS
                       if p.name == "spinlock_missing_acquire_fence")
        path = tmp_path / "warn.cu"
        path.write_text(program.source)
        return str(path)

    def test_error_findings_exit_1_by_default(self, tmp_path, capsys):
        assert cli.main(["lint", _write_kernel(tmp_path)]) == 1
        assert "divergent-store" in capsys.readouterr().out

    def test_warning_only_kernel_exits_0_by_default(self, tmp_path, capsys):
        assert cli.main(["lint", self._warning_only_kernel(tmp_path)]) == 0
        assert "warning" in capsys.readouterr().out

    def test_fail_on_warning_exits_1_on_warning_only_kernel(self, tmp_path):
        assert cli.main(["lint", self._warning_only_kernel(tmp_path),
                         "--fail-on", "warning"]) == 1

    def test_fail_on_never_exits_0_on_errors(self, tmp_path):
        assert cli.main(["lint", _write_kernel(tmp_path),
                         "--fail-on", "never"]) == 0

    def test_fail_on_rejects_unknown_value(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["lint", _write_kernel(tmp_path),
                      "--fail-on", "info"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_source_is_a_one_line_error(self, capsys):
        assert cli.main(["lint", "/nonexistent/kernel.cu"]) == 2
        _assert_clean_error(capsys)


# ----------------------------------------------------------------------
# One boundary: whatever a subcommand is handed or told to write, a
# failure is exit 2 and one ``error:`` line — never a traceback whose
# exit status 1 would read as "races found".
# ----------------------------------------------------------------------
LAUNCH = ["--grid", "2", "--buffer", "data:4"]
#: Small requests, so the rows that fail only when writing stay cheap.
SMALL = {"sweep": ["--schedules", "1"],
         "fix": ["--max-candidates", "1", "--verify-schedules", "1"]}


@pytest.fixture()
def live_service(tmp_path):
    sock = str(tmp_path / "svc.sock")
    thread = ServiceThread(RaceService(socket_path=sock, workers=0)).start()
    yield sock
    thread.stop()


def _binary_capture(tmp_path, name):
    path = str(tmp_path / name)
    assert cli.main(["convert", _write_capture(tmp_path), path,
                     "--to", "binary"]) == 0
    return path


def _hostile_rows():
    def flags(command):
        return [] if command == "lint" else LAUNCH + SMALL.get(command, [])

    rows = [pytest.param(["replay", "NOT-UTF8"], id="replay-non-utf8-capture")]
    for command in ("check", "lint", "sweep", "fix", "explain", "profile"):
        rows.append(pytest.param([command, "NOT-UTF8"] + flags(command),
                                 id=f"{command}-non-utf8-source"))
    for command in ("check", "lint", "sweep", "fix"):
        rows.append(pytest.param(
            [command, "KERNEL"] + flags(command) + ["--trace", "UNWRITABLE"],
            id=f"{command}-unwritable-trace"))
    rows += [
        pytest.param(["replay", "CAPTURE", "--trace", "UNWRITABLE"],
                     id="replay-unwritable-trace"),
        pytest.param(["sweep", "KERNEL"] + LAUNCH + SMALL["sweep"]
                     + ["--witness-dir", "UNWRITABLE"],
                     id="sweep-unwritable-witness-dir"),
        pytest.param(["fix", "KERNEL"] + LAUNCH + SMALL["fix"]
                     + ["--patch-dir", "UNWRITABLE"],
                     id="fix-unwritable-patch-dir"),
        pytest.param(["profile", "KERNEL"] + LAUNCH + ["--out", "UNWRITABLE"],
                     id="profile-unwritable-out"),
        pytest.param(["check", "KERNEL"] + LAUNCH + ["--capture", "UNWRITABLE"],
                     id="check-unwritable-capture"),
        pytest.param(["convert", "CAPTURE", "UNWRITABLE"],
                     id="convert-unwritable-dst"),
        pytest.param(["replay", "CAPTURE", "--socket", "SOCKET",
                      "--flight-dump", "UNWRITABLE"],
                     id="submit-unwritable-flight-dump"),
        pytest.param(["replay", "CAPTURE", "--socket", "SOCKET",
                      "--trace", "UNWRITABLE"],
                     id="submit-unwritable-trace"),
    ]
    return rows


def _resolve(argv, tmp_path, request):
    """``argv`` with its placeholders made real under ``tmp_path``."""
    not_utf8 = tmp_path / "blob.cu"
    not_utf8.write_bytes(b"\xff\xfe__global__ void k(int* data) { }\x80\n")
    # A path below a regular file: no user, root included, can create it.
    (tmp_path / "plain-file").write_text("")
    places = {
        "NOT-UTF8": lambda: str(not_utf8),
        "KERNEL": lambda: _write_kernel(tmp_path),
        "CAPTURE": lambda: _write_capture(tmp_path),
        "UNWRITABLE": lambda: str(tmp_path / "plain-file" / "out"),
        "SOCKET": lambda: request.getfixturevalue("live_service"),
    }
    return [places[a]() if a in places else a for a in argv]


@pytest.mark.parametrize("argv", _hostile_rows())
def test_hostile_input_or_unwritable_output_is_a_one_line_error(
        argv, tmp_path, request, capsys):
    assert cli.main(_resolve(argv, tmp_path, request)) == 2
    _assert_clean_error(capsys)


def _output_rows():
    rows = [pytest.param(["check", "KERNEL"] + LAUNCH + ["--capture", "UNWRITABLE"],
                         id="check-capture")]
    for command in ("check", "lint", "sweep", "fix"):
        flags = [] if command == "lint" else LAUNCH + SMALL.get(command, [])
        rows.append(pytest.param(
            [command, "KERNEL"] + flags + ["--trace", "UNWRITABLE"],
            id=f"{command}-trace"))
    rows += [
        pytest.param(["replay", "CAPTURE", "--trace", "UNWRITABLE"],
                     id="replay-trace"),
        pytest.param(["replay", "CAPTURE", "--socket", "SOCKET",
                      "--trace", "UNWRITABLE"], id="submit-trace"),
    ]
    return rows


@pytest.mark.parametrize("argv", _output_rows())
def test_an_unwritable_output_path_fails_before_the_run(
        argv, tmp_path, request, capsys):
    # Each run would print the racy kernel's findings or races; the path
    # it cannot write is found first, so stdout stays empty.
    argv = _resolve(argv, tmp_path, request)
    capsys.readouterr()
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = [line for line in captured.err.splitlines() if line]
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("fmt", ["binary", "jsonl"])
@pytest.mark.parametrize("command", ["explain", "profile", "replay"])
def test_a_capture_is_recognised_by_content_not_by_name(
        command, fmt, tmp_path, capsys):
    # ``run.cap`` is what ``check --capture run.cap`` writes: no suffix
    # any subcommand ever looked for.
    if fmt == "binary":
        named = _binary_capture(tmp_path, "run.bcap")
    else:
        named = _write_capture(tmp_path)
    anonymous = str(tmp_path / "run.cap")
    with open(named, "rb") as src, open(anonymous, "wb") as dst:
        dst.write(src.read())
    capsys.readouterr()
    outcomes = []
    for path in (named, anonymous):
        code = cli.main([command, path])
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    assert outcomes[0][0] in (0, 1)
    assert outcomes[1] == outcomes[0]
