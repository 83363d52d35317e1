"""The command-line interface."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

RACY = """
__global__ void racy(int* data) {
    if (threadIdx.x == 0) {
        data[0] = blockIdx.x + 1;
    }
}
"""

CLEAN = """
__global__ void clean(int* data) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    data[gid] = gid;
}
"""

HANGING = """
__global__ void spin(int* flag) {
    while (flag[0] == 0) { }
}
"""

DIVERGENT_BARRIER = """
__global__ void diverge(int* data) {
    if (threadIdx.x < 16) {
        __syncthreads();
    }
    data[threadIdx.x] = 1;
}
"""


@pytest.fixture
def source(tmp_path):
    def write(text, name="kernel.cu"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run_cli(args):
    return main(args)


class TestExitCodes:
    def test_racy_kernel_exits_nonzero(self, source, capsys):
        code = run_cli([source(RACY), "--grid", "2", "--buffer", "data:4"])
        out = capsys.readouterr().out
        assert code == 1
        assert "race report" in out
        assert "inter-block" in out

    def test_clean_kernel_exits_zero(self, source, capsys):
        code = run_cli([source(CLEAN), "--grid", "2", "--block", "64",
                        "--buffer", "data:128"])
        assert code == 0
        assert "no races detected" in capsys.readouterr().out

    def test_hang_exits_3(self, source, capsys):
        code = run_cli([source(HANGING), "--buffer", "flag:1",
                        "--max-steps", "5000"])
        assert code == 3
        assert "HANG" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        code = run_cli(["/nonexistent.cu"])
        assert code == 2

    def test_barrier_divergence_reported(self, source, capsys):
        code = run_cli([source(DIVERGENT_BARRIER), "--block", "32",
                        "--buffer", "data:32"])
        assert code == 1
        assert "barrier divergence" in capsys.readouterr().out


class TestOptions:
    def test_buffer_init_and_dump(self, source, capsys):
        code = run_cli([source(CLEAN), "--block", "4", "--buffer",
                        "data:4:9,9", "--dump-buffers"])
        out = capsys.readouterr().out
        assert code == 0
        assert "data = [0, 1, 2, 3]" in out

    def test_stats(self, source, capsys):
        run_cli([source(CLEAN), "--block", "4", "--buffer", "data:4",
                 "--stats"])
        out = capsys.readouterr().out
        assert "instrumented sites" in out
        assert "log records emitted" in out
        assert "queue stalls" in out
        assert "queue occupancy" in out

    def test_scalar_parameters(self, source, capsys):
        guarded = """
__global__ void k(int* data, int n) {
    int tid = threadIdx.x;
    if (tid < n) { data[tid] = 1; }
}
"""
        code = run_cli([source(guarded), "--block", "8",
                        "--buffer", "data:8", "--scalar", "n:4",
                        "--dump-buffers"])
        out = capsys.readouterr().out
        assert code == 0
        assert "data = [1, 1, 1, 1, 0, 0, 0, 0]" in out

    def test_ptx_input(self, source, capsys):
        ptx = """
.version 4.3
.target sm_35
.address_size 64
.visible .entry k(.param .u64 data)
{
    .reg .u32 %r<3>;
    .reg .u64 %rd<2>;
    ld.param.u64 %rd1, [data];
    mov.u32 %r1, 7;
    st.global.u32 [%rd1], %r1;
    ret;
}
"""
        code = run_cli([source(ptx, "kernel.ptx"), "--block", "1",
                        "--buffer", "data:1", "--dump-buffers"])
        out = capsys.readouterr().out
        assert code == 0
        assert "data = [7]" in out

    def test_no_filter_same_value(self, source, capsys):
        same_value = """
__global__ void sv(int* data) { data[0] = 7; }
"""
        path = source(same_value)
        assert run_cli([path, "--block", "32", "--buffer", "data:1"]) == 0
        assert run_cli([path, "--block", "32", "--buffer", "data:1",
                        "--no-filter-same-value"]) == 1

    def test_narrow_warp_exposes_latent_race(self, source):
        # Two unbarriered tail levels: the second level reads what the
        # first wrote, which is lockstep-safe only while both levels'
        # threads share a warp.
        tail = """
__global__ void tail(int* data, int* out) {
    __shared__ int s[32];
    int tid = threadIdx.x;
    s[tid] = data[tid];
    __syncthreads();
    if (tid < 16) { s[tid] = s[tid] + s[tid + 16]; }
    if (tid < 8)  { s[tid] = s[tid] + s[tid + 8]; }
    if (tid == 0) { out[0] = s[0]; }
}
"""
        path = source(tail)
        base = ["--block", "32", "--buffer", "data:32:1,2,3", "--buffer", "out:1"]
        assert run_cli([path] + base) == 0
        assert run_cli([path, "--warp-size", "8"] + base) == 1

    def test_bad_buffer_spec_rejected(self, source):
        with pytest.raises(SystemExit):
            build_parser().parse_args([source(CLEAN), "--buffer", "data"])


class TestSubcommands:
    def test_explicit_check_subcommand(self, source, capsys):
        code = run_cli(["check", source(RACY), "--grid", "2",
                        "--buffer", "data:4"])
        assert code == 1
        assert "race report" in capsys.readouterr().out

    def _capture_file(self, tmp_path, source_text=RACY, grid=2):
        from repro.cudac import compile_cuda
        from repro.gpu import GpuDevice, ListSink
        from repro.gpu.hierarchy import LaunchConfig
        from repro.instrument import Instrumenter
        from repro.runtime.replay import save_capture

        module, _ = Instrumenter().instrument_module(compile_cuda(source_text))
        device = GpuDevice()
        data = device.alloc(64)
        sink = ListSink()
        device.launch(module, module.kernels[0].name, grid=grid, block=8,
                      warp_size=8, params={"data": data}, sink=sink,
                      instrumented=True)
        path = tmp_path / "capture.jsonl"
        with open(path, "w") as stream:
            save_capture(stream, LaunchConfig.of(grid, 8, 8).layout(),
                         sink.records, kernel="k")
        return str(path)

    def test_replay_subcommand(self, tmp_path, capsys):
        path = self._capture_file(tmp_path)
        code = run_cli(["replay", path, "--stats"])
        out = capsys.readouterr().out
        assert code == 1
        assert "race report" in out
        assert "records replayed" in out

    def test_replay_reference_detector_agrees(self, tmp_path, capsys):
        path = self._capture_file(tmp_path)
        assert run_cli(["replay", path]) == run_cli(["replay", path,
                                                     "--reference"])

    def test_replay_malformed_capture_exits_2(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not a capture\n")
        assert run_cli(["replay", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_without_endpoint_exits_2(self, capsys):
        assert run_cli(["serve", "--workers", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_legacy_invocation_still_default(self, source, capsys):
        # No subcommand word: the first argument is a kernel source path.
        code = run_cli([source(CLEAN), "--grid", "2", "--block", "64",
                        "--buffer", "data:128"])
        assert code == 0
        assert "no races detected" in capsys.readouterr().out


class TestCaptureFormats:
    """``--capture`` (always binary), ``convert``, replay of both formats."""

    def _check_with_capture(self, source, tmp_path, name, extra=()):
        path = str(tmp_path / name)
        code = run_cli(["check", source(RACY), "--grid", "2",
                        "--buffer", "data:4", "--capture", path, *extra])
        assert code == 1
        return path

    def _as_jsonl(self, binary, tmp_path, name="cap.jsonl"):
        path = str(tmp_path / name)
        assert run_cli(["convert", binary, path, "--to", "jsonl"]) == 0
        return path

    def test_check_capture_jsonl_then_replay(self, source, tmp_path, capsys):
        binary = self._check_with_capture(source, tmp_path, "cap.bcap")
        check_out = capsys.readouterr().out
        assert "race report" in check_out
        assert run_cli(["replay", self._as_jsonl(binary, tmp_path)]) == 1
        assert "race report" in capsys.readouterr().out

    def test_check_capture_binary_auto_by_extension(
        self, source, tmp_path, capsys
    ):
        """The path's extension picks nothing: every capture is BCAP,
        and readers find that out from the magic bytes."""
        from repro.runtime.replay import BINARY_MAGIC, detect_capture_format

        path = self._check_with_capture(source, tmp_path, "x.jsonl")
        check_out = capsys.readouterr().out
        assert detect_capture_format(path) == "binary"
        with open(path, "rb") as stream:
            assert stream.read(4) == BINARY_MAGIC
        # Replays to the same report as the live check (which alone has
        # the PTX to add static-prediction tags), in both formats.
        assert run_cli(["replay", path]) == 1
        binary_out = capsys.readouterr().out
        assert binary_out == re.sub(
            r" \[statically predicted: [^\]]*\]", "", check_out)
        jsonl = self._as_jsonl(path, tmp_path, "converted.jsonl")
        capsys.readouterr()
        assert detect_capture_format(jsonl) == "jsonl"
        assert run_cli(["replay", jsonl]) == 1
        assert capsys.readouterr().out == binary_out

    def test_capture_format_flag_overrides_extension(self, source, tmp_path,
                                                     capsys):
        """The format flag is gone: argparse rejects it, nothing is run."""
        path = tmp_path / "cap.jsonl"
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["check", source(RACY), "--grid", "2", "--buffer",
                     "data:4", "--capture", str(path),
                     "--capture" + "-format", "binary"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not path.exists()

    def test_convert_round_trip(self, source, tmp_path, capsys):
        jsonl = self._as_jsonl(
            self._check_with_capture(source, tmp_path, "check.bcap"), tmp_path)
        capsys.readouterr()
        binary = str(tmp_path / "cap.bcap")
        assert run_cli(["convert", jsonl, binary]) == 0
        assert "(jsonl) -> " in capsys.readouterr().out
        back = str(tmp_path / "back.jsonl")
        assert run_cli(["convert", binary, back]) == 0
        assert "(binary) -> " in capsys.readouterr().out
        with open(jsonl) as a, open(back) as b:
            assert a.read() == b.read()
        # Both forms replay to the same exit code and output.
        assert run_cli(["replay", jsonl]) == run_cli(["replay", binary])

    def test_convert_truncated_binary_exits_2(self, source, tmp_path, capsys):
        binary = self._check_with_capture(source, tmp_path, "cap.bcap")
        capsys.readouterr()
        data = open(binary, "rb").read()
        truncated = tmp_path / "trunc.bcap"
        truncated.write_bytes(data[:len(data) - 9])
        assert run_cli(["convert", str(truncated),
                        str(tmp_path / "out.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_convert_garbage_and_missing_exit_2(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.bcap"
        garbage.write_bytes(b"BCAP\x01\x00\xff\xff\xff\xff")
        assert run_cli(["convert", str(garbage),
                        str(tmp_path / "out.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err
        assert run_cli(["convert", str(tmp_path / "missing.bcap"),
                        str(tmp_path / "out.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_convert_rejects_unwritable_destination(self, source, tmp_path,
                                                    capsys):
        binary = self._check_with_capture(source, tmp_path, "cap.bcap")
        capsys.readouterr()
        assert run_cli(["convert", binary,
                        str(tmp_path / "no-such-dir" / "out.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Hash-seed determinism: reports and captures are bytes, not dict order
# ----------------------------------------------------------------------
_ROOT = pathlib.Path(__file__).parent.parent


def _repro_under_hashseed(hashseed, cwd, *args):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed),
               PYTHONPATH=os.pathsep.join(
                   [str(_ROOT / "src")]
                   + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "repro", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=240)


@pytest.mark.parametrize("kernel, launch", [
    ("examples/racy.cu", ["--grid", "2", "--block", "64", "--buffer", "data:4"]),
    ("src/repro/corpus/schedule/001-handoff_no_spin.cu",
     ["--grid", "2", "--block", "32", "--buffer", "data:4",
      "--buffer", "flag:4", "--buffer", "out:4", "--predict"]),
])
def test_check_and_replay_are_identical_across_hash_seeds(tmp_path, kernel,
                                                          launch):
    runs = []
    for hashseed in (0, 1):
        cwd = tmp_path / f"seed{hashseed}"
        cwd.mkdir()
        check = _repro_under_hashseed(
            hashseed, cwd, "check", str(_ROOT / kernel),
            *launch, "--capture", "run.cap")
        replay = _repro_under_hashseed(hashseed, cwd, "replay", "run.cap")
        assert check.returncode == 1, check.stderr
        assert " race" in check.stdout
        runs.append((check.stdout, replay.returncode, replay.stdout,
                     (cwd / "run.cap").read_bytes()))
    assert runs[0] == runs[1]
