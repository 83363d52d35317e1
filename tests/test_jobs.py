"""The job layer (:mod:`repro.jobs`): one launcher, one staged-job shape.

What the per-verb byte-identity tests in ``test_predict.py`` and
``test_fix.py`` cannot see: the launch flags reach every launching
subcommand, argv and wire share one request validation, and the
service's fold-in of a dead item — checked once, over every staged job.
"""

import dataclasses
import importlib
import os
import subprocess
import sys

import pytest

from repro import cli
from repro.errors import ReproError
from repro.fix import run_fix
from repro.jobs import STAGED_JOB_MODULES, LaunchSpec, launch_spec, staged_job
from repro.obs import SpanBuffer
from repro.service.client import ServiceClient, ServiceJobError
from repro.service.server import RaceService, ServiceThread
from repro.suite import ALL_PROGRAMS, schedule_program

_BY_NAME = {p.name: p for p in ALL_PROGRAMS}

#: Correct grid-wide sync, then every thread stores its own value to one
#: word: racy, and launchable only cooperatively.
RACY_GRID_SYNC = """
__global__ void gs(int* data, int* out) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    data[gid] = gid + 1;
    __grid_sync();
    out[0] = data[63 - gid];
}
"""
GS_FLAGS = ["--grid", "2", "--block", "32", "--buffer", "data:64",
            "--buffer", "out:4"]


@pytest.fixture()
def gs_file(tmp_path):
    path = tmp_path / "gs.cu"
    path.write_text(RACY_GRID_SYNC)
    return str(path)


def _gs_spec():
    return LaunchSpec(source=RACY_GRID_SYNC, grid=2, block=32,
                      buffers=(("data", 64, ()), ("out", 4, ())),
                      cooperative=True)


# ----------------------------------------------------------------------
# A launch: one launcher, one set of flags
# ----------------------------------------------------------------------
class TestLaunch:
    def test_launcher_honours_cooperative_and_reads_buffers_back(self):
        launched = launch_spec(_gs_spec())
        assert launched.launch.races
        outputs = launched.read_buffers()
        assert outputs["data"] == list(range(1, 65))
        assert len(outputs["out"]) == 4

    def test_non_cooperative_spec_is_still_rejected(self):
        spec = dataclasses.replace(_gs_spec(), cooperative=False)
        with pytest.raises(ReproError, match="cooperative"):
            launch_spec(spec)

    def test_run_fix_repairs_a_cooperative_launch(self):
        # The repair's own launcher used to drop spec.cooperative: every
        # base run died on the barrier.cluster cooperative check.
        result = run_fix(_gs_spec(), max_candidates=2, verify_schedules=1)
        assert result.targets

    @pytest.mark.parametrize("extra", [
        ["explain"],
        ["profile"],
        ["fix", "--max-candidates", "2", "--verify-schedules", "1"],
    ], ids=lambda extra: extra[0])
    def test_cooperative_flag_on_every_launching_subcommand(
            self, extra, gs_file, capsys):
        argv = [extra[0], gs_file] + GS_FLAGS + ["--cooperative"] + extra[1:]
        assert cli.main(argv) in (0, 1)
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["check", "explain", "sweep", "fix", "profile"])
    def test_launch_flags_are_one_set(self, command, capsys):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        text = capsys.readouterr().out
        for flag in ("--kernel", "--grid", "--block", "--warp-size",
                     "--buffer", "--scalar", "--arch", "--cooperative",
                     "--max-steps"):
            assert flag in text, (command, flag)


# ----------------------------------------------------------------------
# A staged job: one request validation, one fold-in
# ----------------------------------------------------------------------
#: Per job: a small request, where the result lists its items, and what
#: a folded-in dead item must say.
CASES = {
    "sweep": {
        "spec": LaunchSpec.from_program(schedule_program("handoff_no_spin")),
        "fields": {"schedules": 3, "seed": 7},
        "items": "runs",
        "folded": lambda run: run["error"].startswith("schedule run failed:"),
    },
    "fix": {
        "spec": LaunchSpec.from_program(_BY_NAME["shared_ww_intra_block"]),
        "fields": {"max_candidates": 3, "verify_schedules": 1, "seed": 0},
        "items": "candidates",
        "folded": lambda candidate: (
            candidate["status"] == "error"
            and candidate["detail"].startswith("verification failed:")),
    },
}
JOB_NAMES = sorted(STAGED_JOB_MODULES)


def _serve(tmp_path):
    return ServiceThread(RaceService(socket_path=str(tmp_path / "svc.sock"),
                                     workers=0))


def _client(tmp_path):
    return ServiceClient(socket_path=str(tmp_path / "svc.sock"),
                         timeout=300.0)


def _patch_job(monkeypatch, name, **stages):
    module = importlib.import_module(STAGED_JOB_MODULES[name])
    monkeypatch.setattr(
        module, "JOB", dataclasses.replace(module.JOB, **stages))


@pytest.mark.parametrize("name", JOB_NAMES)
class TestStagedJob:
    def test_dead_item_folds_in(self, name, tmp_path, monkeypatch):
        case, job = CASES[name], staged_job(name)
        request = job.parse({"spec": case["spec"].to_payload(),
                             **case["fields"]})
        local = job.run(request)

        def dying_item(request, plan, index, obs):
            if index == 1:
                raise RuntimeError("boom")
            return job.item(request, plan, index, obs)

        _patch_job(monkeypatch, name, item=dying_item)
        buffer = SpanBuffer("client")
        with _serve(tmp_path) as thread, _client(tmp_path) as client:
            result = client.run_job(name, case["spec"].to_payload(),
                                    case["fields"], trace=buffer)
            flight = thread.service.flight.dump()["events"]

        items, expected = result[case["items"]], local[case["items"]]
        assert len(items) == len(expected) >= 2
        assert case["folded"](items[1])
        assert "boom" in str(items[1])
        for index, item in enumerate(items):
            if index != 1:
                assert item == expected[index]
        event = f"{name}-{job.item_stage}-failed"
        failures = [e for e in flight if e["kind"] == event]
        assert [(e["index"], e["error"]) for e in failures] == [(1, "boom")]
        instants = [span for span in buffer.collected_payloads()
                    if span["name"] == event]
        assert [span["kind"] for span in instants] == ["instant"]

    def test_argv_and_wire_share_one_request_validation(
            self, name, tmp_path, capsys):
        case, job = CASES[name], staged_job(name)
        spec_payload = case["spec"].to_payload()
        source = tmp_path / "kernel.cu"
        source.write_text(case["spec"].source)
        bounded = [f.name for f in dataclasses.fields(job.request)
                   if "min" in f.metadata]
        assert bounded
        with _serve(tmp_path):
            for field in bounded:
                flag = "--" + field.replace("_", "-")
                message = f"{flag} must be at least 1"
                bad = dict(case["fields"], **{field: 0})
                with pytest.raises(ReproError, match=message):
                    job.parse({"spec": spec_payload, **bad})
                with _client(tmp_path) as client:
                    with pytest.raises(ServiceJobError, match=message):
                        client.run_job(name, spec_payload, bad)
                assert cli.main([name, str(source), flag, "0"]) == 2
                assert capsys.readouterr().err == f"error: {message}\n"
        with pytest.raises(ReproError, match="integer"):
            job.parse({"spec": spec_payload, **dict(case["fields"], seed="x")})
        with pytest.raises(ReproError, match="launch spec"):
            job.parse({"spec": "not-a-spec", **case["fields"]})


#: (job, stage, what the stage raises, the reason the error must give):
#: a stage that dies answers with one error naming the stage and why —
#: the exception type when it carries no message.
STAGE_FAILURES = [
    pytest.param(name, stage, error, reason, id=f"{name}-{stage}-{reason}")
    for name in JOB_NAMES
    for stage, error, reason in (("plan", RuntimeError("boom"), "boom"),
                                 ("finalize", RuntimeError("boom"), "boom"),
                                 ("finalize", RuntimeError(), "RuntimeError"))
    if stage != "plan" or staged_job(name).plan is not None
]


@pytest.mark.parametrize("name,stage,error,reason", STAGE_FAILURES)
def test_stage_failure_answers_with_an_error(name, stage, error, reason,
                                             tmp_path, monkeypatch):
    case = CASES[name]

    def dying_stage(*_args):
        raise error

    _patch_job(monkeypatch, name, **{stage: dying_stage})
    with _serve(tmp_path) as thread, _client(tmp_path) as client:
        with pytest.raises(ServiceJobError,
                           match=f"^{name} {stage} failed: {reason}$"):
            client.run_job(name, case["spec"].to_payload(), case["fields"])
        flight = thread.service.flight.dump()["events"]
    assert f"{name}-{stage}-failed" in {e["kind"] for e in flight}


def test_fix_verb_rejects_zero_max_candidates(tmp_path):
    # The CLI always refused --max-candidates 0; the verb used to answer
    # with the races and zero targets, which reads as "nothing to repair".
    spec = CASES["fix"]["spec"].to_payload()
    with _serve(tmp_path), _client(tmp_path) as client:
        with pytest.raises(ServiceJobError):
            client.fix(spec, 0, 2, 0)


def test_predict_and_fix_do_not_load_the_service():
    code = ("import sys, repro.predict, repro.fix; "
            "assert 'repro.service.server' not in sys.modules "
            "and 'asyncio' not in sys.modules")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [os.path.join(root, "src")]
                   + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env,
                   timeout=120)
