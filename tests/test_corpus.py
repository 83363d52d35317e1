"""The corpus: every suite program and Table-1 workload is one kernel
file whose header is ``repro check``'s own launch flags plus the entry's
labels, read by the one launch parser."""

import pathlib
import re

import pytest

from repro import cli
from repro.bench import ALL_WORKLOADS, Workload, run_workload, workload
from repro.errors import ReproError
from repro.jobs import (
    CORPUS, HEADER_KEYS, corpus_entry, launch_spec, read_kernel_file,
    spec_from_args,
)
from repro.suite import (
    ALL_PROGRAMS, SCHEDULE_PROGRAMS, Expected, SuiteProgram, program,
    run_program, schedule_program,
)

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

LOOKUP = {"suite": program, "schedule": schedule_program, "table1": workload}
ENTRIES = ([("suite", entry) for entry in ALL_PROGRAMS]
           + [("schedule", entry) for entry in SCHEDULE_PROGRAMS]
           + [("table1", entry) for entry in ALL_WORKLOADS])


def _path(kind, entry):
    path, = (CORPUS / kind).glob(f"[0-9][0-9][0-9]-{entry.name}.*")
    return path


def _check(argv, capsys):
    code = cli.main(["check", *map(str, argv)])
    return code, capsys.readouterr()


def test_the_corpus_is_one_file_an_entry_in_registry_order():
    for kind, registry in (("suite", ALL_PROGRAMS),
                           ("schedule", SCHEDULE_PROGRAMS),
                           ("table1", ALL_WORKLOADS)):
        names = sorted(path.name for path in (CORPUS / kind).iterdir())
        assert names == [
            f"{index:03d}-{entry.name}{'.ptx' if entry.is_ptx else '.cu'}"
            for index, entry in enumerate(registry, 1)]
    assert (len(ALL_PROGRAMS), len(SCHEDULE_PROGRAMS), len(ALL_WORKLOADS)) \
        == (79, 5, 26)
    assert [entry.name for _kind, entry in ENTRIES if entry.is_ptx] == \
        ["predicated_store_race"]


def test_the_header_vocabulary_is_the_dataclasses_labels():
    assert HEADER_KEYS == ({"launch", "note"} | set(SuiteProgram.LABELS)
                           | set(Workload.LABELS))


@pytest.mark.parametrize("kind, entry", ENTRIES,
                         ids=[entry.name for _kind, entry in ENTRIES])
def test_every_header_yields_the_entry_spec(kind, entry):
    path = _path(kind, entry)
    args = cli.build_parser("check").parse_args([str(path)])
    assert spec_from_args(args, read_kernel_file(str(path))) == entry.spec


@pytest.mark.parametrize("kind, name", [
    ("suite", "predicated_store_race"),    # the .ptx entry
    ("suite", "grid_sync_missing"),        # --cooperative
    ("schedule", "drain_reorder_guard"),   # --arch k520
    ("schedule", "handoff_no_spin"),
    ("table1", "dxtc"),
])
def test_check_with_no_flags_runs_the_entry(kind, name, capsys):
    entry = LOOKUP[kind](name)
    races = (run_workload(entry).races if kind == "table1"
             else run_program(entry).races)
    code, out = _check([_path(kind, entry), "--max-reports", "1000"], capsys)
    assert code == (1 if races else 0), out.err
    reported = re.search(r"========= (\d+) race report", out.out)
    assert (int(reported.group(1)) if reported else 0) == races
    # The same reports, line by line, as the registry's own launch.
    for race in launch_spec(entry.spec).launch.races:
        assert (f"{race.kind}: {race.prior_access} by t{race.prior_tid} vs "
                f"{race.current_access} by t{race.current_tid}") in out.out


def test_a_launch_flag_on_the_command_line_replaces_the_header(capsys):
    path = _path("suite", program("global_ww_inter_block"))
    code, out = _check([path], capsys)
    assert code == 1 and "inter-block" in out.out
    # One block, so no inter-block race: the header's --grid 2 is gone.
    code, out = _check([path, "--block", "64", "--buffer", "data:4"], capsys)
    assert code == 0 and "no races detected" in out.out
    # ... and so are its buffers: the pointer is null.
    code, out = _check([path, "--grid", "2", "--block", "64"], capsys)
    assert code == 2 and out.err.startswith("error: illegal address 0x0")


@pytest.mark.parametrize("subcommand, shows", [
    ("explain", "inter-block race on global[0x10000000]"),
    ("profile", "hot paths:"),
    ("sweep", "base schedule: 1 race report(s)"),
])
def test_every_launching_subcommand_runs_the_header(subcommand, shows,
                                                    capsys):
    path = str(_path("suite", program("global_ww_inter_block")))
    flags = ["--grid", "2", "--block", "64", "--buffer", "data:4",
             "--max-steps", "400000"]
    extra = ["--schedules", "2"] if subcommand == "sweep" else []
    outputs = []
    for argv in ([path, *extra], [path, *flags, *extra]):
        code = cli.main([subcommand, *argv])
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert shows in outputs[0][1]


def test_a_file_with_no_header_is_all_source():
    path = EXAMPLES / "racy.cu"
    kernel_file = read_kernel_file(str(path))
    assert kernel_file.source == path.read_text()
    assert (kernel_file.launch, kernel_file.labels) == ({}, {})


def test_a_new_program_is_a_new_file(tmp_path):
    path = tmp_path / "001-lost_update.cu"
    path.write_text(
        "// repro-launch: --grid 2 --block 32 --buffer counter:1\n"
        "// repro-expect: race\n"
        "// repro-race-space: global\n"
        "// repro-category: global\n"
        "// repro-description: Every thread bumps one counter unguarded.\n"
        "// A comment that is not a header line belongs to the source.\n"
        "__global__ void bump(int* counter) {\n"
        "    counter[0] = counter[0] + 1;\n"
        "}\n")
    entry = corpus_entry(path, SuiteProgram)
    assert (entry.name, entry.grid, entry.block, entry.expected) == \
        ("lost_update", 2, 32, Expected.RACE)
    assert entry.source.startswith("// A comment")
    assert run_program(entry).matches(entry)


_SUITE_HEADER = ("// repro-launch: --grid 2 --block 32 --buffer data:4\n"
                 "// repro-expect: race\n"
                 "// repro-category: global\n"
                 "// repro-description: d\n")
_KERNEL = "__global__ void k(int* data) { data[0] = threadIdx.x; }\n"


@pytest.mark.parametrize("header, message", [
    ("// repro-launch: --grid 2\n// repro-expected: race\n",
     ":2: unknown header key // repro-expected"),
    ("// repro-launch --grid 2\n", ":1: a header line is // repro-<key>: <value>"),
    ("// repro-launch: --grid two\n",
     ":1: argument --grid: invalid int value: 'two'"),
    ("// repro-launch: --gird 2\n", ":1: unrecognized arguments: --gird 2"),
])
def test_a_bad_header_line_is_one_error_naming_file_and_line(
        tmp_path, capsys, header, message):
    path = tmp_path / "k.cu"
    path.write_text(header + _KERNEL)
    with pytest.raises(ReproError) as excinfo:
        read_kernel_file(str(path))
    assert str(excinfo.value) == f"{path}{message}"
    code, out = _check([path], capsys)
    assert code == 2 and out.err == f"error: {path}{message}\n"


def test_a_launch_the_header_would_change_is_one_error(tmp_path, capsys):
    path = tmp_path / "k.cu"
    path.write_text("// repro-launch: --buffer data:4\n"
                    "// repro-launch: --buffer data:8\n" + _KERNEL)
    code, out = _check([path], capsys)
    assert (code, out.err) == (
        2, "error: --buffer data: parameter 'data' is already bound\n")


def test_lint_on_a_ptx_file_names_the_file_lines(capsys):
    path = _path("suite", program("predicated_store_race"))
    assert cli.main(["lint", str(path)]) == 1
    finding = capsys.readouterr().out.splitlines()[0]
    line = int(finding.split(":")[1])
    assert "st.global.u32" in path.read_text().splitlines()[line - 1]


@pytest.mark.parametrize("entry_type, header, message", [
    (SuiteProgram, _SUITE_HEADER.replace("// repro-expect: race\n", ""),
     ":4: no // repro-expect line in the header"),
    (SuiteProgram, _SUITE_HEADER + "// repro-paper-races: 3\n",
     ":5: SuiteProgram takes no // repro-paper-races line"),
    (SuiteProgram, _SUITE_HEADER.replace("race\n", "racy\n"),
     ":2: // repro-expect: 'racy' is not a valid Expected"),
    (SuiteProgram, _SUITE_HEADER + "// repro-launch: --kernel k\n",
     ":1: SuiteProgram takes no --kernel"),
    (SuiteProgram, _SUITE_HEADER.replace("data:4", "data:2:1,2,3"),
     ":1: --buffer data: 3 init values for 2 words"),
    (SuiteProgram, _SUITE_HEADER + "// repro-launch: --buffer data:8\n",
     ":1: --buffer data: parameter 'data' is already bound"),
    (Workload, "// repro-launch: --grid 2 --arch k520\n"
               "// repro-suite: CUB\n// repro-description: d\n",
     ":1: Workload takes no --arch"),
    (Workload, "// repro-suite: CUB\n// repro-description: d\n"
               "// repro-paper-races: many\n",
     ":3: // repro-paper-races: invalid literal for int() with base 10: "
     "'many'"),
])
def test_a_corpus_entry_its_dataclass_cannot_hold_is_one_error(
        tmp_path, entry_type, header, message):
    path = tmp_path / "001-k.cu"
    path.write_text(header + _KERNEL)
    with pytest.raises(ReproError) as excinfo:
        corpus_entry(path, entry_type)
    assert str(excinfo.value) == f"{path}{message}"
