"""Hot-path profiler for the execution engine.

The engine (`repro.gpu.interpreter.KernelExecution`) compiles
each PTX statement into one closure and dispatches them from a tight
loop — the perfect seam for a counting profiler: wrap each closure once
at decode time and the dispatch loop itself never changes.  When
profiling is off the engine skips the wrap entirely, so the cost of a
disabled profiler is one ``is None`` check per kernel *decode* (not per
executed instruction); ``benchmarks/test_obs_overhead.py`` pins that
at <2%.

Wrapped closures charge **exclusive** time: the engine fuses
``_log`` closures with the access they instrument (the ``_log`` op
tail-calls the follower), so a naive inclusive measurement would bill
the access twice.  Each wrapper subtracts the time spent in closures it
transitively invoked, via a single per-profiler child-time accumulator —
the same trick gprof-style profilers use, exact here because execution
is single-threaded per profiler.

Aggregation is per ``(opcode, source line)``.  :meth:`Profiler.account`
lets capture-replay profiling (``repro profile trace.jsonl``) feed the
same tables without closure wrapping.  Output formats: deterministic
text top-N (count-ordered, so repeated runs of a deterministic schedule
render identically), JSON, and flamegraph.pl-compatible collapsed
stacks.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Profile JSON schema version.
PROFILE_VERSION = 1


class Profiler:
    """Per-(opcode, line) event counts and exclusive wall time."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        # (opcode, line) -> [count, exclusive_seconds]
        self._stats: Dict[Tuple[str, int], List[float]] = {}
        # Time spent inside closures invoked by the currently-running
        # wrapper; lets each wrapper bill only its own exclusive time.
        self._child = 0.0

    # ------------------------------------------------------------------
    # Engine hook
    # ------------------------------------------------------------------
    def wrap_op(self, op: Callable, opcode: str, line: int) -> Callable:
        """Wrap one decoded closure; counts events and exclusive time."""
        stat = self._stats.setdefault((opcode, line), [0, 0.0])
        clock = self._clock

        def profiled(warp, entry):
            t0 = clock()
            outer_child = self._child
            self._child = 0.0
            try:
                return op(warp, entry)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - self._child
                self._child = outer_child + dt

        return profiled

    # ------------------------------------------------------------------
    # Replay-side accounting (no closures to wrap)
    # ------------------------------------------------------------------
    def account(self, opcode: str, line: int,
                count: int = 1, seconds: float = 0.0) -> None:
        stat = self._stats.setdefault((opcode, line), [0, 0.0])
        stat[0] += count
        stat[1] += seconds

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def total_events(self) -> int:
        return sum(int(stat[0]) for stat in self._stats.values())

    def rows(self) -> List[Tuple[str, int, int, float]]:
        """``(opcode, line, count, exclusive_seconds)`` rows, hottest
        first; ties broken by line then opcode so output is stable."""
        rows = [(opcode, line, int(stat[0]), stat[1])
                for (opcode, line), stat in self._stats.items()]
        rows.sort(key=lambda row: (-row[2], row[1], row[0]))
        return rows

    def render_text(self, top: int = 20,
                    source_lines: Optional[Dict[int, str]] = None,
                    show_time: bool = False) -> str:
        """Deterministic text top-N.

        Wall times vary run to run, so the default rendering is
        count-based only — two runs of the same deterministic schedule
        produce byte-identical output.  ``show_time`` opts into the
        measured exclusive seconds.
        """
        rows = self.rows()
        total = self.total_events or 1
        out = [f"hot paths: {self.total_events} events, "
               f"{len(rows)} distinct (opcode, line) sites"]
        header = f"{'count':>10}  {'share':>6}  {'line':>5}  opcode"
        if show_time:
            header += f"  {'excl-s':>9}"
        out.append(header)
        for opcode, line, count, seconds in rows[:top]:
            entry = (f"{count:>10}  {100.0 * count / total:>5.1f}%"
                     f"  {line:>5}  {opcode}")
            if show_time:
                entry += f"  {seconds:>9.6f}"
            if source_lines and line in source_lines:
                entry += f"    | {source_lines[line].strip()}"
            out.append(entry)
        if len(rows) > top:
            out.append(f"... and {len(rows) - top} more sites")
        return "\n".join(out)

    def to_json(self, source_lines: Optional[Dict[int, str]] = None) -> dict:
        sites = []
        for opcode, line, count, seconds in self.rows():
            site = {"opcode": opcode, "line": line, "count": count,
                    "exclusive_seconds": round(seconds, 9)}
            if source_lines and line in source_lines:
                site["source"] = source_lines[line].strip()
            sites.append(site)
        return {"version": PROFILE_VERSION,
                "total_events": self.total_events,
                "sites": sites}

    def render_collapsed(self, root: str = "kernel",
                         source_lines: Optional[Dict[int, str]] = None) -> str:
        """flamegraph.pl-compatible collapsed stacks, weighted by count.

        Frames are ``root;L<line> <source>;<opcode>`` so the flamegraph
        groups by source line first, opcode within the line.
        """
        lines = []
        for opcode, line, count, _seconds in self.rows():
            frame = f"L{line}"
            if source_lines and line in source_lines:
                source = source_lines[line].strip().replace(";", ",")
                frame += f" {source}"
            lines.append(f"{root};{frame};{opcode} {count}")
        return "\n".join(lines)

    def write(self, path: str, fmt: str = "json",
              source_lines: Optional[Dict[int, str]] = None) -> None:
        with open(path, "w") as handle:
            if fmt == "json":
                json.dump(self.to_json(source_lines), handle, indent=1)
                handle.write("\n")
            elif fmt == "collapsed":
                handle.write(self.render_collapsed(source_lines=source_lines))
                handle.write("\n")
            else:
                handle.write(self.render_text(source_lines=source_lines))
                handle.write("\n")


class NullProfiler(Profiler):
    """Disabled profiler: the engine sees ``enabled == False`` and never
    wraps, so this class's methods exist only for interface parity."""

    enabled = False

    def __init__(self) -> None:
        self._stats = {}
        self._child = 0.0

    def wrap_op(self, op, opcode, line):
        return op

    def account(self, opcode, line, count=1, seconds=0.0):
        pass


#: Shared disabled profiler; the default on `Observability`.
NULL_PROFILER = NullProfiler()
