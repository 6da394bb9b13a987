"""Outside-in span tracer for byzgrad.

The tracer changes no file of the package. It replaces the module and
class attributes that byzgrad's own callers look up at call time (for
example `byzgrad.simulator.honest_round`, which `simulator.run` calls
through its module globals) with wrappers that record a span: how long the
call took and its self time, which is that duration minus the time of the
spans it caused. The parent of a span is the span below it on one shared
stack, so the self times of all spans add up to the outermost span.

Spans are aggregated in memory per span name as [calls, total_s, self_s]
and handed out as records by `cut`, one per sweep point and one for the
rest of each command. Nothing is written while a run is being timed,
except by forked sweep workers, whose memory the benchmark cannot read
(see `point_boundary`).
"""

import functools
import json
import os
import time
from pathlib import Path


class Tracer:
    def __init__(self, spool: Path):
        self.pid = os.getpid()
        self.spool = spool
        self._stack = [[0.0]]  # bottom frame absorbs the time of top-level spans
        self._acc: dict[str, list] = {}
        self._originals: dict[str, tuple] = {}
        self._spooled = 0
        self.points: list[dict] = []  # records of in-process sweep points of the current command

    def span(self, fn, name: str):
        """Return `fn` wrapped so that each call records a span called `name`."""
        acc = self._acc.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += elapsed - frame[0]

        return wrapper

    def install(self, owner, attr: str, name: str, boundary: bool = False) -> None:
        """Replace `owner.attr` by a recording wrapper; `uninstall` restores it."""
        original = vars(owner)[attr]
        wrapped = self.span(original, name)
        if boundary:
            wrapped = self.point_boundary(wrapped)
        setattr(owner, attr, wrapped)
        self._originals[name] = (owner, attr, original)

    def uninstall(self, name: str) -> None:
        owner, attr, original = self._originals.pop(name)
        setattr(owner, attr, original)

    def cut(self) -> dict:
        """Return the spans closed since the last cut, as name -> [calls, total_s, self_s]."""
        record = {}
        for name, acc in self._acc.items():
            if acc[0]:
                record[name] = list(acc)
                acc[:] = [0, 0.0, 0.0]
        return record

    def point_boundary(self, fn):
        """Wrap a sweep worker so that each sweep point yields its own record.

        In this process the point's spans are cut into a record of their
        own. In a forked pool worker the tracer is a copy that the benchmark
        cannot read, so the point's record is written to the spool
        directory instead; `end_command` collects it after the command.
        """

        @functools.wraps(fn)
        def boundary(job):
            forked = os.getpid() != self.pid
            before = self.cut()
            try:
                return fn(job)
            finally:
                record = self.cut()
                if forked:
                    self._spooled += 1
                    path = self.spool / f"{os.getpid()}-{self._spooled}.json"
                    with open(path, "w", encoding="utf-8") as handle:
                        json.dump(record, handle)
                else:
                    self.points.append(record)
                    self._merge(before)

        return boundary

    def _merge(self, record: dict) -> None:
        # spans closed before a point belong to the command, not to the point
        for name, (calls, total, self_s) in record.items():
            acc = self._acc[name]
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s

    def begin_command(self) -> None:
        self.points = []
        self.spool.mkdir(parents=True, exist_ok=True)
        for path in self.spool.iterdir():
            path.unlink()
        self.cut()

    def end_command(self) -> list[dict]:
        """Return the command's records: its sweep points, then the rest."""
        records = list(self.points)
        for path in sorted(self.spool.iterdir()):
            with open(path, "r", encoding="utf-8") as handle:
                records.append(json.load(handle))
            path.unlink()
        records.append(self.cut())
        return records
