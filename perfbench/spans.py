"""In-memory span recording and the self-time arithmetic over recorded spans.

A span is (name, start, end, parent): ``parent`` is the index of the span
that was open when this one started, or -1 at the top.  Spans live in
compact arrays while the traced process runs and are written once, at exit,
as a NumPy ``.npz`` file.  A span's self time is its duration minus the part
of its interval that its direct child spans cover.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict


class SpanRecorder:
    """Collects spans from wrapped functions; single-threaded by design."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open = [-1]

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self._intern(name)
        # open()/close() inlined on locals: this runs on every traced call
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._open
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def save(self, path, counts: dict) -> None:
        import json

        import numpy as np

        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            counts=np.array(json.dumps(counts)),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


class SpanTable:
    """Recorded spans of one traced process, with per-name totals."""

    def __init__(self, names, name_id, start, end, parent, counts=None) -> None:
        self.names = list(names)
        self.name_id = list(name_id)
        self.start = list(start)
        self.end = list(end)
        self.parent = list(parent)
        self.counts = dict(counts or {})
        self.self_time = self_times(self.start, self.end, self.parent)
        self._by_name: dict[str, list[int]] = defaultdict(list)
        for i, nid in enumerate(self.name_id):
            self._by_name[self.names[nid]].append(i)

    @classmethod
    def load(cls, path) -> "SpanTable":
        import json

        import numpy as np

        with np.load(path) as data:
            return cls(
                json.loads(str(data["names"])),
                data["name_id"].tolist(),
                data["start"].tolist(),
                data["end"].tolist(),
                data["parent"].tolist(),
                json.loads(str(data["counts"])),
            )

    def _indices(self, name: str) -> list[int]:
        return self._by_name.get(name, [])

    def calls(self, name: str) -> int:
        return len(self._indices(name))

    def total(self, name: str) -> float:
        """Inclusive seconds over every span called ``name``."""
        return sum(self.end[i] - self.start[i] for i in self._indices(name))

    def self_total(self, name: str) -> float:
        """Self seconds over every span called ``name``."""
        return sum(self.self_time[i] for i in self._indices(name))

    def self_by_name(self, within: str) -> dict[str, float]:
        """Self seconds per span name over the spans nested inside ``within``."""
        roots = set(self._indices(within))
        out: dict[str, float] = defaultdict(float)
        for i in range(len(self.start)):
            j = i
            while j >= 0 and j not in roots:
                j = self.parent[j]
            if j >= 0:
                out[self.names[self.name_id[i]]] += self.self_time[i]
        return dict(out)


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the union of its direct children's
    intervals, each clipped to the parent's interval."""
    result = [e - s for s, e in zip(start, end)]
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        reach = lo
        for k in sorted(kids, key=lambda k: start[k]):
            s, e = max(start[k], reach), min(end[k], hi)
            if e > s:
                covered += e - s
                reach = e
        result[p] -= covered
    return result
