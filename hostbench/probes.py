"""Benchmark-owned spans around the program's public layer functions.

Nothing here edits the program: a traced fit patches module attributes
for its duration only (``Patches``), runs a benchmark-owned SPMD worker
that records one rank's spans (``RankRecorder``), and folds those spans
together with the collective trace (``TraceCollector`` events carry
``phase``, ``level``, ``wall_seconds`` and payload bytes) into the
per-layer metrics and the two trace files.

Ranks fork from the benchmark process on the process backend, so patches
installed before ``run_spmd`` are live in every rank; each rank records
into a thread-local recorder (thread-backend ranks share the process).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.core import criteria, phases
from repro.core.attribute_lists import build_local_lists
from repro.core.induction import induce_worker
from repro.core.splitter import ScalParCSplitPhase
from repro.runtime.checkpoint import LevelCheckpointer
from repro.sort import parallel_sample_sort
from repro.streaming import stream_induce_worker

_local = threading.local()

#: phase tag -> per-layer metric group (tags of core.phases)
PHASE_GROUPS = {
    phases.PRESORT: "presort",
    phases.FINDSPLIT1: "findsplit",
    phases.FINDSPLIT1_HIST: "findsplit",
    phases.FINDSPLIT1_VOTE: "findsplit",
    phases.FINDSPLIT2: "findsplit",
    phases.PERFORMSPLIT1: "performsplit",
    phases.PERFORMSPLIT2: "performsplit",
    phases.STREAM_INGEST: "stream.ingest",
    phases.STREAM_SKETCH: "stream.sketch",
    phases.STREAM_GROW: "stream.grow",
}


class RankRecorder:
    """One rank's spans: ``(name, cat, level, depth, start, end, self_s)``.

    ``depth`` counts the spans open around it; ``self_s`` of a phase span
    is its duration minus the phase spans nested inside it, layer spans
    carry their plain duration.
    """

    def __init__(self, rank: int):
        self.rank = rank
        self.spans: list[tuple] = []
        self.level = None
        self.enter = time.perf_counter()
        self.exit = None
        self._stack: list[list] = []

    def begin(self, name: str, cat: str) -> None:
        self._stack.append([name, cat, self.level, time.perf_counter(), 0.0])

    def end(self) -> None:
        name, cat, level, start, nested = self._stack.pop()
        depth = len(self._stack)
        end = time.perf_counter()
        dur = end - start
        if cat == "phase":
            for frame in reversed(self._stack):
                if frame[1] == "phase":
                    frame[4] += dur
                    break
        self.spans.append((name, cat, level, depth, start, end,
                           dur - nested))


def _current() -> RankRecorder | None:
    return getattr(_local, "rec", None)


def _span(name: str, fn):
    """Wrap ``fn`` in a layer span on the calling rank's recorder."""
    def wrapper(*args, **kwargs):
        rec = _current()
        if rec is None:
            return fn(*args, **kwargs)
        rec.begin(name, "layer")
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end()
    return wrapper


_timed_phase = phases.timed_phase


@contextmanager
def _traced_phase(perf_or_comm, name):
    """``timed_phase`` inside a phase span of the calling rank; the span
    takes its level from the collective tracer's current tag."""
    rec = _current()
    if rec is None:
        with _timed_phase(perf_or_comm, name):
            yield
        return
    tracer = getattr(perf_or_comm, "_tracer", None)
    if tracer is not None and tracer.level is not None:
        rec.level = tracer.level
    rec.begin(name, "phase")
    try:
        with _timed_phase(perf_or_comm, name):
            yield
    finally:
        rec.end()


class Patches:
    """Swap every ``repro`` module's reference to a layer function for
    its span-recording wrapper; ``restore`` puts the originals back."""

    def __init__(self):
        self._undo: list[tuple] = []

    def install(self) -> "Patches":
        wrapped = {id(fn): wrapper for fn, wrapper in (
            (_timed_phase, _traced_phase),
            (build_local_lists,
             _span("build_local_lists", build_local_lists)),
            (parallel_sample_sort,
             _span("parallel_sample_sort", parallel_sample_sort)),
            (criteria.best_binary_subset,
             _span("best_binary_subset", criteria.best_binary_subset)),
        )}
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro.") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    self._set(mod, attr, wrapped[id(value)])
        for meth in ("save", "finalize"):
            fn = getattr(LevelCheckpointer, meth)
            self._set(LevelCheckpointer, meth,
                      _span(f"LevelCheckpointer.{meth}", fn))
        return self

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class BenchSplitPhase(ScalParCSplitPhase):
    """The paper's splitting phase with a layer span around each level's
    PerformSplitI+II (passed as ``induce_worker(split_phase=...)``)."""

    execute = _span("SplitPhase.execute", ScalParCSplitPhase.execute)


def _recorded(comm, induce, *args, **kwargs):
    """Run ``induce`` on this rank under a fresh recorder; returns
    ``(tree, recorder)``."""
    rec = _local.rec = RankRecorder(comm.rank)
    try:
        tree = induce(comm, *args, **kwargs)
    finally:
        rec.exit = time.perf_counter()
        _local.rec = None
    return tree, rec


def traced_batch_worker(comm, dataset, config):
    """``induce_worker`` with the benchmark's split phase, recorded."""
    return _recorded(comm, induce_worker, dataset, config,
                     split_phase=BenchSplitPhase())


def traced_stream_worker(comm, dataset, config, checkpoint=None):
    """``stream_induce_worker``, recorded."""
    return _recorded(comm, stream_induce_worker, dataset, config,
                     checkpoint=checkpoint)


# ----------------------------------------------------------------------
# folding spans and collective events into metrics and files
# ----------------------------------------------------------------------


def rank_summary(rec: RankRecorder, events) -> dict:
    """Per-group busy/wait/bytes/collective counts of one rank."""
    out: dict = defaultdict(float)
    for name, cat, _level, _depth, _start, _end, self_s in rec.spans:
        if cat == "phase":
            group = PHASE_GROUPS.get(name, name)
            out[f"{group}.busy_s"] += self_s
            out[f"{group}.spans"] += 1
        else:
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += self_s
    for ev in events:
        nbytes = ev.payload_nbytes + ev.result_nbytes
        out["runtime.collectives"] += 1
        out["runtime.wait_s"] += ev.wall_seconds
        group = PHASE_GROUPS.get(ev.phase)
        if group is not None:
            out[f"{group}.wait_s"] += ev.wall_seconds
            out[f"{group}.mb"] += nbytes / 1e6
            out[f"{group}.collectives"] += 1
    return dict(out)


def coverage(rec: RankRecorder) -> dict:
    """Shares of the rank's worker wall-clock covered by its phase spans
    and by all its outermost spans (phases plus layer calls made outside
    any phase, such as checkpoint writes)."""
    wall = rec.exit - rec.enter
    return {
        "phases": sum(s[6] for s in rec.spans if s[1] == "phase") / wall,
        "spans": sum(s[5] - s[4] for s in rec.spans if s[3] == 0) / wall,
    }


def flat_rows(recs, collector) -> list[dict]:
    """One row per (rank, level, phase-or-layer) with self time, calls,
    collective wait, collective count and bytes."""
    rows: dict = {}

    def row(rank, level, name, kind):
        key = (rank, level, name)
        if key not in rows:
            rows[key] = {"rank": rank, "level": level, "name": name,
                         "kind": kind, "calls": 0, "self_s": 0.0,
                         "wait_s": 0.0, "collectives": 0, "bytes": 0}
        return rows[key]

    for rec in recs:
        for name, cat, level, _depth, _start, _end, self_s in rec.spans:
            r = row(rec.rank, level, name, cat)
            r["calls"] += 1
            r["self_s"] += self_s
        for ev in collector.events_of(rec.rank):
            r = row(rec.rank, ev.level, ev.phase or "(untagged)", "phase")
            r["wait_s"] += ev.wall_seconds
            r["collectives"] += 1
            r["bytes"] += ev.payload_nbytes + ev.result_nbytes
    return sorted(rows.values(), key=lambda r: (
        r["rank"], -1 if r["level"] is None else r["level"], r["name"]))


def _coalesced(spans):
    """Merge consecutive sibling phase spans of the same (name, level),
    so each phase shows as one slice per level on a rank's track while
    slices still nest properly."""
    out: list[list] = []
    open_: list[int] = []            # indices into out, outermost first
    last_child: dict[int, int] = {}  # parent index (-1: top) -> child
    for name, cat, level, _depth, start, end, _self in sorted(
            spans, key=lambda s: (s[4], -s[5])):
        while open_ and out[open_[-1]][4] <= start:
            open_.pop()
        parent = open_[-1] if open_ else -1
        sib = last_child.get(parent)
        if cat == "phase" and sib is not None \
                and out[sib][:3] == [name, cat, level]:
            out[sib][4] = end
            open_.append(sib)
            continue
        out.append([name, cat, level, start, end])
        last_child[parent] = len(out) - 1
        open_.append(len(out) - 1)
    return out


def chrome_trace(recs, host_spans, t0: float) -> dict:
    """Chrome trace-event JSON: one track per rank plus the benchmark
    process's own; one slice per phase per level, with layer-function
    spans nested."""
    events = [{"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
               "args": {"name": "hostbench"}},
              {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name",
               "args": {"name": "benchmark"}}]
    for name, start, end in host_spans:
        events.append({"ph": "X", "pid": 1, "tid": 0, "name": name,
                       "cat": "host", "ts": (start - t0) * 1e6,
                       "dur": (end - start) * 1e6})
    for rec in recs:
        tid = rec.rank + 1
        events.append({"ph": "M", "pid": 1, "tid": tid,
                       "name": "thread_name",
                       "args": {"name": f"rank {rec.rank}"}})
        for name, cat, level, start, end in _coalesced(rec.spans):
            events.append({"ph": "X", "pid": 1, "tid": tid, "name": name,
                           "cat": cat, "ts": (start - t0) * 1e6,
                           "dur": (end - start) * 1e6,
                           "args": {"level": level}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
