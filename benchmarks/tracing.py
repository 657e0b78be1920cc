"""Span tracing around gaplab's public functions, installed from outside.

The tracer rebinds every public function of the traced modules (plus the
CLI's ``cmd_*`` handlers) in every gaplab module that holds a reference to
it, so internal calls such as ``cma_loss -> reweighted_loss`` are traced too.
Nothing under ``src/`` changes and an untraced run installs nothing.

Spans are kept in memory as ``(name_id, start_ns, end_ns, parent, work)``
tuples in start order, so a parent always precedes its children. ``work`` is a
count computed from argument or result shapes (flops of a similarity product,
bytes of an ``.emb`` file); it is not measured.

Forked worker processes inherit the wrappers. A worker buffers its own spans
and appends them to a per-process file each time its outermost span ends; the
parent merges those files after every op. ``perf_counter_ns`` reads the
system-wide monotonic clock on Linux, so worker and parent times compare.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from dataclasses import dataclass

import numpy as np

# Package modules whose public functions form the per-layer breakdown.
LAYERS = ("cli", "sweep", "trainkit", "losses", "curriculum",
          "geometry", "evalkit", "embfile", "numerics")


def _emb_bytes(shape, has_labels: bool) -> int:
    n, d = shape
    return 12 + 4 * n * d + ((4 + 4 * n) if has_labels else 0)


def _flops_similarity(args, kwargs, result):
    a = args[0] if len(args) > 0 else kwargs["a"]
    b = args[1] if len(args) > 1 else kwargs["b"]
    (m, d), (n, _) = np.shape(a), np.shape(b)
    return 2 * m * n * d


def _bytes_read(args, kwargs, result):
    matrix, labels = result
    return _emb_bytes(matrix.shape, labels is not None)


def _bytes_written(args, kwargs, result):
    matrix = args[1] if len(args) > 1 else kwargs["matrix"]
    labels = args[2] if len(args) > 2 else kwargs.get("labels")
    return _emb_bytes(np.shape(matrix), labels is not None)


# Computed work per call, keyed by span name.
WORK = {
    "numerics.similarity_matrix": _flops_similarity,
    "embfile.read_embeddings": _bytes_read,
    "embfile.write_embeddings": _bytes_written,
}


class Tracer:
    """In-memory span recorder; ``install`` wraps the gaplab functions."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.names: list = []
        self.spans: list = []
        self.stack: list = []
        self.in_worker = False

    # -- installation -----------------------------------------------------

    def _targets(self):
        """(span name, function) for every traced function."""
        for layer in LAYERS:
            mod = importlib.import_module(f"gaplab.{layer}")
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    yield f"{layer}.{attr}", fn
            if layer == "cli":
                for attr, fn in vars(mod).items():
                    if attr.startswith("cmd_") and inspect.isfunction(fn):
                        yield f"cli.{attr[4:]}", fn

    def install(self) -> None:
        """Wrap every traced function wherever gaplab binds it."""
        import gaplab

        holders = [gaplab] + [importlib.import_module(f"gaplab.{m}") for m in LAYERS]
        wrapped = {}
        for name, fn in self._targets():
            wrapped[id(fn)] = self._wrap(fn, name)
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    setattr(holder, attr, wrapped[id(value)])
        os.register_at_fork(after_in_child=self._after_fork)

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        work_fn = WORK.get(name)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            work = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                end = clock()
                if work_fn is not None:
                    work = work_fn(args, kwargs, result)
                return result
            except BaseException:
                end = clock()
                raise
            finally:
                stack.pop()
                spans[idx] = (name_id, start, end, parent, work)
                if tracer.in_worker and not stack:
                    tracer._spool()

        return traced

    # -- worker processes -------------------------------------------------

    def _after_fork(self):
        self.spans = []
        self.stack = []
        self.in_worker = True

    def _spool(self):
        path = os.path.join(self.spool_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as f:
            f.write(json.dumps({"pid": os.getpid(), "spans": self.spans}) + "\n")
        self.spans = []

    def collect_workers(self) -> list:
        """Spans spooled by worker processes since the last call, as (pid, spans)."""
        batches = []
        for entry in sorted(os.listdir(self.spool_dir)):
            if not entry.startswith("worker-"):
                continue
            path = os.path.join(self.spool_dir, entry)
            with open(path, "r", encoding="utf-8") as f:
                for line in f:
                    record = json.loads(line)
                    batches.append((record["pid"], [tuple(s) for s in record["spans"]]))
            os.unlink(path)
        return batches

    # -- op boundaries ----------------------------------------------------

    def take(self) -> list:
        """Parent-process spans recorded since the last call."""
        spans, self.spans = self.spans, []
        return spans

    def op_trace(self, wall_s: float) -> "OpTrace":
        """The spans of the op that just ended, from this process and its workers."""
        return OpTrace(self.names, wall_s, self.take(), self.collect_workers())


@dataclass
class OpTrace:
    """The spans of one traced op: the parent's, plus each worker's (pid, spans)."""

    names: list
    wall_s: float
    parent: list
    workers: list

    def groups(self):
        """(pid or None, spans) for the parent and each worker batch."""
        yield None, self.parent
        yield from self.workers

    def to_json(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "parent": self.parent,
            "workers": [{"pid": pid, "spans": spans} for pid, spans in self.workers],
        }


def _self_times(spans) -> list:
    """Each span's duration minus its direct children's, in ns."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def op_layer_stats(op: OpTrace) -> dict:
    """One op's figures keyed by metric stem, plus per-call durations in us.

    ``<fn>.busy_s`` counts a span only when no enclosing span has the same
    name; ``<fn>.self_s`` and ``<layer>.self_s`` subtract direct children.
    A ``cli.<command>.self_s`` figure is all cli-layer self time under the
    top-level ``cli.main`` call that ran that command. Worker spans count in
    calls, busy and self times, so on a pooled sweep busy time can exceed wall.
    """
    names = op.names
    stats: dict = {}
    call_us: dict = {}

    def add(key, value):
        stats[key] = stats.get(key, 0.0) + value

    top_ns = 0
    worker_busy: dict = {}
    for pid, spans in op.groups():
        own = _self_times(spans)
        root = []
        command: dict = {}
        cli_self: dict = {}
        for i, (nid, start, end, parent, work) in enumerate(spans):
            name = names[nid]
            layer = name.split(".", 1)[0]
            dur = end - start
            root.append(i if parent < 0 else root[parent])
            add(f"{name}.calls", 1)
            add(f"{layer}.self_s", own[i] / 1e9)
            if layer != "cli":
                add(f"{name}.self_s", own[i] / 1e9)
            else:
                cli_self[root[i]] = cli_self.get(root[i], 0) + own[i]
                if parent >= 0 and parent == root[i] and root[i] not in command:
                    command[root[i]] = name
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != nid:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                add(f"{name}.busy_s", dur / 1e9)
                add(f"{name}.work", work)
            call_us.setdefault(name, []).append(dur / 1e3)
            if parent < 0:
                if pid is None:
                    top_ns += dur
                else:
                    worker_busy[pid] = worker_busy.get(pid, 0) + dur
        for r, ns in cli_self.items():
            if r in command:
                add(f"{command[r]}.self_s", ns / 1e9)

    stats["trace.coverage"] = top_ns / 1e9 / op.wall_s
    if worker_busy:
        # run_sweep's in-process self time includes waiting for its workers;
        # the busiest worker's time is that wait, and the rest is pool overhead.
        pool_s = stats.get("sweep.run_sweep.busy_s", 0.0)
        busiest = max(worker_busy.values()) / 1e9
        stats["sweep.workers"] = len(worker_busy)
        stats["sweep.worker_busy_ratio"] = (
            sum(worker_busy.values()) / 1e9 / (len(worker_busy) * pool_s))
        stats["sweep.pool_overhead_s"] = pool_s - busiest
        stats["sweep.run_sweep.self_s"] -= busiest
        stats["sweep.self_s"] -= busiest
    return {"stats": stats, "call_us": call_us}
