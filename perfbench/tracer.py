"""Span tracing of the simulator's layers, installed from outside.

Nothing here edits the program: :func:`install` replaces a handful of
functions and methods at class or module level with timing wrappers
before the first model is built.  Each call into a layer, and each
resumption of a generator such a call returns, is one span.  Each
resumption of a simulation process is a span as well, attributed to a
layer by the generator's module and the process name.

Spans live in memory as four parallel arrays (layer id, parent index,
start and end in nanoseconds).  Between two rounds of the benchmark,
with the clock of the measured window paused, they are folded into
per-layer self times; the spans of the first two rounds are kept and
written out when the run ends, the rest are dropped after folding.
"""

from __future__ import annotations

import types
from array import array
from time import perf_counter_ns
from typing import Dict, List

import numpy as np


class Tracer:
    """In-memory span log with a stack of open spans."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.layer = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        #: spans before this index were folded and kept
        self._kept = 0
        #: per-instance call counts of the wrapped buffer ``access``
        #: methods (keyed by ``id(instance)``), for the page-access check
        self.memory_calls: Dict[int, int] = {}
        self.begin_replication()

    def begin_replication(self) -> None:
        """Reset the per-replication counts kept next to the spans."""
        self.memory_calls.clear()
        #: sweeps started by the anti-entropy layer
        self.repair_sweeps = 0
        #: retry ladders that timed out and then got a response, i.e.
        #: retries that did useful work
        self.retries_answered = 0

    def layer_id(self, name: str) -> int:
        lid = self._ids.get(name)
        if lid is None:
            lid = self._ids[name] = len(self.names)
            self.names.append(name)
        return lid

    def open(self, lid: int) -> int:
        idx = len(self.layer)
        self.layer.append(lid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def fold(self, keep: bool = False):
        """Per-layer self seconds and span counts of the spans recorded
        since the last fold; those spans are then dropped unless
        ``keep``, so memory stays bounded by what one round records.

        Fold only where no span is open (between two rounds).  A span's
        self time is its duration minus the durations of its direct
        children.
        """
        first = self._kept
        count = len(self.layer) - first
        layer = np.frombuffer(self.layer, dtype=np.uint16)[first:]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:]
        start = np.frombuffer(self.start, dtype=np.int64)[first:]
        end = np.frombuffer(self.end, dtype=np.int64)[first:]
        duration = (end - start).astype(np.float64)
        local_parent = np.where(parent >= first, parent - first, -1)
        children = np.bincount(
            local_parent + 1, weights=duration, minlength=count + 1
        )[1:]
        own = duration - children
        width = len(self.names)
        seconds = np.bincount(layer, weights=own, minlength=width) / 1e9
        counts = np.bincount(layer, minlength=width)
        # Drop the NumPy views before resizing the arrays under them.
        del layer, parent, start, end
        if keep:
            self._kept = len(self.layer)
        else:
            for column in (self.layer, self.parent, self.start, self.end):
                del column[first:]
        return (
            {name: float(seconds[lid]) for lid, name in enumerate(self.names)},
            {name: int(counts[lid]) for lid, name in enumerate(self.names)},
        )

    def save(self, path: str) -> None:
        """Write the kept spans to ``path`` (NumPy ``.npz``)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layer=np.frombuffer(self.layer, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


class _Resumptions:
    """Generator stand-in timing each resumption of the wrapped one.

    Supports the protocol ``Process`` and ``yield from`` use: ``send``,
    ``__next__``, ``throw`` and ``close``.
    """

    __slots__ = ("_gen", "_lid", "_tracer")

    def __init__(self, gen, lid: int, tracer: Tracer) -> None:
        self._gen = gen
        self._lid = lid
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tracer = self._tracer
        idx = tracer.open(self._lid)
        try:
            return self._gen.send(value)
        finally:
            tracer.close(idx)

    def throw(self, *args):
        tracer = self._tracer
        idx = tracer.open(self._lid)
        try:
            return self._gen.throw(*args)
        finally:
            tracer.close(idx)

    def close(self):
        self._gen.close()


def _timed(tracer: Tracer, layer: str, fn):
    """``fn`` as one span per call; a returned generator is traced too.

    The generator's resumptions are spans of ``<layer>.resume``, so the
    span count of ``layer`` itself is its call count.
    """
    lid = tracer.layer_id(layer)
    resume_lid = tracer.layer_id(layer + ".resume")

    def wrapper(*args, **kwargs):
        idx = tracer.open(lid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if isinstance(result, (types.GeneratorType, _Resumptions)):
            return _Resumptions(result, resume_lid, tracer)
        return result

    return wrapper


def _counted_access(tracer: Tracer, layer: str, fn):
    """A buffer ``access`` span that also counts calls per instance."""
    timed = _timed(tracer, layer, fn)
    calls = tracer.memory_calls

    def access(self, *args, **kwargs):
        key = id(self)
        calls[key] = calls.get(key, 0) + 1
        return timed(self, *args, **kwargs)

    return access


def process_layer(generator, name: str) -> str:
    """The layer a simulation process's resumptions are attributed to."""
    frame = getattr(generator, "gi_frame", None)
    module = frame.f_globals.get("__name__", "") if frame is not None else ""
    if module == "repro.core.users":
        # User and submission processes run the Transaction Manager.
        return "transaction_manager"
    if module == "repro.core.cluster":
        if name.startswith("applier"):
            return "cluster.applier"
        if name.startswith("anti-entropy"):
            return "cluster.anti_entropy"
    return "other.process"


def install(tracer: Tracer) -> None:
    """Patch the layer boundaries of the imported simulator."""
    from repro.clustering import placement
    from repro.core import architectures, buffering, cluster, locks
    from repro.core import model, virtual_memory
    from repro.despy import engine
    from repro.experiments import executor, report, specs
    from repro.scenarios import catalog

    Simulation = engine.Simulation
    original_process = Simulation.process
    layer_ids: Dict[str, int] = {}

    def process(self, generator, name="", delay=0, priority=0):
        layer = process_layer(generator, name)
        lid = layer_ids.get(layer)
        if lid is None:
            lid = layer_ids[layer] = tracer.layer_id(layer)
        return original_process(
            self, _Resumptions(generator, lid, tracer), name, delay, priority
        )

    Simulation.process = process
    Simulation.run = _timed(tracer, "despy.run", Simulation.run)

    for cls in vars(architectures).values():
        if (
            isinstance(cls, type)
            and issubclass(cls, architectures.Architecture)
            and "access_object_nowait" in vars(cls)
            and not getattr(
                vars(cls)["access_object_nowait"], "__isabstractmethod__", False
            )
        ):
            cls.access_object_nowait = _timed(
                tracer, "architectures.access", cls.access_object_nowait
            )

    buffer_cls = buffering.BufferManager
    buffer_cls.access = _counted_access(tracer, "buffering.access", buffer_cls.access)
    vm_cls = virtual_memory.VirtualMemoryManager
    vm_cls.access = _counted_access(tracer, "virtual_memory.access", vm_cls.access)
    vm_cls.note_object_access = _timed(
        tracer, "virtual_memory.swizzle", vm_cls.note_object_access
    )

    for cls in (locks.LockManager, cluster.ClusterLockManager):
        cls.acquire_all_nowait = _timed(
            tracer, "locks.acquire", cls.acquire_all_nowait
        )
        cls.release_all_nowait = _timed(
            tracer, "locks.release", cls.release_all_nowait
        )

    cluster_cls = cluster.Cluster
    cluster_cls.serve_page_nowait = _timed(
        tracer, "cluster.serve", cluster_cls.serve_page_nowait
    )
    cluster_cls.serve_page = _timed(tracer, "cluster.serve", cluster_cls.serve_page)

    original_sweep = cluster_cls._repair_sweep

    def repair_sweep(self):
        tracer.repair_sweeps += 1
        return original_sweep(self)

    cluster_cls._repair_sweep = repair_sweep

    original_retry = cluster_cls._retry_outcome

    def retry_outcome(self, src, dst, rng, start):
        responded, penalty = original_retry(self, src, dst, rng, start)
        if responded and penalty:
            tracer.retries_answered += 1
        return responded, penalty

    cluster_cls._retry_outcome = retry_outcome

    build = _timed(tracer, "ocb.generate", model.build_database)
    model.build_database = build
    executor.build_database = build
    model.make_placement = _timed(tracer, "placement.build", placement.make_placement)
    catalog.run_sweep = _timed(tracer, "experiments.run_sweep", specs.run_sweep)
    report.format_scenario = _timed(
        tracer, "report.format", report.format_scenario
    )
    job_cls = executor.ReplicationJob
    job_cls.execute = _timed(tracer, "replication", job_cls.execute)
