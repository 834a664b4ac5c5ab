"""The I/O Subsystem: physical disk accesses (Figure 5).

The knowledge model's "Access Disk" functioning rule (paper Figure 5)
decomposes an I/O request into *search time* + *latency time* + *transfer
time*, with one optimization: **if the requested page is contiguous to
the previously loaded page, search and latency are skipped** and only the
transfer is paid.  That shortcut is why initial placement and clustering
matter to response time and not only to I/O counts.

The disk itself is a despy :class:`~repro.despy.resource.Resource` of
capacity 1 — the "server disk controller and secondary storage" passive
resource of Table 1 — so concurrent transactions serialize on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List

from repro.despy.process import PARK, Hold, Release, Request
from repro.despy.resource import Resource
from repro.despy.timebase import MS_PER_TICK
from repro.core.failures import NoFailures
from repro.core.parameters import VOODBConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.despy.engine import Simulation


class IOSubsystem:
    """Disk model with per-page timing and the Figure 5 shortcut."""

    __slots__ = (
        "sim",
        "config",
        "disk",
        "failures",
        "_last_page",
        "_sequential_ok",
        "_sequential_time",
        "_random_time",
        "_request_disk",
        "_release_disk",
        "_hold_sequential",
        "_hold_random",
        "reads",
        "writes",
        "swap_reads",
        "swap_writes",
        "sequential_accesses",
        "busy_ticks",
    )

    def __init__(self, sim: "Simulation", config: VOODBConfig) -> None:
        self.sim = sim
        self.config = config
        self.disk = Resource(sim, "disk", capacity=1)
        #: hazard source consulted per operation (§5 failures module);
        #: the model swaps in a live FailureInjector when configured.
        self.failures = NoFailures()
        self._last_page: int = -2  # nothing is contiguous to the start
        # The config is frozen, so its derived timing properties are
        # constants for this subsystem's lifetime; resolving them once
        # keeps the per-page path free of property recomputation.  The
        # Request/Release commands are immutable messages naming the
        # disk, so every operation can yield the same two instances.
        self._sequential_ok = config.sequential_optimization
        self._sequential_time = config.sequential_io_ticks
        self._random_time = config.random_io_ticks
        self._request_disk = Request(self.disk)
        self._release_disk = Release(self.disk)
        # Without failures every page op holds for one of exactly two
        # durations, so two shared Hold commands cover almost all I/O.
        self._hold_sequential = Hold(self._sequential_time)
        self._hold_random = Hold(self._random_time)
        # Counters
        self.reads = 0
        self.writes = 0
        self.swap_reads = 0
        self.swap_writes = 0
        self.sequential_accesses = 0
        self.busy_ticks = 0

    @property
    def busy_time_ms(self) -> float:
        """Accumulated disk service time, reported in milliseconds."""
        return self.busy_ticks * MS_PER_TICK

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def _service(self, page: int) -> "tuple[int, Hold]":
        """Contiguity-shortcut timing core: (service ticks, shared Hold).

        The single source of truth for the Figure 5 rule.  Mutates the
        head position, so call at most once per physical access.
        """
        if self._sequential_ok and page == self._last_page + 1:
            self.sequential_accesses += 1
            pair = (self._sequential_time, self._hold_sequential)
        else:
            pair = (self._random_time, self._hold_random)
        self._last_page = page
        return pair

    def access_time(self, page: int) -> int:
        """Service ticks for one page, applying the contiguity shortcut."""
        return self._service(page)[0]

    # ------------------------------------------------------------------
    # Process-style operations (yield from these inside processes)
    # ------------------------------------------------------------------
    def read_hold(self, page: int) -> Hold:
        """Timing + accounting for one page read.

        Must be called with the disk held (the head state mutates here);
        callers yield ``io._request_disk``, then this Hold, then
        ``io._release_disk`` — which is exactly :meth:`read_page`, kept
        callable piecewise so hot generators can inline the three
        commands without re-deriving disk mechanics.

        The Figure 5 rule and the hazard penalty are spelled out inline
        (one frame instead of three): this runs once per physical page
        access across the whole simulation.
        """
        if self._sequential_ok and page == self._last_page + 1:
            self.sequential_accesses += 1
            time = self._sequential_time
            hold = self._hold_sequential
        else:
            time = self._random_time
            hold = self._hold_random
        self._last_page = page
        penalty = self.failures.io_penalty()
        if penalty:
            time += penalty
            hold = Hold(time)
        self.reads += 1
        self.busy_ticks += time
        return hold

    def write_hold(self, page: int) -> Hold:
        """Timing + accounting for one page write (same rules as reads)."""
        if self._sequential_ok and page == self._last_page + 1:
            self.sequential_accesses += 1
            time = self._sequential_time
            hold = self._hold_sequential
        else:
            time = self._random_time
            hold = self._hold_random
        self._last_page = page
        penalty = self.failures.io_penalty()
        if penalty:
            time += penalty
            hold = Hold(time)
        self.writes += 1
        self.busy_ticks += time
        return hold

    def read_page(self, page: int):
        """Read one page: reserve the disk, pay the service time.

        The request/release pair uses the inline merge fast paths: an
        uncontended read that is provably the next dispatch costs a
        single Hold event (see Resource.try_acquire_inline).
        """
        if not self.disk.try_acquire_inline():
            yield self._request_disk
        yield self.read_hold(page)
        if not self.disk.release_inline():
            yield PARK

    def write_page(self, page: int):
        """Write one page (same head mechanics as a read)."""
        if not self.disk.try_acquire_inline():
            yield self._request_disk
        yield self.write_hold(page)
        if not self.disk.release_inline():
            yield PARK

    def read_pages(self, pages: Iterable[int]):
        """Bulk read; sorts the batch so contiguous runs pay transfer only.

        Used by the Clustering Manager's reorganization, which reads whole
        regions of the base (paper §4.4 "clustering overhead").
        """
        batch: List[int] = sorted(set(pages))
        if not self.disk.try_acquire_inline():
            yield self._request_disk
        total = self.failures.io_penalty() if batch else 0
        for page in batch:
            time = self.access_time(page)
            self.reads += 1
            total += time
        self.busy_ticks += total
        yield Hold(total)
        if not self.disk.release_inline():
            yield PARK

    def write_pages(self, pages: Iterable[int]):
        """Bulk write, contiguity-aware like :meth:`read_pages`."""
        batch: List[int] = sorted(set(pages))
        if not self.disk.try_acquire_inline():
            yield self._request_disk
        total = self.failures.io_penalty() if batch else 0
        for page in batch:
            time = self.access_time(page)
            self.writes += 1
            total += time
        self.busy_ticks += total
        yield Hold(total)
        if not self.disk.release_inline():
            yield PARK

    def swap_read_hold(self) -> Hold:
        """Timing + accounting for one swap-partition read.

        Swap lives in its own disk region, so the transfer pays the full
        random-access cost and breaks database-region contiguity (the arm
        moved) — §4.3.2's "costly swap".  Call with the disk held, like
        :meth:`read_hold`; VM-heavy runs pay this once per fault, so the
        three-command form avoids a generator per swap I/O.
        """
        self._last_page = -2
        time = self._random_time
        hold = self._hold_random
        penalty = self.failures.io_penalty()
        if penalty:
            time += penalty
            hold = Hold(time)
        self.swap_reads += 1
        self.busy_ticks += time
        return hold

    def swap_write_hold(self) -> Hold:
        """Timing + accounting for one swap-partition write."""
        self._last_page = -2
        time = self._random_time
        hold = self._hold_random
        penalty = self.failures.io_penalty()
        if penalty:
            time += penalty
            hold = Hold(time)
        self.swap_writes += 1
        self.busy_ticks += time
        return hold

    def swap_read(self):
        """Read one page back from the swap partition (generator form)."""
        if not self.disk.try_acquire_inline():
            yield self._request_disk
        yield self.swap_read_hold()
        if not self.disk.release_inline():
            yield PARK

    def swap_write(self):
        """Write one page out to the swap partition (generator form)."""
        if not self.disk.try_acquire_inline():
            yield self._request_disk
        yield self.swap_write_hold()
        if not self.disk.release_inline():
            yield PARK

    # ------------------------------------------------------------------
    @property
    def total_ios(self) -> int:
        return self.reads + self.writes + self.swap_reads + self.swap_writes

    def reset_counters(self) -> None:
        """Zero the counters (used at workload-phase boundaries)."""
        self.reads = 0
        self.writes = 0
        self.swap_reads = 0
        self.swap_writes = 0
        self.sequential_accesses = 0
        self.busy_ticks = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<IOSubsystem reads={self.reads} writes={self.writes}>"
