"""PyTorch ``expandable_segments:True`` allocator.

Instead of carving fixed-size segments out of ``cudaMalloc`` allocations, the
expandable-segments mode reserves one huge *virtual* address range per pool
and maps 2 MiB physical granules into it on demand (CUDA VMM API).  A segment
can therefore grow in place instead of forcing a brand-new segment when a
request does not fit, which removes most segment-level fragmentation.  The
costs are (a) physical memory is handled at 2 MiB granularity and (b) every
grow/shrink is a driver VMM call -- the paper measures noticeable throughput
loss in recomputation-heavy and MoE workloads from exactly these calls.

The simulation models each pool as a single expandable arena:

* live allocations are carved best-fit out of the arena's free space;
* if nothing fits, the arena grows at its tail by whole granules;
* if the device cannot supply granules, free granule-aligned regions are
  unmapped (returned to the device) and the growth is retried;
* reserved bytes = currently mapped physical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.allocators.base import AllocationHints, Allocator, Placement
from repro.core.intervals import IntervalSet
from repro.gpu.device import Device, MIB, align_up
from repro.gpu.errors import OutOfMemoryError
from repro.gpu.virtual_memory import DEFAULT_GRANULE, PhysicalHandle, VirtualMemoryManager

#: Requests at or below this size go to the small arena (matches the caching
#: allocator's small/large split so comparisons are apples-to-apples).
SMALL_POOL_THRESHOLD = 1 * MIB

#: Modelled latency of one VMM map/unmap operation.
VMM_OP_SECONDS = 2e-3


@dataclass
class ExpandableSegmentsConfig:
    """Policy knobs for the expandable-segments allocator."""

    granule: int = DEFAULT_GRANULE
    small_pool_threshold: int = SMALL_POOL_THRESHOLD
    min_block_size: int = 512
    label: str = "torch_es"

    def round_size(self, size: int) -> int:
        if size < self.min_block_size:
            return self.min_block_size
        return align_up(size, self.min_block_size)

    def pool_for(self, rounded: int) -> str:
        return "small" if rounded <= self.small_pool_threshold else "large"


@dataclass
class _Arena:
    """One expandable segment: a virtual range with granules mapped on demand."""

    pool: str
    virtual_start: int
    free: IntervalSet = field(default_factory=IntervalSet)         # mapped and unallocated
    handles: dict[int, PhysicalHandle] = field(default_factory=dict)  # mapped granules by offset
    tail: int = 0  # first never-mapped offset (the growth point)


class ExpandableSegmentsAllocator(Allocator):
    """Virtual-memory backed allocator emulating PyTorch expandable segments."""

    name = "torch_es"

    def __init__(self, device: Device, config: ExpandableSegmentsConfig | None = None):
        super().__init__()
        self.device = device
        self.config = config or ExpandableSegmentsConfig()
        self.name = self.config.label
        self.vmm = VirtualMemoryManager(device, granule=self.config.granule)
        self._arenas: dict[str, _Arena] = {}
        self._placements: dict[int, tuple[str, int, int]] = {}  # req_id -> (pool, offset, size)
        # Mapped bytes over every arena.  ``_add_run`` and
        # ``_reclaim_free_granules`` keep it current, because
        # ``Allocator.allocate`` reads it on every call.
        self._mapped = 0

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    @property
    def reserved_bytes(self) -> int:
        return self._mapped

    def arena(self, pool: str) -> _Arena:
        """Return (creating on first use) the arena backing ``pool``."""
        if pool not in self._arenas:
            # Reserve an effectively unbounded virtual range for the arena:
            # the tail never rewinds, and an allocation that reclaims under
            # pressure can push it forward by about twice its size.
            vrange = self.vmm.reserve_range(self.device.capacity << 20)
            self._arenas[pool] = _Arena(pool=pool, virtual_start=vrange.start)
        return self._arenas[pool]

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def _do_allocate(self, req_id: int, size: int, hints: AllocationHints) -> Placement:
        rounded = self.config.round_size(size)
        pool = self.config.pool_for(rounded)
        arena = self.arena(pool)
        carved = arena.free.carve(rounded, policy="best_fit")
        if carved is None:
            self.stats.cache_misses += 1
            self._grow(arena, rounded)
            carved = arena.free.carve(rounded, policy="best_fit")
            if carved is None:
                # Reclaim under memory pressure may have punched a hole into
                # the tail region we were counting on; grow by the full
                # request size so the new tail run is contiguous.
                self._grow(arena, rounded, count_tail_free=False)
                carved = arena.free.carve(rounded, policy="best_fit")
            if carved is None:
                # Reclaim may have unmapped the granules these grows mapped,
                # leaving no contiguous fit although the device is not full.
                raise OutOfMemoryError(rounded, self.device.usable_capacity, self.device.in_use)
        else:
            self.stats.cache_hits += 1
        self._placements[req_id] = (pool, carved.start, rounded)
        return Placement(pool=f"es:{pool}", address=carved.start, size=rounded)

    def _grow(self, arena: _Arena, rounded: int, *, count_tail_free: bool = True) -> None:
        """Map enough granules at the arena tail to fit a ``rounded`` request.

        Every granule is its own physical handle and ``map`` call (the
        overhead model charges per driver op), but the arena's free set and
        the mapped-bytes counter take each contiguous run in one update.  The
        pending run is added before reclaiming, so reclaim sees every mapped
        granule, and on the way out, so an OOM partway leaves the free set
        and ``reserved_bytes`` in step with the VMM.
        """
        granule = self.config.granule
        # Free space already touching the tail still counts toward the request.
        tail_free = 0
        last = arena.free.last
        if count_tail_free and last is not None and last.end == arena.tail:
            tail_free = last.length
        needed = align_up(max(rounded - tail_free, 0), granule)
        run_start = arena.tail
        try:
            for _ in range(needed // granule):
                try:
                    handle = self.vmm.create_handle()
                except OutOfMemoryError:
                    # Unmap idle granules under pressure, then retry once.
                    run_start = self._add_run(arena, run_start)
                    if self._reclaim_free_granules() == 0:
                        raise
                    handle = self.vmm.create_handle()
                offset = arena.tail
                self.vmm.map(arena.virtual_start + offset, handle)
                self.stats.vmm_ops += 2
                arena.handles[offset] = handle
                arena.tail += granule
        finally:
            self._add_run(arena, run_start)

    def _add_run(self, arena: _Arena, start: int) -> int:
        """Add the granules mapped since ``start`` to the arena as free space."""
        if arena.tail > start:
            arena.free.add(start, arena.tail)
            self._mapped += arena.tail - start
        return arena.tail

    def _reclaim_free_granules(self) -> int:
        """Unmap granules that are entirely free and return them to the device.

        Returns the number of granules reclaimed.  Mirrors expandable
        segments' behaviour of releasing physical memory only under pressure.
        """
        reclaimed = 0
        for arena in self._arenas.values():
            for interval in list(arena.free):
                start = align_up(interval.start, self.config.granule)
                while start + self.config.granule <= interval.end:
                    handle = arena.handles.pop(start, None)
                    if handle is not None:
                        self.vmm.unmap(arena.virtual_start + start)
                        self.vmm.release_handle(handle)
                        self.stats.vmm_ops += 2
                        arena.free.remove(start, start + self.config.granule)
                        self._mapped -= self.config.granule
                        reclaimed += 1
                    start += self.config.granule
        return reclaimed

    # ------------------------------------------------------------------ #
    # Free
    # ------------------------------------------------------------------ #
    def _do_free(self, req_id: int) -> None:
        pool, offset, rounded = self._placements.pop(req_id)
        arena = self._arenas[pool]
        arena.free.add(offset, offset + rounded)

    def overhead_seconds(self) -> float:
        return self.stats.vmm_ops * VMM_OP_SECONDS
