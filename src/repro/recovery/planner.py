"""Precomputed recovery plans (paper Sec. II-B).

"The number of different single disk failure situations is equal to the
number of disks, so we can find the recovery schemes for each single disk
failure situation ahead of time and directly use them whenever they are
needed."  :class:`RecoveryPlanner` is that cache.  Backed by a
:class:`~repro.recovery.plancache.SchemePlanCache` (``plan_cache=``), plans
survive process restarts — the schemes are deterministic, so a reload is
byte-identical to a regeneration.  The planner writes the store back once
per planning pass, never once per scheme.

The per-disk searches are independent, and the search kernel is a
:mod:`ctypes` call that releases the GIL, so
:meth:`RecoveryPlanner.all_disk_schemes` and
:meth:`RecoveryPlanner.all_data_disk_schemes` plan their uncached disks on
one shared :class:`~repro.runner.ChunkRunner` with a thread per usable CPU.
A worker runs one disk's search; the calling thread consults the plan
cache before dispatch and fills the caches in disk order, so the result
is the same as planning the disks one after another.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.codes.base import ErasureCode
from repro.recovery.plancache import SchemePlanCache
from repro.recovery.scheme import RecoveryScheme
from repro.recovery.ualgorithm import algorithm_row, scheme_for_disk, u_scheme
from repro.runner import ChunkRunner, usable_cpus

#: kernel threads shared by every planner, one per CPU the process may
#: use.  One disk's search can cost 100x another's, so every disk is
#: submitted at once: a slow disk never leaves the other workers idle.
_RUNNER = ChunkRunner(usable_cpus(), "planner", per_worker=None)


class RecoveryPlanner:
    """Per-disk recovery scheme cache for one code instance."""

    def __init__(
        self,
        code: ErasureCode,
        algorithm: str = "u",
        depth: int = 2,
        max_expansions: Optional[int] = 2_000_000,
        plan_cache: Optional[SchemePlanCache] = None,
    ) -> None:
        algorithm_row(algorithm)  # an unknown name fails here, not per disk
        self.code = code
        self.algorithm = algorithm
        self.depth = depth
        self.max_expansions = max_expansions
        #: cross-process plan store consulted before any search runs
        self.plan_cache = plan_cache
        self._cache: Dict[int, RecoveryScheme] = {}

    def scheme_for_disk(self, disk: int) -> RecoveryScheme:
        """The (cached) scheme for a single failed disk."""
        if disk not in self._cache:
            scheme = self._from_plan_cache(disk)
            if scheme is None:
                scheme = self._search(disk)
                self._to_plan_cache(disk, scheme)
                self._save_plan_cache()
            self._cache[disk] = scheme
        return self._cache[disk]

    def _from_plan_cache(self, disk: int) -> Optional[RecoveryScheme]:
        """Consult the persistent plan cache, if one is attached."""
        if self.plan_cache is None:
            return None
        return self.plan_cache.get(
            self.code, disk, self.algorithm, self.depth, self.max_expansions
        )

    def _to_plan_cache(self, disk: int, scheme: RecoveryScheme) -> None:
        if self.plan_cache is not None:
            self.plan_cache.put(
                self.code, disk, self.algorithm, self.depth, scheme,
                self.max_expansions,
            )

    def _save_plan_cache(self) -> None:
        """Write the plan cache's new schemes back (no-op without one)."""
        if self.plan_cache is not None:
            self.plan_cache.save()

    def _search(self, disk: int) -> RecoveryScheme:
        """Run the configured generator for one disk (no cache involved)."""
        with obs.span("planner.generate", disk=disk, algorithm=self.algorithm):
            obs.count("planner.schemes_generated")
            # U is called through this module's ``u_scheme``: the repo
            # benchmark's tracer (bench/tracer.py) times U searches by
            # patching that name
            if self.algorithm == "u":
                return u_scheme(
                    self.code, disk, depth=self.depth,
                    max_expansions=self.max_expansions,
                )
            return scheme_for_disk(
                self.code, disk, self.algorithm, self.depth,
                self.max_expansions,
            )

    def _search_on_worker(self, disk: int) -> RecoveryScheme:
        """:meth:`_search`, with a failure naming the disk it was for."""
        try:
            return self._search(disk)
        except Exception as exc:
            raise RuntimeError(
                f"scheme generation failed for disk {disk}: {exc!r}"
            ) from exc

    def _plan(self, disks: Sequence[int]) -> List[RecoveryScheme]:
        """The schemes for ``disks``, searching the uncached ones in parallel.

        Plan-cache hits are resolved here, so only genuine searches reach
        the kernel threads; their schemes are cached (and put in the plan
        cache) in disk order as they complete, and the plan cache is
        written back once at the end of the pass.
        """
        todo = []
        for d in disks:
            if d in self._cache:
                continue
            hit = self._from_plan_cache(d)
            if hit is not None:
                self._cache[d] = hit
            else:
                todo.append(d)

        def deliver(disk: int, scheme: RecoveryScheme) -> None:
            self._cache[disk] = scheme
            self._to_plan_cache(disk, scheme)

        if algorithm_row(self.algorithm).baseline is None:
            _RUNNER.run(todo, self._search_on_worker, deliver)
        else:
            # a baseline is a pure-Python construction, not a kernel call:
            # built on this thread, its ValueError reaches the caller as is
            for d in todo:
                deliver(d, self._search(d))
        self._save_plan_cache()
        return [self.scheme_for_disk(d) for d in disks]

    def all_data_disk_schemes(self) -> List[RecoveryScheme]:
        """Schemes for every user-data disk (the paper's Fig. 3/4 setup)."""
        return self._plan(self.code.layout.data_disks)

    def all_disk_schemes(self) -> List[RecoveryScheme]:
        """Schemes for every disk, parity included."""
        return self._plan(range(self.code.layout.n_disks))
