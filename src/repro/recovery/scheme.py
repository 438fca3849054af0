"""Recovery scheme representation.

A :class:`RecoveryScheme` is the output of every generator algorithm: one
calculation equation per failed element (in recovery order) plus the derived
read set and load statistics.  It is a *plan* — the byte-level execution
lives in :mod:`repro.codec.reconstructor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.codes.base import ErasureCode
from repro.codes.layout import CodeLayout


@dataclass
class RecoveryScheme:
    """A concrete plan for recovering a set of failed elements.

    Attributes
    ----------
    failed_eids:
        Failed elements in recovery order.
    equations:
        ``equations[i]`` is the full calculation equation (mask including the
        failed element and possibly earlier-recovered failed elements) used
        to rebuild ``failed_eids[i]``.
    read_mask:
        Union of the surviving elements the plan reads.
    algorithm:
        Generator name (``"khan"``, ``"c"``, ``"u"``, ``"naive"``, ...).
    exact:
        False when the generator hit its state budget and finished greedily;
        the scheme is still valid, just not certifiably optimal.
    expanded_states:
        Search effort indicator (states popped from the frontier).
    metadata:
        Free-form, JSON-serialisable annotations.  The search engine stores
        its :class:`~repro.recovery.search.SearchStats` record under
        ``metadata["search_stats"]``.
    """

    layout: CodeLayout
    failed_mask: int
    failed_eids: List[int]
    equations: List[int]
    read_mask: int
    algorithm: str = "unknown"
    exact: bool = True
    expanded_states: int = 0
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def search_stats(self) -> Optional[Dict[str, Any]]:
        """The generating search's effort record, if one was attached."""
        return self.metadata.get("search_stats")

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    @property
    def total_reads(self) -> int:
        """Total number of surviving elements read (paper: amount of data)."""
        return self.read_mask.bit_count()

    @property
    def loads(self) -> List[int]:
        """Per-disk read loads."""
        return self.layout.loads(self.read_mask)

    @property
    def max_load(self) -> int:
        """Read load of the most loaded disk — the number of parallel read
        accesses, which governs recovery time under parallel I/O."""
        return self.layout.max_load(self.read_mask)

    def weighted_max_load(self, weights: Sequence[float]) -> float:
        """Max per-disk read *cost* under heterogeneous disk weights."""
        return self.layout.max_weighted_load(self.read_mask, weights)

    def load_variance(self) -> float:
        """Variance of per-disk loads (the 'variation' the paper minimizes)."""
        loads = self.loads
        mean = sum(loads) / len(loads)
        return sum((x - mean) ** 2 for x in loads) / len(loads)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def check_order(self) -> None:
        """Refuse a plan that cannot run in list order.

        Every failed member of a slot's equation other than its own
        element must be recovered by an *earlier* slot.  Plans can arrive
        from outside (a plan store read back from disk), and executing an
        out-of-order plan would XOR in bytes that do not exist yet.
        Raises :class:`ValueError` naming the first such slot and element.
        """
        recovered = 0
        for slot, (f, eq) in enumerate(zip(self.failed_eids, self.equations)):
            early = eq & self.failed_mask & ~(recovered | (1 << f))
            if early:
                eid = (early & -early).bit_length() - 1
                raise ValueError(
                    f"scheme slot {slot} (element {f}) uses failed element "
                    f"{eid}, which no earlier slot recovers"
                )
            recovered |= 1 << f

    def validate(self, code: ErasureCode) -> None:
        """Assert the plan is executable and internally consistent."""
        if len(self.equations) != len(self.failed_eids):
            raise AssertionError("one equation per failed element required")
        recovered = 0
        union_reads = 0
        for f, eq in zip(self.failed_eids, self.equations):
            fbit = 1 << f
            if not eq & fbit:
                raise AssertionError(f"equation for element {f} misses it")
            illegal = eq & self.failed_mask & ~(recovered | fbit)
            if illegal:
                raise AssertionError(
                    f"equation for {f} uses unrecovered failed elements"
                )
            if not self._in_equation_space(code, eq):
                raise AssertionError(f"equation for {f} not a calculation equation")
            union_reads |= eq & ~self.failed_mask
            recovered |= fbit
        if recovered != self.failed_mask:
            raise AssertionError("plan does not cover all failed elements")
        if union_reads != self.read_mask:
            raise AssertionError("read_mask inconsistent with equations")

    @staticmethod
    def _in_equation_space(code: ErasureCode, eq: int) -> bool:
        """Is ``eq`` in the row space of the parity-check matrix?"""
        from repro.gf2 import BitMatrix
        from repro.gf2.linalg import rank

        h = code.parity_check_matrix()
        stacked = BitMatrix(h.ncols, list(h.rows) + [eq])
        return rank(stacked) == rank(h)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Figure 1/2 style ASCII picture of the stripe."""
        return self.layout.render(failed=self.failed_mask, read=self.read_mask)

    def summary(self) -> str:
        return (
            f"{self.algorithm}-scheme: total={self.total_reads} "
            f"max_load={self.max_load} loads={self.loads}"
        )
