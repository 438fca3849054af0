"""Persistent scheme-plan cache keyed by code identity.

The paper precomputes one recovery scheme per failure situation (Sec. II-B);
:class:`~repro.recovery.planner.RecoveryPlanner` does that within one
process.  This module extends the idea across processes and machine
restarts: a :class:`SchemePlanCache` maps a *content-derived* key — the
SHA-256 of the generator bit-matrix plus the layout geometry, failed disk,
algorithm and search depth — to a serialized scheme, so a repeated rebuild
of the same code skips the C/U search entirely.

Two tiers:

* an in-memory LRU (``max_entries``, default 512) serving repeated lookups
  within one process at dict speed;
* an optional on-disk JSON store (one file, atomically rewritten via a
  temp file + ``os.replace``) shared by every process pointed at the same
  path.  A corrupted or unreadable store is *ignored with a warning* — the
  cache silently degrades to cold, it never raises.
  :meth:`~SchemePlanCache.put` only marks the store dirty;
  :meth:`~SchemePlanCache.save` writes it, and a
  :class:`~repro.recovery.planner.RecoveryPlanner` calls that once per
  planning pass.

Concurrent writers (several processes planning against one store path)
are safe: :meth:`SchemePlanCache.save` takes an advisory ``flock`` on a
``<path>.lock`` sidecar, re-reads the store under the lock, and merges
the on-disk plans with its own before the atomic replace — so two
processes saving back-to-back union their entries instead of the last
writer erasing the first one's.  Readers need no lock: ``os.replace``
guarantees they always see a complete store.

Keys are content hashes, so a change to the code family, its geometry or
its generator matrix changes the key and can never serve a stale plan;
there is no invalidation protocol to get wrong.

Hit/miss/store traffic is published on :mod:`repro.obs` counters
(``plancache.hit`` / ``plancache.miss`` / ``plancache.store``,
``plancache.disk_hit`` for hits satisfied from the JSON store) and the
in-memory occupancy on the ``plancache.size`` gauge.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

try:  # POSIX advisory locking; absent on some platforms (best-effort there)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

from repro import obs
from repro.codes.base import ErasureCode
from repro.recovery.scheme import RecoveryScheme

#: bump when the serialized scheme record shape changes; old stores are
#: ignored (treated as cold), never misparsed
STORE_VERSION = 1


@contextmanager
def _store_lock(path: Path) -> Iterator[None]:
    """Exclusive advisory lock on ``<path>.lock`` for store writers.

    The sidecar (not the store itself) is locked so the atomic
    ``os.replace`` of the store never invalidates the locked inode.
    Degrades to a no-op where ``fcntl`` is unavailable.
    """
    lock_path = path.with_name(path.name + ".lock")
    fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)


def plan_key(
    code: ErasureCode,
    failed_disk: int,
    algorithm: str,
    depth: int,
    max_expansions: Optional[int] = None,
) -> str:
    """Content-derived cache key for one (code, failure, search) situation.

    The generator bit-matrix fully determines the calculation-equation
    space, and the layout geometry fixes the element-id mapping, so two
    codes hashing equal here are guaranteed to produce identical searches.
    The family *name* is deliberately not part of the key: a Cauchy matrix
    that happens to equal an RDP matrix genuinely shares its plans.
    """
    lay = code.layout
    g = code.generator_bitmatrix()
    h = hashlib.sha256()
    h.update(f"g:{g.ncols}:".encode())
    for row in g.rows:
        h.update(format(row, "x").encode())
        h.update(b",")
    h.update(
        f"|lay:{lay.n_data}:{lay.m_parity}:{lay.k_rows}"
        f"|disk:{failed_disk}|alg:{algorithm}|depth:{depth}"
        f"|budget:{max_expansions}".encode()
    )
    return h.hexdigest()


def _scheme_record(scheme: RecoveryScheme) -> Dict[str, Any]:
    """JSON-serialisable scheme payload: every field of the scheme, its
    search stats (in ``metadata``) included."""
    return {
        "failed_mask": scheme.failed_mask,
        "failed_eids": list(scheme.failed_eids),
        "equations": list(scheme.equations),
        "read_mask": scheme.read_mask,
        "algorithm": scheme.algorithm,
        "exact": scheme.exact,
        "expanded_states": scheme.expanded_states,
        "metadata": scheme.metadata,
    }


def _scheme_from_record(raw: Dict[str, Any], code: ErasureCode) -> RecoveryScheme:
    metadata = dict(raw.get("metadata", {}))
    metadata["plan_cache"] = "hit"
    return RecoveryScheme(
        layout=code.layout,
        failed_mask=raw["failed_mask"],
        failed_eids=list(raw["failed_eids"]),
        equations=list(raw["equations"]),
        read_mask=raw["read_mask"],
        algorithm=raw.get("algorithm", "unknown"),
        exact=raw.get("exact", True),
        expanded_states=raw.get("expanded_states", 0),
        metadata=metadata,
    )


class SchemePlanCache:
    """Two-tier (memory LRU + optional JSON file) recovery-plan cache.

    Parameters
    ----------
    path:
        Optional on-disk JSON store.  Missing files start cold; corrupted
        files are ignored with a :class:`UserWarning`.
    max_entries:
        In-memory LRU bound.  The on-disk store is unbounded (plans are a
        few hundred bytes each).
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        max_entries: int = 512,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.path = Path(path) if path is not None else None
        self.max_entries = max_entries
        self._mem: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._disk: Dict[str, Dict[str, Any]] = {}
        self._dirty = False
        self.hits = 0
        self.misses = 0
        self.stores = 0
        if self.path is not None:
            self._disk = self._load_store(self.path)

    # ------------------------------------------------------------------
    # store I/O
    # ------------------------------------------------------------------
    @staticmethod
    def _load_store(path: Path, warn: bool = True) -> Dict[str, Dict[str, Any]]:
        """Parse the JSON store; any defect degrades to an empty cache."""
        if not path.exists():
            return {}
        try:
            payload = json.loads(path.read_text())
            if not isinstance(payload, dict):
                raise ValueError("store root is not an object")
            if payload.get("version") != STORE_VERSION:
                raise ValueError(
                    f"store version {payload.get('version')!r} != {STORE_VERSION}"
                )
            plans = payload.get("plans")
            if not isinstance(plans, dict):
                raise ValueError("store has no 'plans' object")
            for key, raw in plans.items():
                if not isinstance(raw, dict) or "equations" not in raw:
                    raise ValueError(f"malformed plan record for key {key[:12]}")
            return plans
        except (OSError, ValueError) as exc:
            if warn:
                warnings.warn(
                    f"ignoring unusable plan cache {path}: {exc}",
                    UserWarning,
                    stacklevel=3,
                )
            obs.count("plancache.corrupt_store")
            return {}

    def save(self) -> None:
        """Merge-and-rewrite the on-disk store (no-op without a path).

        Runs under the store's advisory writer lock: the current file is
        re-read and unioned with this process's entries first, so
        concurrent savers from other shards never erase each other's
        plans (this writer's record wins a key collision, but keys are
        content hashes — colliding records are identical anyway).
        """
        if self.path is None or not self._dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with _store_lock(self.path):
            # a corrupt current store was (or will be) warned about by the
            # load path; the merge just treats it as empty and overwrites
            current = self._load_store(self.path, warn=False)
            if current:
                self._disk = {**current, **self._disk}
            payload = {"version": STORE_VERSION, "plans": self._disk}
            fd, tmp = tempfile.mkstemp(
                dir=str(self.path.parent), prefix=self.path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(payload, fh)
                os.replace(tmp, self.path)
            except OSError:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        self._dirty = False

    # ------------------------------------------------------------------
    # lookup / insert
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._mem)

    def get(
        self,
        code: ErasureCode,
        failed_disk: int,
        algorithm: str,
        depth: int,
        max_expansions: Optional[int] = None,
    ) -> Optional[RecoveryScheme]:
        """The cached scheme for this situation, or ``None`` on a miss."""
        key = plan_key(code, failed_disk, algorithm, depth, max_expansions)
        record = self._mem.get(key)
        if record is not None:
            self._mem.move_to_end(key)
        elif key in self._disk:
            record = self._disk[key]
            obs.count("plancache.disk_hit")
            self._remember(key, record)
        if record is None:
            self.misses += 1
            obs.count("plancache.miss")
            return None
        self.hits += 1
        obs.count("plancache.hit")
        return _scheme_from_record(record, code)

    def put(
        self,
        code: ErasureCode,
        failed_disk: int,
        algorithm: str,
        depth: int,
        scheme: RecoveryScheme,
        max_expansions: Optional[int] = None,
    ) -> str:
        """Insert a freshly generated scheme; returns its key.

        With a path, the store is only marked dirty: :meth:`save` writes
        it.
        """
        key = plan_key(code, failed_disk, algorithm, depth, max_expansions)
        record = _scheme_record(scheme)
        self._remember(key, record)
        self.stores += 1
        obs.count("plancache.store")
        if self.path is not None:
            self._disk[key] = record
            self._dirty = True
        return key

    def _remember(self, key: str, record: Dict[str, Any]) -> None:
        self._mem[key] = record
        self._mem.move_to_end(key)
        while len(self._mem) > self.max_entries:
            self._mem.popitem(last=False)
        obs.gauge("plancache.size", len(self._mem))

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Hit/miss/store counters plus current sizes."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "mem_entries": len(self._mem),
            "disk_entries": len(self._disk),
        }
