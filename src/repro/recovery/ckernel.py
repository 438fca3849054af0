"""On-demand compiled C kernels with a silent pure-Python fallback.

Two kernels share one shared object compiled from ``_ucs.c``:

* ``ucs_search`` — the integer-key cost models (Khan / C / U) spend their
  time in a tight pop-push loop whose per-state work is a handful of word
  operations — exactly the regime where the CPython interpreter's ~µs
  dispatch overhead dominates.  The kernel is a line-for-line mirror of
  the engine loop in :mod:`repro.recovery.search`.  Its frontier is the
  paper's ``rec_list``: one FIFO bucket per cost key, drained in key
  order; its masks are ``ceil(n_elements / 64)`` words wide, up to the
  512-element cap (:data:`MAX_ELEMENTS`).
* ``xor_batch`` — the serving/rebuild reconstruction hot path: one call
  XORs every failed element of a whole stripe batch straight into the
  caller's output buffer (see
  :meth:`repro.codec.batch.BatchReconstructor.recover_batch_into`),
  fusing what the numpy path does in one dispatched pass per equation
  source.  The batch may be handed over as per-column views (one per
  logical disk of a disk image, say), and given stripe ids it reads the
  batch straight out of a whole store; either way nothing is staged.
  Exposed here through :func:`xor_batch`.

This module compiles ``_ucs.c`` with the system C compiler the first time
it is needed, caches the shared object under ``$XDG_CACHE_HOME/repro-ckernel``
keyed by a hash of the source, and exposes it through :mod:`ctypes`.

There is no build step and no third-party dependency: if no compiler is
present (or ``REPRO_PURE_PYTHON`` is set), :func:`load` returns ``None``
and everything runs on the pure-Python/numpy engines with identical
results — the search kernel replicates pop order exactly (its buckets
pop in ``(key, push order)``, the order of the Python engine's
``(key, state id)`` heap) and XOR is XOR, so outputs are byte-identical
either way.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import threading
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

_SRC = Path(__file__).with_name("_ucs.c")
_WORD_MASK = (1 << 64) - 1
MAX_ELEMENTS = 8 * 64  # must match MAX_W words in _ucs.c

#: cost-model kind codes understood by the kernel
KIND_KHAN, KIND_CONDITIONAL, KIND_UNCONDITIONAL = 0, 1, 2

_lib: Optional[ctypes.CDLL] = None
_load_attempted = False
#: concurrent first callers wait for the one load instead of seeing None
_load_lock = threading.Lock()


class _Stats(ctypes.Structure):
    _fields_ = [
        ("expanded", ctypes.c_uint64),
        ("pushed", ctypes.c_uint64),
        ("pruned_closed", ctypes.c_uint64),
        ("pruned_bound", ctypes.c_uint64),
        ("peak_frontier", ctypes.c_uint64),
        ("status", ctypes.c_int32),
    ]


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(root) / "repro-ckernel"


def _compile(src: Path, out: Path) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(f"{out.stem}.{os.getpid()}.tmp")
    cc = os.environ.get("CC", "cc")
    try:
        subprocess.run(
            [cc, "-O3", "-shared", "-fPIC", "-o", str(tmp), str(src)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp, out)  # atomic: concurrent compiles race benignly
    finally:
        # a failed cc may leave a partial object behind; never litter the
        # cache dir (os.replace already consumed tmp on the success path)
        tmp.unlink(missing_ok=True)


def load() -> Optional[ctypes.CDLL]:
    """The compiled kernel, or ``None`` when unavailable (pure-Python mode)."""
    global _lib, _load_attempted
    if _load_attempted:
        return _lib
    with _load_lock:
        if not _load_attempted:
            # published before the flag: a caller that sees the flag set
            # without taking the lock also sees the library
            _lib = _open()
            _load_attempted = True
    return _lib


def _open() -> Optional[ctypes.CDLL]:
    """Compile (if not cached) and open the kernel; ``None`` on any failure."""
    if os.environ.get("REPRO_PURE_PYTHON"):
        return None
    try:
        source = _SRC.read_bytes()
        tag = hashlib.sha256(source).hexdigest()[:16]
        so = _cache_dir() / f"ucs_{tag}.so"
        if not so.exists():
            _compile(_SRC, so)
        lib = ctypes.CDLL(str(so))
        lib.ucs_search.restype = ctypes.c_int64
        lib.ucs_search.argtypes = [
            ctypes.c_int32,                    # n_slots
            ctypes.POINTER(ctypes.c_int64),    # opt_off
            ctypes.POINTER(ctypes.c_uint64),   # opt_masks
            ctypes.c_int32,                    # n_disks
            ctypes.c_int32,                    # k_rows
            ctypes.c_int32,                    # kind
            ctypes.c_uint64,                   # max_expansions
            ctypes.POINTER(ctypes.c_int32),    # out_chain
            ctypes.POINTER(_Stats),            # stats
        ]
        lib.xor_batch.restype = ctypes.c_int64
        lib.xor_batch.argtypes = [
            ctypes.POINTER(ctypes.c_void_p),   # column bases
            ctypes.c_int64,                    # rows per column
            ctypes.c_int64,                    # stripe stride (bytes)
            ctypes.c_void_p,                   # int64 stripe ids (n,) or NULL
            ctypes.c_int64,                    # n_stripes (output rows)
            ctypes.c_int64,                    # element_size
            ctypes.c_void_p,                   # out (n, n_slots, esz)
            ctypes.c_int64,                    # out row stride (bytes)
            ctypes.c_int64,                    # n_slots
            ctypes.c_void_p,                   # int64 src_off (n_slots + 1)
            ctypes.c_void_p,                   # int32 src_ids
        ]
        return lib
    except Exception as exc:
        # the fallback is silent by design (pure Python is byte-identical),
        # but REPRO_CKERNEL_DEBUG=1 surfaces *why* the kernel was skipped
        if os.environ.get("REPRO_CKERNEL_DEBUG"):
            stderr = getattr(exc, "stderr", None)
            detail = ""
            if stderr:
                if isinstance(stderr, bytes):
                    stderr = stderr.decode(errors="replace")
                detail = f"; compiler stderr: {stderr.strip()}"
            warnings.warn(
                f"repro C kernel unavailable, using pure-Python engine "
                f"({exc!r}{detail})",
                RuntimeWarning,
                stacklevel=3,
            )
        return None


def available() -> bool:
    return load() is not None


def run(
    slot_opts: Sequence[Sequence[Tuple[int, int]]],
    n_disks: int,
    k_rows: int,
    kind: int,
    max_expansions: Optional[int],
) -> Optional[Tuple[List[int], Dict[str, int]]]:
    """Run the kernel; ``None`` means "use the pure-Python engine".

    ``slot_opts`` is the engine's per-slot list of (read_mask, equation)
    pairs.  Returns the chosen option index per slot plus the kernel's
    effort counters.  Falls back (returns ``None``) when the kernel is
    unavailable, the geometry exceeds :data:`MAX_ELEMENTS`, or the
    expansion budget was exhausted (the Python engine owns the greedy
    completion path).
    """
    lib = load()
    if lib is None:
        return None
    n_slots = len(slot_opts)
    if n_slots == 0 or n_slots >= 0xFFFF or n_disks * k_rows > MAX_ELEMENTS:
        return None
    if max_expansions is not None and max_expansions < 1:
        return None  # exhausted at the first expansion (0 is "unlimited" in C)

    words = (n_disks * k_rows + 63) // 64
    offs = [0]
    rows: List[int] = []
    for opts in slot_opts:
        rows.extend(rm for rm, _eq in opts)
        offs.append(len(rows))
    opt_off = (ctypes.c_int64 * (n_slots + 1))(*offs)
    opt_masks = (ctypes.c_uint64 * (len(rows) * words))()
    for r, rm in enumerate(rows):
        i = r * words
        while rm:
            opt_masks[i] = rm & _WORD_MASK
            rm >>= 64
            i += 1

    chain = (ctypes.c_int32 * n_slots)()
    stats = _Stats()
    rc = lib.ucs_search(
        n_slots, opt_off, opt_masks, n_disks, k_rows, kind,
        ctypes.c_uint64(max_expansions or 0), chain, ctypes.byref(stats),
    )
    if rc != 0 or stats.status != 0:
        return None
    counters = {
        "expanded": stats.expanded,
        "pushed": stats.pushed,
        "pruned_closed": stats.pruned_closed,
        "pruned_bound": stats.pruned_bound,
        "peak_frontier": stats.peak_frontier,
    }
    return list(chain), counters


def xor_available() -> bool:
    """Is the batched-XOR kernel usable in this process?"""
    lib = load()
    return lib is not None and hasattr(lib, "xor_batch")


def check_stripe_ids(stripe_ids, n_stripes: int) -> None:
    """Raise :class:`IndexError` unless every id lies in ``[0, n_stripes)``.

    Checked before any gather, on the kernel and the numpy path alike:
    numpy's negative indexing would otherwise silently read the store's
    last stripes, and the kernel would read outside the store.
    """
    if stripe_ids.size == 0:
        return
    lo, hi = int(stripe_ids.min()), int(stripe_ids.max())
    if lo < 0 or hi >= n_stripes:
        bad = lo if lo < 0 else hi
        raise IndexError(f"stripe id {bad} out of range [0, {n_stripes})")


def _rows_packed(arr, esz: int) -> bool:
    """uint8 with each stripe's rows packed ``esz`` bytes apart."""
    return arr.dtype.char == "B" and arr.strides[1:] == (esz, 1)


def marshal_columns(cols) -> Optional[ctypes.Array]:
    """The kernel's base-pointer array for ``cols``, or ``None``.

    ``cols`` is a non-empty sequence of 3-D ``(n_stripes, k_rows, esz)``
    views.  The kernel addresses them only if every column is uint8, has
    the first column's shape and stripe stride, and packs each stripe's
    rows ``esz`` bytes apart; otherwise ``None`` ("fold with numpy").
    The array holds raw addresses: the caller keeps the views alive.
    """
    first = cols[0]
    shape, stride = first.shape, first.strides[0]
    for col in cols:
        if col.shape != shape or col.strides[0] != stride:
            return None
        if not _rows_packed(col, shape[2]):
            return None
    return (ctypes.c_void_p * len(cols))(*[col.ctypes.data for col in cols])


def xor_columns(bases, shape, stride, out, src_off, src_ids, stripe_ids=None) -> bool:
    """Run the kernel over marshalled columns; ``False`` means "use numpy".

    ``bases`` comes from :func:`marshal_columns` for columns of ``shape``
    ``(n_stripes, k_rows, esz)`` and stripe stride ``stride``; ``src_off``
    and ``src_ids`` are the addresses of the C-contiguous int64 / int32
    plan arrays.  Checks only what varies per call — ``out`` and the
    stripe ids — with the refusals and errors of :func:`xor_batch`.
    """
    lib = load()
    if lib is None:
        return False
    n_stripes, k_rows, esz = shape
    if not (_rows_packed(out, esz) and out.flags.writeable):
        return False
    sid = None
    if stripe_ids is not None:
        if stripe_ids.dtype.str[1:] != "i8" or not stripe_ids.flags.c_contiguous:
            return False
        if stripe_ids.shape != (out.shape[0],):
            raise ValueError(
                f"stripe_ids shape {stripe_ids.shape} != ({out.shape[0]},)"
            )
        check_stripe_ids(stripe_ids, n_stripes)
        n_stripes = out.shape[0]
        sid = stripe_ids.ctypes.data
    n_slots = out.shape[1]
    if n_stripes == 0 or n_slots == 0 or esz == 0:
        return True  # nothing to XOR; the zero-fill contract is vacuous
    rc = lib.xor_batch(
        bases, k_rows, stride, sid, n_stripes, esz,
        out.ctypes.data, out.strides[0], n_slots, src_off, src_ids,
    )
    return rc == 0


def xor_batch(stripes, out, src_off, src_ids, stripe_ids=None) -> bool:
    """Run the batched-XOR kernel; ``False`` means "use the numpy path".

    Parameters mirror
    :meth:`repro.codec.batch.BatchReconstructor.recover_batch_into`:
    ``stripes`` is either the ``(n_stripes, n_elements, esz)`` input batch
    or a sequence of column views, each ``(n_stripes, k_rows, esz)``,
    whose concatenation along axis 1 is that batch (element ``e`` is row
    ``e % k_rows`` of column ``e // k_rows``); ``out`` is the
    ``(n_stripes, n_slots, esz)`` output block.  ``src_off`` (int64,
    ``n_slots + 1``) and ``src_ids`` (int32) are the flattened source
    plan (ids ``>= 0`` name stripe elements, ``< 0`` name earlier output
    slots as ``-(slot + 1)``).  With ``stripe_ids`` (int64, one per
    output row) the input holds a whole store and output row ``j`` is
    rebuilt from stripe ``stripe_ids[j]``, read in place.

    Nothing is copied: columns may sit anywhere in memory and stripes and
    output rows may be any number of bytes apart, as long as every column
    shares one stripe stride and, in every buffer, a stripe's rows are
    packed.  The caller owns shape agreement between the plan and the
    buffers; this wrapper refuses what the kernel cannot address — no
    kernel, non-uint8 buffers, unpacked rows, columns with different
    shapes or stripe strides, a read-only ``out``, stripe ids that are
    not C-contiguous int64 — by returning ``False`` so the numpy fold
    (which handles any layout) runs instead.  A stripe id outside the
    store raises :class:`IndexError` before the kernel runs, and a
    ``stripe_ids`` whose length is not ``out``'s row count raises
    :class:`ValueError`.  Output bytes are identical either way.

    This marshals everything on every call; a caller that runs many
    calls over the same columns and plan marshals them once
    (:func:`marshal_columns`) and calls :func:`xor_columns`.
    """
    cols = (stripes,) if hasattr(stripes, "shape") else tuple(stripes)
    if not cols:
        return False
    bases = marshal_columns(cols)
    if bases is None:
        return False
    if not (src_off.flags.c_contiguous and src_ids.flags.c_contiguous):
        return False
    return xor_columns(
        bases, cols[0].shape, cols[0].strides[0], out,
        src_off.ctypes.data, src_ids.ctypes.data, stripe_ids,
    )
