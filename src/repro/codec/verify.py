"""End-to-end scheme verification on random data, plus element integrity.

Two layers of "is the data right?":

* :func:`verify_scheme_on_random_data` — whole-scheme byte round trip, the
  paper's Sec. VI-A correctness check.
* :func:`element_checksum` / :func:`verify_element` — per-element CRC32,
  the integrity primitive the fault-tolerant read path uses to catch
  *silent* corruption (a read that succeeds but returns wrong bytes).
"""

from __future__ import annotations

import zlib
from typing import List, Optional

import numpy as np

from repro.codec.batch import BatchReconstructor
from repro.codec.encoder import StripeCodec
from repro.codes.base import ErasureCode
from repro.recovery.scheme import RecoveryScheme


def element_checksum(element: np.ndarray) -> int:
    """CRC32 of one element's bytes (the store's integrity metadata)."""
    return zlib.crc32(np.ascontiguousarray(element).tobytes()) & 0xFFFFFFFF


def stripe_checksums(stripe: np.ndarray) -> List[int]:
    """Per-element CRC32s of a whole stripe, indexed by eid."""
    return [element_checksum(stripe[eid]) for eid in range(stripe.shape[0])]


def verify_element(element: np.ndarray, checksum: int) -> bool:
    """Does the element's payload match its recorded checksum?"""
    return element_checksum(element) == checksum


def verify_scheme_on_random_data(
    code: ErasureCode,
    scheme: RecoveryScheme,
    element_size: int = 64,
    n_stripes: int = 2,
    seed: Optional[int] = None,
) -> bool:
    """Encode random stripes, erase, recover with ``scheme``, compare bytes.

    This is the correctness check of the paper's evaluation ("we also compare
    the original data in the virtual failed disk with the recovered data",
    Sec. VI-A), packaged for the test-suite and examples.  All
    ``n_stripes`` stripes are recovered by one compiled batch call.
    """
    rng = np.random.default_rng(seed)
    codec = StripeCodec(code, element_size)
    stripes = np.empty((n_stripes, code.layout.n_elements, element_size), np.uint8)
    for s in range(n_stripes):
        stripes[s] = codec.encode(codec.random_data(rng))
    out = np.empty((n_stripes, len(scheme.failed_eids), element_size), np.uint8)
    BatchReconstructor(scheme).recover_batch_into(stripes, out)
    return np.array_equal(out, stripes[:, scheme.failed_eids])
