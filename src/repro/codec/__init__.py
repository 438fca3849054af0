"""Byte-level data path: encode stripes, execute recovery schemes, verify.

The paper validates its schemes by comparing the recovered data with the
original content of the virtual failed disk (Sec. VI-A); this subpackage is
that machinery.  Elements are numpy ``uint8`` buffers and every recovery is a
sequence of XOR reductions — the CPU cost the paper measures as negligible
next to disk reads.
"""

from repro.codec.batch import BatchReconstructor, ColumnSet, CompiledPlanCache
from repro.codec.encoder import StripeCodec
from repro.codec.image import ArrayImageCodec
from repro.codec.reconstructor import execute_scheme
from repro.codec.verify import (
    element_checksum,
    stripe_checksums,
    verify_element,
    verify_scheme_on_random_data,
)

__all__ = [
    "ArrayImageCodec",
    "BatchReconstructor",
    "ColumnSet",
    "CompiledPlanCache",
    "StripeCodec",
    "element_checksum",
    "execute_scheme",
    "stripe_checksums",
    "verify_element",
    "verify_scheme_on_random_data",
]
