"""Data-path throughput: scalar vs vectorized batch reconstruction.

The paper notes recovery XOR is orders of magnitude faster than disk reads;
this bench quantifies our data path so that claim is checkable for the
Python implementation too, and measures the win from batching stripes into
one compiled ``recover_batch_into`` call (the C kernel, or the numpy fold
under ``REPRO_PURE_PYTHON=1``).
"""

import numpy as np
import pytest
from conftest import emit

from repro.codec import BatchReconstructor, StripeCodec, execute_scheme
from repro.codes import make_code
from repro.recovery import u_scheme

N_STRIPES = 64
ELEMENT_SIZE = 4096


@pytest.fixture(scope="module")
def setup():
    code = make_code("rdp", 8)
    scheme = u_scheme(code, 0, depth=1)
    codec = StripeCodec(code, element_size=ELEMENT_SIZE)
    rng = np.random.default_rng(1)
    stripes = np.stack(
        [codec.encode(codec.random_data(rng)) for _ in range(N_STRIPES)]
    )
    return code, scheme, stripes


def _batch_out(scheme, stripes):
    return np.empty(
        (stripes.shape[0], len(scheme.failed_eids), ELEMENT_SIZE), dtype=np.uint8
    )


def test_scalar_recovery(benchmark, setup):
    _, scheme, stripes = setup

    def run():
        for s in range(stripes.shape[0]):
            execute_scheme(scheme, stripes[s])

    benchmark(run)


def test_batch_recovery(benchmark, setup):
    _, scheme, stripes = setup
    recon = BatchReconstructor(scheme)
    benchmark(recon.recover_batch_into, stripes, _batch_out(scheme, stripes))


def test_xor_vs_disk_bandwidth(benchmark, setup, results_dir):
    """XOR throughput must dwarf the 56.1 MB/s disk read bandwidth —
    the paper's justification for read-bound recovery."""
    import time

    _, scheme, stripes = setup
    recon = BatchReconstructor(scheme)
    out = _batch_out(scheme, stripes)
    t0 = time.perf_counter()
    recon.recover_batch_into(stripes, out)
    elapsed = time.perf_counter() - t0
    recovered_mb = (
        stripes.shape[0] * len(scheme.failed_eids) * ELEMENT_SIZE / 1e6
    )
    xor_mb_s = recovered_mb / elapsed
    benchmark.pedantic(recon.recover_batch_into, args=(stripes, out), rounds=3,
                       iterations=1)
    emit(
        results_dir,
        "codec_throughput",
        f"batch XOR recovery: {xor_mb_s:,.0f} MB/s recovered vs 56.1 MB/s "
        "per-disk read bandwidth — recovery is read-bound as the paper "
        "assumes (Sec. II-B)",
    )
    assert xor_mb_s > 56.1 * 4
