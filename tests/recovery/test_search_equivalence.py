"""Regression: the optimized engine reproduces the seed engine's schemes.

``golden_schemes.json`` captures, for every point of the paper's E7 grid
(five Figure-3 families × n=7..16 × Khan/C/U, failed disk 0, depth 1), the
scheme the original pure-Python uniform-cost search returned: cost key,
read mask and full equation chain.  The seed search is deterministic, so
the overhauled engine — incremental cost models, early-goal cutoff and the
optional compiled kernel — must return byte-identical schemes, not merely
cost-identical ones.
"""

import json
from pathlib import Path

import pytest

from repro.codes import make_code
from repro.recovery import scheme_for_disk

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_schemes.json").read_text()
)


def _point_id(rec):
    return f"{rec['family']}-n{rec['n_disks']}-{rec['algorithm']}"


@pytest.mark.parametrize(
    "rec", GOLDEN["records"], ids=[_point_id(r) for r in GOLDEN["records"]]
)
def test_scheme_matches_seed_engine(rec):
    code = make_code(rec["family"], rec["n_disks"])
    scheme = scheme_for_disk(code, 0, rec["algorithm"], depth=1)
    # the optimality contract: identical cost keys everywhere
    assert scheme.total_reads == rec["total_reads"]
    assert scheme.max_load == rec["max_load"]
    assert scheme.exact == rec["exact"]
    # the determinism contract: the seed UCS was deterministic, so the
    # optimized engine must pick the very same scheme, not just an
    # equally-cheap one
    assert hex(scheme.read_mask) == rec["read_mask"]
    assert [hex(e) for e in scheme.equations] == rec["equations"]


def test_grid_is_complete():
    """All five families, all widths with an instance, all algorithms."""
    seen = {(r["family"], r["algorithm"]) for r in GOLDEN["records"]}
    assert len(GOLDEN["records"]) == 150
    for family in ("blaum_roth", "evenodd", "rdp", "liberation", "star"):
        for alg in ("khan", "c", "u"):
            assert (family, alg) in seen
