"""Golden fault reports: the fault ladder's exact read accounting.

``golden_fault_reports.json`` pins, for a grid of (code, algorithm,
failed disk, fault plan) cases, what
:class:`~repro.recovery.resilient.ResilientExecutor` did: the
:meth:`FaultReport.as_dict` output (per-stripe read masks included), the
store's total read attempts and a SHA-256 of the recovered bytes — or,
when the fault load is beyond the code, the :class:`UnrecoverableError`
message.  The grid reaches every rung: retries, substitutions (single
stripe and persistent), mid-rebuild escalations with and without rows
already rebuilt, escalations that then meet a latent sector error, and
slow disks that cost nothing extra.
Every case is replayed on both executor legs (compiled kernel and numpy
fold); both must match the same record.

Regenerate only when a change to the ladder's decisions is intended::

    PYTHONPATH=src python -m tests.recovery.test_golden_fault_reports
"""

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.codec import StripeCodec
from repro.codes import make_code
from repro.faults import (
    DiskFailure,
    FaultPlan,
    FaultyStripeStore,
    LatentSectorError,
    SilentCorruption,
    SlowDisk,
)
from repro.recovery import ResilientExecutor, scheme_for_disk
from repro.recovery.multifailure import UnrecoverableError
from tests.legs import LEGS, leg_context

GOLDEN = Path(__file__).parent / "golden_fault_reports.json"

FAMILIES = (("rdp", 7), ("rdp", 8), ("evenodd", 7), ("star", 8), ("liberation", 7))
ALGORITHMS = ("khan", "c", "u")
FAULTS = (
    "none", "lse", "lse-stripe", "corrupt", "death", "death-late", "death+lse",
    "slow",
)
N_STRIPES = 4
ELEMENT_SIZE = 16
DEPTH = 2


@lru_cache(maxsize=None)
def _code(family, disks):
    return make_code(family, disks)


@lru_cache(maxsize=None)
def _stripes(family, disks):
    codec = StripeCodec(_code(family, disks), ELEMENT_SIZE)
    rng = np.random.default_rng(7)
    return tuple(codec.encode(codec.random_data(rng)) for _ in range(N_STRIPES))


@lru_cache(maxsize=None)
def _scheme(family, disks, algorithm, failed_disk):
    code = _code(family, disks)
    return scheme_for_disk(code, failed_disk, algorithm=algorithm, depth=DEPTH)


def _late_disk(scheme, layout):
    """The surviving disk the plan reaches last in slot order, so a death
    there leaves the earlier slots rebuilt (the escalation's free rows)."""
    first = {}
    for slot, eq in enumerate(scheme.equations):
        for disk, _ in layout.iter_elements(eq & ~scheme.failed_mask):
            first.setdefault(disk, slot)
    return max(first, key=lambda d: (first[d], d))


def fault_plan(scheme, layout, fault):
    """The case's faults, aimed at elements the scheme reads."""
    read = list(layout.iter_elements(scheme.read_mask))
    d0, r0 = read[0]
    d1, r1 = read[len(read) // 2]
    dead = d1 if d1 != d0 else read[-1][0]
    late = _late_disk(scheme, layout)
    faults = {
        "none": [],
        "lse": [LatentSectorError(d0, r0)],
        "lse-stripe": [LatentSectorError(d1, r1, stripe=1)],
        "corrupt": [SilentCorruption(d1, r1)],
        "death": [DiskFailure(dead, at_stripe=2)],
        "death-late": [DiskFailure(late, at_stripe=2)],
        "death+lse": [DiskFailure(late, at_stripe=1), LatentSectorError(d0, r0)],
        "slow": [SlowDisk(d0, 4.0)],
    }[fault]
    return FaultPlan(faults)


def cases():
    for family, disks in FAMILIES:
        n = _code(family, disks).layout.n_disks
        for algorithm in ALGORITHMS:
            for failed_disk in (0, n - 1):
                for fault in FAULTS:
                    yield f"{family}-{disks}/{algorithm}/d{failed_disk}/{fault}"


def run_case(case_id):
    """Run one case; its record as the golden file stores it (JSON
    round-tripped, so integer dict keys read back as strings)."""
    name, algorithm, disk, fault = case_id.split("/")
    family, disks = name.rsplit("-", 1)
    disks, failed_disk = int(disks), int(disk[1:])
    code = _code(family, disks)
    scheme = _scheme(family, disks, algorithm, failed_disk)
    stripes = _stripes(family, disks)
    store = FaultyStripeStore(
        code.layout, stripes, fault_plan(scheme, code.layout, fault)
    )
    executor = ResilientExecutor(
        code,
        scheme,
        store,
        algorithm="u" if algorithm == "c" else algorithm,
        depth=DEPTH,
    )
    try:
        result = executor.run()
    except UnrecoverableError as exc:
        return {"unrecoverable": str(exc)}
    assert result.verify_against(list(stripes))
    digest = hashlib.sha256()
    for out in result.recovered:
        for eid in sorted(out):
            digest.update(eid.to_bytes(4, "little"))
            digest.update(out[eid].tobytes())
    record = {
        "report": result.report.as_dict(),
        "total_read_attempts": store.total_read_attempts,
        "recovered_sha256": digest.hexdigest(),
    }
    return json.loads(json.dumps(record))


@lru_cache(maxsize=None)
def _golden():
    return json.loads(GOLDEN.read_text())


CASES = list(cases())


def test_the_golden_grid_reaches_every_rung():
    records = _golden()
    assert sorted(records) == sorted(CASES)
    reports = [r["report"] for r in records.values() if "report" in r]
    assert any(r["substitutions"] for r in reports)
    assert any(r["escalations"] for r in reports)
    # an escalation that credits rows already rebuilt runs sentinel slots
    assert any(e["recovered_rows"] for r in reports for e in r["escalations"])
    assert any(r["escalations"] and r["substitutions"] for r in reports)
    assert any(r["retries_per_disk"] for r in reports)
    assert any("unrecoverable" in r for r in records.values())


@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize("case_id", CASES)
def test_fault_report_matches_golden(case_id, leg):
    with leg_context(leg):
        record = run_case(case_id)
    assert record == _golden()[case_id]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({c: run_case(c) for c in CASES}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
