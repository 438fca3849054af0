"""Extension bench: why the paper's rotated placement matters.

Without rotation a physical disk's recovery cost depends on which logical
role it froze into — shortened codes have asymmetric failure situations, so
flat placement produces lucky and unlucky disks.  Rotation equalises them
(the stack property the paper's measurements rely on, Sec. VI-A).

Both arms run one rotation of stripes (``n_disks`` stripes) through
:func:`~repro.disksim.recovery_sim.simulate_stack_recovery`.  Rotated, a
failed disk meets every logical situation once, so every disk takes one
stack over all situations.  Flat, disk *d* meets its own situation
``n_disks`` times.
"""

from conftest import emit

from repro.codes import make_code
from repro.disksim import simulate_stack_recovery
from repro.recovery import RecoveryPlanner

FAMILY, N_DISKS = "rdp", 7  # shortened RDP: situations genuinely differ


def _spread(times):
    """worst/best ratio — 1.0 means placement-independent recovery."""
    return max(times) / min(times)


def test_rotation_equalizes_recovery(benchmark, results_dir):
    code = make_code(FAMILY, N_DISKS)
    n = code.layout.n_disks
    schemes = RecoveryPlanner(code, "u", depth=1).all_disk_schemes()

    stack = benchmark(simulate_stack_recovery, code, schemes, stacks=1)
    rotated = [stack.recovery_time_s] * n
    flat = [
        simulate_stack_recovery(code, [scheme], stacks=n).recovery_time_s
        for scheme in schemes
    ]

    lines = [
        f"Placement and recovery time ({FAMILY}@{N_DISKS}, one rotation of "
        "stripes, U-schemes)",
        f"  flat    : per-disk {['%.2f' % t for t in flat]} s "
        f"(worst/best = {_spread(flat):.2f})",
        f"  rotated : per-disk {['%.2f' % t for t in rotated]} s "
        f"(worst/best = {_spread(rotated):.2f})",
        "rotation removes the placement lottery: every disk recovers in the "
        "situation-average time",
    ]
    emit(results_dir, "ext_placement", "\n".join(lines))

    assert _spread(rotated) < _spread(flat)
    assert abs(_spread(rotated) - 1.0) < 1e-9
