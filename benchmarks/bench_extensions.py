"""Experiment E8 — Sec. V-D extensions.

* Multi-disk failure in STAR: the U-Algorithm applied to a two-whole-disk
  failure set (timed kernel) with the Khan-vs-U load comparison.
* Heterogeneous environment: the weighted U-Algorithm on an array with a
  slow disk, compared with uniform balancing on simulated recovery speed.
"""

from conftest import STACKS, emit

from repro.codes import make_code
from repro.disksim import SAVVIO_10K3, simulate_stack_recovery
from repro.recovery import recover_failure, scheme_for_mask


def test_multifailure_star(benchmark, results_dir):
    code = make_code("star", 9)  # 6 data + 3 parity
    mask = code.layout.disk_mask(0) | code.layout.disk_mask(3)
    u = benchmark(recover_failure, code, mask, algorithm="u")
    khan = recover_failure(code, mask, algorithm="khan")
    assert u.max_load <= khan.max_load

    lines = [
        "Sec. V-D — double-disk failure in STAR (disks 0 and 3)",
        f"khan: total={khan.total_reads} max_load={khan.max_load} loads={khan.loads}",
        f"u:    total={u.total_reads} max_load={u.max_load} loads={u.loads}",
    ]
    emit(results_dir, "ext_multifailure_star", "\n".join(lines))


def test_heterogeneous_recovery(benchmark, results_dir):
    code = make_code("evenodd", 10)
    lay = code.layout
    failed = lay.disk_mask(0)
    speed = [0.5 if d in (5, 6) else 1.0 for d in range(lay.n_disks)]
    weights = [1.0 / s for s in speed]
    params = [SAVVIO_10K3.scaled(s) for s in speed]

    weighted = benchmark(scheme_for_mask, code, failed, "u", weights=weights)
    uniform = scheme_for_mask(code, failed, "u")

    speeds = {
        name: simulate_stack_recovery(code, [s], stacks=STACKS, params=params).speed_mb_s
        for name, s in (("uniform", uniform), ("weighted", weighted))
    }
    assert weighted.weighted_max_load(weights) <= uniform.weighted_max_load(weights)
    assert speeds["weighted"] >= speeds["uniform"] - 1e-9

    lines = [
        "Sec. V-D — heterogeneous array (disks 5,6 at half speed)",
        f"uniform-U : loads={uniform.loads} "
        f"max_cost={uniform.weighted_max_load(weights):.1f} "
        f"speed={speeds['uniform']:.1f} MB/s",
        f"weighted-U: loads={weighted.loads} "
        f"max_cost={weighted.weighted_max_load(weights):.1f} "
        f"speed={speeds['weighted']:.1f} MB/s",
    ]
    emit(results_dir, "ext_heterogeneous", "\n".join(lines))
