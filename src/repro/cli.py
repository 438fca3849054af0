"""Command-line interface: ``repro-recovery``.

Subcommands
-----------
``families``
    List supported code families.
``scheme``
    Generate and display a recovery scheme for a failed disk.
``verify``
    Byte-exact round trip: encode random data, fail a disk, recover,
    compare.
``simulate``
    Recovery speed on the simulated SAS array for all algorithms.
``figure3`` / ``figure4``
    Regenerate a paper figure's series as a text table.
``recover``
    Fault-injected end-to-end recovery: encode random stripes, inject
    latent sector errors / silent corruption / slow disks / a second disk
    death (``--inject``), recover through the resilient executor, verify
    byte-exactness and print the fault report.
``rebuild``
    High-throughput whole-disk rebuild through :mod:`repro.pipeline`:
    encode a rotated multi-stripe array image, fail a physical disk,
    rebuild it with the zero-copy stripe pipeline (``--workers``,
    ``--chunk-stripes``) and verify byte-identity.  ``--plan-cache PATH``
    persists recovery plans so repeat runs skip the scheme search.
``serve``
    Online degraded-read serving: an open-loop request trace is replayed
    through ``--shards`` shard processes while the failed disk rebuilds
    in the background; the board throttle paces rebuild chunks to hold
    read p99 at the target (``--no-qos`` for the FIFO baseline), and
    ``--inject`` sends degraded reads through the resilient executor.
    Prints latency percentiles, path counters and byte-exactness.
``trace``
    Run the scheme pipeline (enumerate, search, verify, simulate) with
    the :mod:`repro.obs` recorder enabled and write a JSONL trace;
    ``trace --validate FILE`` checks an existing trace against the
    schema.
``fleet``
    Fleet-scale durability Monte-Carlo: simulate years of operation for
    a pool of disks with repair windows priced from the real recovery
    planner / placement / topology stack, and print a (placement x
    recovery scheme) table of loss probability, nines and MTTDL.
    ``--engine both`` cross-checks the vectorized numpy core against the
    pure-Python reference.

The global ``--profile`` flag (before the subcommand) enables tracing for
any subcommand and prints a stage-breakdown table when it finishes.

Error contract: an unknown code family, invalid geometry, or any other
:class:`ValueError` raised by a subcommand prints a one-line ``error:``
message to stderr and exits with status 2 — never a raw traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from repro.analysis import (
    SchemeCache,
    ascii_plot,
    figure3_series,
    figure4_series,
    render_series_table,
)
from repro.codec import verify_scheme_on_random_data
from repro.codes import list_families, make_code
from repro.disksim.recovery_sim import simulate_stack_recovery
from repro.recovery import ALGORITHMS, RecoveryPlanner, scheme_for_disk
from repro.recovery.ualgorithm import SEARCHED


def _add_code_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", default="rdp", choices=list_families())
    p.add_argument("--disks", type=int, default=8, help="total disk count")


def _cmd_families(_args) -> int:
    for name in list_families():
        for n_disks in (8, 10, 7):  # xcode needs a prime width
            try:
                code = make_code(name, n_disks)
                break
            except ValueError:
                continue
        else:
            print(f"{name:12s} (no small instance)")
            continue
        print(f"{name:12s} {code.describe()}")
    return 0


def _cmd_scheme(args) -> int:
    code = make_code(args.family, args.disks)
    scheme = scheme_for_disk(
        code, args.failed_disk, algorithm=args.algorithm, depth=args.depth
    )
    print(code.describe())
    print(scheme.summary())
    stats = scheme.search_stats
    if stats:
        print(
            f"search: expanded={stats['expanded']} pushed={stats['pushed']} "
            f"pruned_closed={stats['pruned_closed']} "
            f"pruned_bound={stats.get('pruned_bound', 0)} "
            f"peak_frontier={stats['peak_frontier']} "
            f"wall={stats['wall_time_s'] * 1e3:.2f}ms"
        )
    print(scheme.render())
    return 0


def _cmd_verify(args) -> int:
    code = make_code(args.family, args.disks)
    failures = 0
    for alg in ALGORITHMS:
        for disk in range(code.layout.n_disks):
            try:
                scheme = scheme_for_disk(code, disk, algorithm=alg)
            except ValueError:
                continue  # e.g. no naive scheme for dense codes
            ok = verify_scheme_on_random_data(code, scheme, seed=disk)
            if not ok:
                failures += 1
                print(f"FAIL {alg} disk {disk}")
    print(
        f"{args.family}@{args.disks}: "
        + ("all recoveries byte-exact" if not failures else f"{failures} failures")
    )
    return 1 if failures else 0


def _cmd_simulate(args) -> int:
    code = make_code(args.family, args.disks)
    print(code.describe())
    for alg in ALGORITHMS:
        try:
            planner = RecoveryPlanner(code, algorithm=alg, depth=args.depth)
            schemes = planner.all_data_disk_schemes()
        except ValueError:
            print(f"  {alg:12s}: n/a")
            continue
        result = simulate_stack_recovery(code, schemes, stacks=args.stacks)
        print(f"  {alg:12s}: {result.speed_mb_s:7.1f} MB/s")
    return 0


def _figure_cmd(args, which: int) -> int:
    disk_range = range(args.min_disks, args.max_disks + 1)
    cache = SchemeCache(depth=args.depth, cache_dir=args.cache_dir)
    series_fn = figure3_series if which == 3 else figure4_series
    series = series_fn(args.family, disk_range, cache=cache)
    metric = (
        "avg parallel read accesses" if which == 3 else "avg recovery speed (MB/s)"
    )
    print(
        render_series_table(
            f"Figure {which} ({args.family}): {metric}",
            "disks",
            list(disk_range),
            series,
        )
    )
    if args.plot:
        print()
        print(ascii_plot(list(disk_range), series, y_label=metric))
    return 0


def _cmd_validate(args) -> int:
    from repro.codes import validate_code

    code = make_code(args.family, args.disks)
    report = validate_code(code)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_stats(args) -> int:
    from repro.recovery import compare_stats

    code = make_code(args.family, args.disks)
    schemes = {}
    for alg in ALGORITHMS:
        try:
            schemes[alg] = scheme_for_disk(code, args.failed_disk, algorithm=alg)
        except ValueError:
            continue
    print(code.describe())
    print(compare_stats(schemes))
    return 0


def _cmd_degraded(args) -> int:
    from repro.recovery import degraded_read_scheme

    code = make_code(args.family, args.disks)
    rows = [int(r) for r in args.rows.split(",")]
    scheme = degraded_read_scheme(
        code, args.failed_disk, rows=rows, algorithm=args.algorithm
    )
    print(code.describe())
    print(f"degraded read of rows {rows} on disk {args.failed_disk}:")
    print(scheme.summary())
    print(scheme.render())
    return 0


def _cmd_recover(args) -> int:
    import numpy as np

    from repro.codec import StripeCodec
    from repro.faults import FaultPlan, FaultyStripeStore
    from repro.recovery import ResilientExecutor
    from repro.recovery.multifailure import UnrecoverableError

    try:
        plan = FaultPlan.parse(args.inject)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    code = make_code(args.family, args.disks)
    scheme = scheme_for_disk(
        code, args.failed_disk, algorithm=args.algorithm, depth=args.depth
    )
    rng = np.random.default_rng(args.seed)
    codec = StripeCodec(code, args.element_size)
    stripes = [codec.encode(codec.random_data(rng)) for _ in range(args.stripes)]
    store = FaultyStripeStore(code.layout, stripes, plan)
    executor = ResilientExecutor(
        code,
        scheme,
        store,
        max_retries=args.max_retries,
        algorithm=args.algorithm,
        depth=args.depth,
    )
    print(code.describe())
    print(f"plan    : {scheme.summary()}")
    print(f"faults  : {plan.describe()}")
    try:
        result = executor.run()
    except UnrecoverableError as exc:
        print(f"UNRECOVERABLE: {exc}")
        return 1
    ok = result.verify_against(stripes)
    print(result.report.summary())
    print("recovered data byte-exact" if ok else "RECOVERED DATA MISMATCH")
    return 0 if ok else 1


def _rebuild_pool(args) -> int:
    """Pool-rebuild leg of ``rebuild``: one dead disk of a placed pool."""
    import numpy as np

    from repro.pipeline import PoolRebuild
    from repro.placement import PoolStore, make_placement
    from repro.recovery import SchemePlanCache

    code = make_code(args.family, args.disks)
    width = code.layout.n_disks
    plan_cache = SchemePlanCache(args.plan_cache) if args.plan_cache else None

    def store_factory(name: str) -> PoolStore:
        pm = make_placement(
            name, args.pool_disks, args.stripes, width, seed=args.seed
        )
        store = PoolStore(code, pm, element_size=args.element_size)
        store.encode_random(np.random.default_rng(args.seed))
        return store

    # always run the flat baseline too, so the spread win is visible
    names = ["flat"] + ([args.placement] if args.placement != "flat" else [])
    results = {
        name: PoolRebuild(
            store_factory(name),
            chunk_stripes=args.chunk_stripes,
            plan_cache=plan_cache,
            algorithm=args.algorithm,
            depth=args.depth,
            workers=args.workers,
        ).rebuild(args.failed_disk)
        for name in names
    }
    print(code.describe())
    print(
        f"pool    : {args.pool_disks} disks, {args.stripes} stripes of "
        f"width {width}, disk {args.failed_disk} dead"
    )
    print(f"{'placement':<12} {'built':<9} {'max_reads':>9} {'busy':>5} "
          f"{'spread':>7} {'MB/s':>8} verify")
    for name in names:
        r = results[name]
        load = r.stats["read_load"]
        print(
            f"{name:<12} {r.stats['construction']:<9} "
            f"{r.max_read_load:>9} {load['busy_disks']:>5} "
            f"{r.read_spread:>7.2f} {r.stats['rebuilt_mb_s']:>8.1f} "
            + ("byte-exact" if r.ok else f"{r.mismatches} MISMATCHES")
        )
    target = results[args.placement]
    flat = results["flat"]
    if args.placement != "flat" and flat.max_read_load:
        factor = flat.max_read_load / max(target.max_read_load, 1)
        print(f"balance : {factor:.1f}x lower max-per-disk load than flat")
    return 0 if all(r.ok for r in results.values()) else 1


def _rebuild_topology(args) -> int:
    """Topology leg of ``rebuild``: rack-aware vs topology-blind rebuild.

    Lays the pool out over a racks x machines x disks tree, rebuilds the
    same dead disk under (a) rack-aware placement with the lexicographic
    topology-aware planner and (b) topology-blind declustered placement
    with the scalar U planner, and prices both with the max-min
    fair-share flow simulator.
    """
    import numpy as np

    from repro.pipeline import PoolRebuild
    from repro.placement import PoolStore, make_placement
    from repro.topology import Topology, TopologyAwarePlanner, rebuild_makespan

    topo = Topology.parse(
        args.topology,
        disk_bw=args.disk_bw,
        nic_bw=args.nic_bw,
        rack_bw=args.rack_bw,
    )
    code = make_code(args.family, args.disks)
    width = code.layout.n_disks

    def run(placement_name: str, aware: bool):
        pm = make_placement(
            placement_name, topo.n_disks, args.stripes, width,
            seed=args.seed, topology=topo,
        )
        store = PoolStore(code, pm, element_size=args.element_size)
        store.encode_random(np.random.default_rng(args.seed))
        planner = TopologyAwarePlanner(code, topo, depth=args.depth) if aware \
            else None
        rb = PoolRebuild(
            store, chunk_stripes=args.chunk_stripes, topo_planner=planner,
            depth=args.depth, workers=args.workers,
        )
        res = rb.rebuild(args.failed_disk)
        sim = rebuild_makespan(
            topo, res.link_loads.disk_reads, element_size=args.element_size
        )
        return res, sim

    arms = [
        ("rack_aware", True, "topology-aware"),
        ("declustered", False, "topology-blind"),
    ]
    print(code.describe())
    print(topo.describe())
    print(
        f"rebuild : pool disk {args.failed_disk} dead, {args.stripes} "
        f"stripes of width {width}, {args.element_size} B elements"
    )
    print(f"{'plan':<15} {'max_disk':>8} {'max_nic':>8} {'max_uplink':>10} "
          f"{'makespan':>10} {'bottleneck':>12} verify")
    rows = {}
    for name, aware, label in arms:
        res, sim = run(name, aware)
        rows[label] = (res, sim)
        links = res.link_loads
        print(
            f"{label:<15} {links.max_per_disk:>8} {links.max_per_machine:>8} "
            f"{links.max_per_rack:>10} {sim.makespan_s * 1e3:>8.2f}ms "
            f"{sim.bottleneck:>12} "
            + ("byte-exact" if res.ok else f"{res.mismatches} MISMATCHES")
        )
    aware_res, aware_sim = rows["topology-aware"]
    blind_res, blind_sim = rows["topology-blind"]
    if aware_res.link_loads.max_per_rack:
        ratio = blind_res.link_loads.max_per_rack / \
            aware_res.link_loads.max_per_rack
        speedup = blind_sim.makespan_s / max(aware_sim.makespan_s, 1e-12)
        print(
            f"balance : {ratio:.2f}x lower max-rack-uplink load, "
            f"{speedup:.2f}x faster simulated rebuild than topology-blind"
        )
    return 0 if all(r.ok for r, _ in rows.values()) else 1


def _cmd_rebuild(args) -> int:
    import numpy as np

    from repro.codec import ArrayImageCodec
    from repro.pipeline import RebuildPipeline
    from repro.recovery import SchemePlanCache

    if args.topology:
        return _rebuild_topology(args)
    if args.placement:
        return _rebuild_pool(args)

    code = make_code(args.family, args.disks)
    codec = ArrayImageCodec(
        code, element_size=args.element_size, n_stripes=args.stripes
    )
    plan_cache = (
        SchemePlanCache(args.plan_cache) if args.plan_cache else None
    )
    pipe = RebuildPipeline(
        codec,
        workers=args.workers,
        chunk_stripes=args.chunk_stripes,
        plan_cache=plan_cache,
        algorithm=args.algorithm,
        depth=args.depth,
    )
    rng = np.random.default_rng(args.seed)
    disks = codec.encode_image(codec.random_image(rng))
    result = pipe.rebuild(disks, args.failed_disk)
    ok = np.array_equal(result.image, disks[args.failed_disk])
    stats = result.stats
    print(code.describe())
    print(
        f"rebuild : disk {args.failed_disk}, {stats['affected_stripes']} stripes x "
        f"{args.element_size} B elements ({stats['rebuilt_bytes'] / 2**20:.1f} "
        f"MB) via {stats['mode']}"
    )
    print(
        f"          {stats['chunks']} chunks of <= {stats['chunk_stripes']} "
        f"stripes, {stats['workers']} worker(s)"
    )
    print(
        f"speed   : {stats['rebuilt_mb_s']:.1f} MB/s "
        f"({stats['wall_s'] * 1e3:.1f} ms)"
    )
    print(f"reads   : {result.reads_per_disk.tolist()} per physical disk")
    if plan_cache is not None:
        pc = plan_cache.stats()
        print(
            f"plans   : {pc['hits']} cache hit(s), {pc['misses']} miss(es), "
            f"{pc['disk_entries']} on disk at {args.plan_cache}"
        )
    print("verify  : " + ("byte-exact" if ok else "MISMATCH"))
    return 0 if ok else 1


def _cmd_serve(args) -> int:
    import numpy as np

    from repro.codec import ArrayImageCodec
    from repro.faults import FaultPlan
    from repro.serving import ShardedServingEngine, build_workload_requests

    try:
        fault_plan = FaultPlan.parse(args.inject)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    code = make_code(args.family, args.disks)
    codec = ArrayImageCodec(
        code, element_size=args.element_size, n_stripes=args.stripes
    )
    rng = np.random.default_rng(args.seed)
    disks = codec.encode_image(codec.random_image(rng))

    placement = None
    if args.placement:
        from repro.placement import make_placement

        width = code.layout.n_disks
        n_pool = args.pool_disks or 4 * width
        placement = make_placement(
            args.placement, n_pool, codec.n_stripes, width, seed=args.seed
        )
    total_rows = codec.n_stripes * code.layout.k_rows
    rate = args.client_rate * args.clients
    requests = build_workload_requests(
        args.workload,
        code.layout.n_disks,
        total_rows,
        args.failed_disk,
        args.requests * args.clients,
        seed=args.seed,
        rate_per_s=rate,
    )
    engine = ShardedServingEngine(
        codec,
        disks,
        args.failed_disk,
        args.shards,
        element_read_ms=args.element_read_ms,
        algorithm=args.algorithm,
        depth=args.depth,
        store_path=args.plan_cache,
        target_p99_ms=None if args.no_qos else args.target_p99_ms,
        rebuild_chunk_stripes=args.chunk_stripes,
        priority=not args.no_qos,
        placement=placement,
        fault_plan=fault_plan,
    )
    print(code.describe())
    print(
        f"serving : disk {args.failed_disk} failed, {args.shards} shard(s), "
        f"open-loop {args.workload} trace at {rate:.0f} req/s aggregate, "
        f"qos {'off' if args.no_qos else f'target p99 {args.target_p99_ms}ms'}"
        + (
            f", shard bounds from {placement.name} placement over "
            f"{placement.n_pool} disks"
            if placement is not None
            else ""
        )
    )
    try:
        report = engine.serve_trace(requests)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    paths = {
        key: sum(int(s[key]) for s in report.per_shard)
        for key in ("direct", "degraded", "patched", "resilient")
    }
    print(
        f"shards  : {report.n_shards}/{report.requested_shards} reported, "
        f"slowest replay {report.duration_s:.2f} s"
    )
    print(
        f"reads   : {report.served} served ({paths['direct']} direct, "
        f"{paths['degraded']} degraded, {paths['patched']} patched)"
    )
    print(
        f"latency : p50 {report.p50_ms:.2f} ms, p99 {report.p99_ms:.2f} ms; "
        f"throughput {report.throughput_rps:.0f} req/s "
        f"(offered {report.offered_rate_rps:.0f})"
    )
    print(f"rebuild : completed in {report.rebuild_wall_s:.3f} s")
    if not args.no_qos:
        q = report.throttle
        final = q["rebuild_rate"]
        print(
            f"qos     : {q['rate_decreases']} slowdown(s), "
            f"{q['rate_increases']} speedup(s), "
            f"throttle wait {q['throttle_wait_s'] * 1e3:.1f} ms, final rate "
            + ("uncapped" if final == float("inf") else f"{final:.1f} chunks/s")
        )
    if fault_plan:
        f = report.fault_counts
        print(
            f"faults  : {paths['resilient']} read(s) went resilient; "
            f"{f['retries']} retries, {f['latent_errors']} latent error(s), "
            f"{f['corruptions']} corruption(s) caught, "
            f"{f['substitutions']} substitution(s), "
            f"{f['escalations']} escalation(s)"
        )
    verdict = "byte-exact" if report.ok else (
        f"{report.mismatches} MISMATCHES, "
        f"{report.rebuild_mismatches} rebuilt row(s) wrong"
    )
    print(f"verify  : {verdict}")
    return 0 if report.ok else 1


def _cmd_trace(args) -> int:
    from repro import obs
    from repro.disksim.recovery_sim import simulate_stack_recovery as sim

    if args.validate:
        try:
            counts = obs.validate_trace_file(args.validate)
        except (OSError, ValueError) as exc:
            print(f"invalid trace: {exc}", file=sys.stderr)
            return 1
        total = sum(counts.values())
        detail = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(
            f"{args.validate}: valid {obs.TRACE_SCHEMA} trace, "
            f"{total} lines ({detail})"
        )
        return 0

    code = make_code(args.family, args.disks)
    rec = obs.enable(
        label=f"{args.family}@{args.disks} disk {args.failed_disk} "
        f"({args.algorithm})"
    )
    try:
        with obs.span("trace.pipeline"):
            scheme = scheme_for_disk(
                code, args.failed_disk, algorithm=args.algorithm,
                depth=args.depth,
            )
            with obs.span("trace.verify"):
                ok = verify_scheme_on_random_data(code, scheme, seed=0)
            with obs.span("trace.simulate", stacks=args.stacks):
                sim(code, [scheme], stacks=args.stacks)
        n_lines = obs.export_jsonl(rec, args.out)
    finally:
        obs.disable()
    print(code.describe())
    print(scheme.summary())
    print("verify  : " + ("byte-exact" if ok else "MISMATCH"))
    print(f"trace written to {args.out} ({n_lines} lines)")
    return 0 if ok else 1


def _cmd_fleet(args) -> int:
    from repro.fleet import QosPolicy, run_fleet
    from repro.placement import make_placement

    code = make_code(args.family, args.disks)
    width = code.layout.n_disks
    policy = QosPolicy(
        name="cli",
        disk_bw_mb_s=args.disk_bw,
        rebuild_headroom=args.headroom,
        detect_hours=args.detect_hours,
        capacity_scale=args.capacity_scale,
    )
    mission_hours = args.years * 8760.0

    topology = None
    if args.topology:
        from repro.topology import Topology

        topology = Topology.parse(args.topology)
        if topology.n_disks != args.pool_disks:
            print(
                f"note: pool resized to the tree's {topology.n_disks} disks"
            )
            args.pool_disks = topology.n_disks

    arms = [
        ("flat", "naive"),
        ("flat", "u"),
        ("declustered", "naive"),
        ("declustered", "u"),
    ]
    if topology is not None:
        arms.append(("rack_aware", "u"))

    engines = (
        ["vector", "scalar"] if args.engine == "both" else [args.engine]
    )
    print(code.describe())
    print(
        f"fleet: {args.pool_disks} disks, {args.stripes} stripes, "
        f"mission {args.years:g}y, disk MTTF {args.mttf_hours:g}h, "
        f"{args.trials} trials, engine {args.engine}"
    )
    header = (
        f"{'placement':12s} {'scheme':6s} {'window':>8s} {'p(loss)':>9s} "
        f"{'95% CI':>17s} {'nines':>6s} {'MTTDL':>10s} {'degr%':>6s} "
        f"{'dy/s':>10s}"
    )
    print(header)
    print("-" * len(header))
    mismatches = 0
    for placement_name, algorithm in arms:
        placement = make_placement(
            placement_name,
            args.pool_disks,
            args.stripes,
            width,
            seed=args.seed,
            topology=topology,
        )
        results = [
            run_fleet(
                code,
                placement,
                algorithm=algorithm,
                policy=policy,
                element_size=args.element_size,
                mission_hours=mission_hours,
                disk_mttf_hours=args.mttf_hours,
                trials=args.trials,
                seed=args.seed,
                engine=engine,
            )
            for engine in engines
        ]
        if len(results) == 2 and (
            results[0].losses != results[1].losses
            or results[0].failures_total != results[1].failures_total
        ):
            mismatches += 1
            print(
                f"ENGINE MISMATCH on {placement_name}/{algorithm}: "
                f"vector losses={results[0].losses} "
                f"failures={results[0].failures_total}, scalar "
                f"losses={results[1].losses} "
                f"failures={results[1].failures_total}",
                file=sys.stderr,
            )
        r = results[0]
        lo, hi = r.loss_ci
        mttdl = (
            f"{r.mttdl_hours:10.3g}"
            if r.mttdl_hours != float("inf")
            else f"{'inf':>10s}"
        )
        nines = f"{r.nines():6.2f}" if r.losses else f"{'inf':>6s}"
        print(
            f"{placement_name:12s} {algorithm:6s} "
            f"{r.windows_mean_hours:7.2f}h {r.loss_probability:9.4f} "
            f"[{lo:7.4f},{hi:7.4f}] {nines} {mttdl} "
            f"{100 * r.mean_degraded_fraction:6.2f} "
            f"{r.disk_years_per_s:10.0f}"
        )
    if mismatches:
        print(f"error: {mismatches} engine mismatch(es)", file=sys.stderr)
        return 1
    if len(engines) == 2:
        print("engines agree: identical loss/failure counts on every arm")
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.report import generate_report

    cache = SchemeCache(depth=1, cache_dir=args.cache_dir)
    text = generate_report(
        disk_range=range(args.min_disks, args.max_disks + 1),
        cache=cache,
        include_reliability=not args.no_reliability,
    )
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text + "\n")
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-recovery",
        description="Load-balanced recovery schemes for any erasure code "
        "(Luo & Shu, ICPP 2013 reproduction)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="trace the subcommand with repro.obs and print a "
        "stage-breakdown table when it finishes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("families", help="list supported code families")

    p = sub.add_parser("scheme", help="show a recovery scheme")
    _add_code_args(p)
    p.add_argument("--failed-disk", type=int, default=0)
    p.add_argument("--algorithm", default="u", choices=list(ALGORITHMS))
    p.add_argument("--depth", type=int, default=2)

    p = sub.add_parser("verify", help="byte-exact recovery round trip")
    _add_code_args(p)

    p = sub.add_parser("simulate", help="simulated recovery speed per algorithm")
    _add_code_args(p)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--stacks", type=int, default=20)

    for which in (3, 4):
        p = sub.add_parser(f"figure{which}", help=f"regenerate paper Figure {which}")
        p.add_argument("--family", default="rdp", choices=list_families())
        p.add_argument("--min-disks", type=int, default=7)
        p.add_argument("--max-disks", type=int, default=16)
        p.add_argument("--depth", type=int, default=1)
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--plot", action="store_true",
                       help="also render an ASCII chart of the series")

    p = sub.add_parser("validate", help="run all structural/MDS checks on a code")
    _add_code_args(p)

    p = sub.add_parser("stats", help="reuse/overlap statistics per algorithm")
    _add_code_args(p)
    p.add_argument("--failed-disk", type=int, default=0)

    p = sub.add_parser("degraded", help="plan a degraded read of failed rows")
    _add_code_args(p)
    p.add_argument("--failed-disk", type=int, default=0)
    p.add_argument("--rows", default="0", help="comma-separated row indices")
    p.add_argument("--algorithm", default="u", choices=["khan", "u"])

    p = sub.add_parser(
        "recover", help="fault-injected recovery with the resilient executor"
    )
    _add_code_args(p)
    p.add_argument("--failed-disk", type=int, default=0)
    p.add_argument("--algorithm", default="u", choices=list(ALGORITHMS))
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--stripes", type=int, default=4)
    p.add_argument("--element-size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-retries", type=int, default=1)
    p.add_argument(
        "--inject",
        action="append",
        default=[],
        metavar="SPEC",
        help="fault spec, repeatable: lse:DISK:ROW[:STRIPE] | "
        "corrupt:DISK:ROW[:STRIPE] | slow:DISK[:FACTOR] | die:DISK[:STRIPE]",
    )

    p = sub.add_parser(
        "rebuild", help="whole-disk rebuild through the stripe pipeline"
    )
    _add_code_args(p)
    p.add_argument("--failed-disk", type=int, default=0,
                   help="failed *physical* disk")
    p.add_argument("--algorithm", default="u", choices=list(ALGORITHMS))
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--stripes", type=int, default=64)
    p.add_argument("--element-size", type=int, default=512)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=2,
                   help="kernel threads (<= 1 runs inline)")
    p.add_argument("--chunk-stripes", type=int, default=64,
                   help="stripes per pipelined chunk")
    p.add_argument("--plan-cache", default=None, metavar="PATH",
                   help="persistent JSON scheme-plan cache")
    p.add_argument("--placement", default=None,
                   choices=["flat", "declustered", "d3", "random"],
                   help="rebuild one disk of a placed *pool* instead of a "
                   "single array; --failed-disk names the pool disk")
    p.add_argument("--pool-disks", type=int, default=120,
                   help="pool size for --placement rebuilds")
    p.add_argument("--topology", default=None, metavar="RACKSxMACHINESxDISKS",
                   help="rebuild over a datacenter tree (e.g. 6x2x10): "
                   "compares rack-aware placement + topology-aware planner "
                   "against topology-blind declustering; the pool size is "
                   "the tree's disk count")
    p.add_argument("--disk-bw", type=float, default=200.0,
                   help="per-disk read bandwidth, MB/s")
    p.add_argument("--nic-bw", type=float, default=1200.0,
                   help="per-machine NIC bandwidth, MB/s")
    p.add_argument("--rack-bw", type=float, default=800.0,
                   help="rack uplink bandwidth, MB/s (default models an "
                   "oversubscribed top-of-rack link)")

    p = sub.add_parser(
        "serve", help="degraded-read serving while the disk rebuilds"
    )
    _add_code_args(p)
    p.add_argument("--failed-disk", type=int, default=0,
                   help="failed *physical* disk")
    p.add_argument("--algorithm", default="u", choices=list(SEARCHED))
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--stripes", type=int, default=64)
    p.add_argument("--element-size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workload", default="hotspot",
                   choices=["hotspot", "sequential"])
    p.add_argument("--clients", type=int, default=2,
                   help="independent request streams merged into the trace")
    p.add_argument("--requests", type=int, default=500,
                   help="requests per client")
    p.add_argument("--client-rate", type=float, default=300.0,
                   help="per-client offered request rate (req/s)")
    p.add_argument("--no-qos", action="store_true",
                   help="no rebuild throttle and FIFO disks (the baseline)")
    p.add_argument("--target-p99-ms", type=float, default=5.0)
    p.add_argument("--element-read-ms", type=float, default=0.25,
                   help="simulated per-element disk service time")
    p.add_argument("--chunk-stripes", type=int, default=16)
    p.add_argument("--shards", type=int, default=1,
                   help="serve through N shard worker processes "
                   "(open-loop trace replay)")
    p.add_argument("--placement", default=None,
                   choices=["flat", "declustered", "d3", "random"],
                   help="align shard stripe ranges to the placement groups "
                   "of a pool of --pool-disks disks")
    p.add_argument("--pool-disks", type=int, default=0,
                   help="pool size for --placement (0 = 4 groups of the "
                   "code's width)")
    p.add_argument("--plan-cache", default=None, metavar="PATH",
                   help="persistent JSON scheme-plan store (degraded "
                   "plans are sliced from its whole-disk schemes)")
    p.add_argument(
        "--inject",
        action="append",
        default=[],
        metavar="SPEC",
        help="fault spec, repeatable: lse:DISK:ROW[:STRIPE] | "
        "corrupt:DISK:ROW[:STRIPE] | slow:DISK[:FACTOR] | die:DISK[:STRIPE]",
    )

    p = sub.add_parser(
        "trace", help="write a JSONL pipeline trace (or validate one)"
    )
    _add_code_args(p)
    p.add_argument("--failed-disk", type=int, default=0)
    p.add_argument("--algorithm", default="u", choices=list(ALGORITHMS))
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--stacks", type=int, default=4)
    p.add_argument("--out", default="trace.jsonl", help="JSONL output path")
    p.add_argument(
        "--validate",
        metavar="FILE",
        default=None,
        help="validate an existing trace file instead of generating one",
    )

    p = sub.add_parser(
        "fleet", help="fleet durability Monte-Carlo (code x placement x "
        "recovery scheme)"
    )
    _add_code_args(p)
    p.add_argument("--pool-disks", type=int, default=128,
                   help="disks in the simulated pool (with width-8 codes, "
                   "128 gives the cyclic declustering a clean difference "
                   "block and the load-balanced arms a clear win)")
    p.add_argument("--stripes", type=int, default=2048,
                   help="stripes placed across the pool")
    p.add_argument("--trials", type=int, default=400,
                   help="Monte-Carlo missions per arm")
    p.add_argument("--years", type=float, default=1.0,
                   help="mission length in years")
    p.add_argument("--mttf-hours", type=float, default=2000.0,
                   help="per-disk MTTF; the low default models accelerated "
                   "aging so differences show at small trial counts")
    p.add_argument("--element-size", type=int, default=4096)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--disk-bw", type=float, default=200.0,
                   help="per-disk rebuild read bandwidth, MB/s")
    p.add_argument("--headroom", type=float, default=1.0,
                   help="fraction of bandwidth the QoS grants rebuilds")
    p.add_argument("--detect-hours", type=float, default=0.0,
                   help="failure-detection lag added to every window")
    p.add_argument("--capacity-scale", type=float, default=1e6,
                   help="real bytes per simulated element, as a multiple "
                   "of --element-size (default: each 4 KiB element stands "
                   "for ~4 GB, i.e. multi-TB disks)")
    p.add_argument("--topology", default=None, metavar="RACKSxMACHINESxDISKS",
                   help="attach a datacenter tree (e.g. 4x2x8) and add a "
                   "rack_aware arm; the pool is the tree's disk count")
    p.add_argument("--engine", default="auto",
                   choices=["auto", "vector", "scalar", "both"],
                   help="'both' cross-checks the engines and fails on "
                   "any loss/failure-count mismatch")

    p = sub.add_parser("report", help="full reproduction report (markdown)")
    p.add_argument("--min-disks", type=int, default=7)
    p.add_argument("--max-disks", type=int, default=16)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--no-reliability", action="store_true")

    return parser


_COMMANDS: Dict[str, Callable] = {
    "families": _cmd_families,
    "scheme": _cmd_scheme,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
    "figure3": lambda args: _figure_cmd(args, 3),
    "figure4": lambda args: _figure_cmd(args, 4),
    "validate": _cmd_validate,
    "stats": _cmd_stats,
    "degraded": _cmd_degraded,
    "recover": _cmd_recover,
    "rebuild": _cmd_rebuild,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
    "fleet": _cmd_fleet,
    "report": _cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = _COMMANDS.get(args.command)
    if handler is None:
        raise AssertionError(f"unhandled command {args.command}")
    profile_rec = None
    if args.profile:
        from repro import obs

        profile_rec = obs.enable(label=args.command)
    try:
        ret = handler(args)
    except (ValueError, IndexError) as exc:
        # unknown family, invalid geometry, out-of-range disk/row, ...:
        # the contract is a one-line message on stderr and exit status 2,
        # never a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if profile_rec is not None:
            from repro import obs

            # the trace subcommand installs its own recorder; only print
            # the profile when ours is still the active one
            if obs.get_recorder() is profile_rec:
                obs.disable()
                print()
                print(obs.render_breakdown(profile_rec))
    return ret


if __name__ == "__main__":
    sys.exit(main())
