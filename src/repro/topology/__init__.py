"""``repro.topology`` — datacenter topology-aware recovery.

The paper balances rebuild reads across the surviving disks of one
array; :mod:`repro.placement` spread them across a disk pool; this
package lifts the cost model to the *network*: a racks -> machines ->
disks tree with per-link bandwidth (:class:`Topology`), read billing up
that tree (:class:`repro.obs.LinkLoadMap`), a lexicographic
max-per-{uplink, NIC, disk} search objective (:class:`TopologyCost`)
running on the unchanged UCS engine, a per-signature memoising planner
(:class:`TopologyAwarePlanner`), and an event-driven max-min fair-share
transfer simulator (:func:`rebuild_makespan`) that prices rebuild
makespan under link contention.  See docs/topology.md.
"""

from repro.topology.cost import TopologyCost, topology_cost
from repro.topology.planner import (
    TopologyAwarePlanner,
    canonical_signature,
    link_loads,
)
from repro.topology.simulate import (
    FlowSimResult,
    rebuild_flows,
    rebuild_makespan,
    simulate_flows,
)
from repro.topology.tree import Topology

__all__ = [
    "FlowSimResult",
    "Topology",
    "TopologyAwarePlanner",
    "TopologyCost",
    "canonical_signature",
    "link_loads",
    "rebuild_flows",
    "rebuild_makespan",
    "simulate_flows",
    "topology_cost",
]
