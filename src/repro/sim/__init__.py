"""Slot-synchronous cognitive radio network simulator.

This package implements the paper's model (Section 2): synchronous
slots, per-node channel sets with local labels, guaranteed pairwise
overlap, and the single-winner collision abstraction.  It also hosts the
extensions the paper discusses: dynamic per-slot assignments and
n-uniform jamming adversaries.
"""

from repro._lazy import lazy_exports

#: Every exported name and the module that defines it, imported on first
#: use: ``from repro.sim import Network`` loads ``repro.sim.channels`` only.
_EXPORTS = {
    "Action": "repro.sim.actions",
    "Broadcast": "repro.sim.actions",
    "Envelope": "repro.sim.actions",
    "Idle": "repro.sim.actions",
    "Listen": "repro.sim.actions",
    "SlotOutcome": "repro.sim.actions",
    "Jammer": "repro.sim.adversary",
    "NullJammer": "repro.sim.adversary",
    "RandomJammer": "repro.sim.adversary",
    "SweepJammer": "repro.sim.adversary",
    "TargetedJammer": "repro.sim.adversary",
    "AssignmentSchedule": "repro.sim.channels",
    "ChannelAssignment": "repro.sim.channels",
    "DynamicSchedule": "repro.sim.channels",
    "Network": "repro.sim.channels",
    "StaticSchedule": "repro.sim.channels",
    "AllDeliveredCollision": "repro.sim.collision",
    "CollisionModel": "repro.sim.collision",
    "DestructiveCollision": "repro.sim.collision",
    "Resolution": "repro.sim.collision",
    "SingleWinnerCollision": "repro.sim.collision",
    "Engine": "repro.sim.engine",
    "RunResult": "repro.sim.engine",
    "RunTotals": "repro.sim.engine",
    "build_engine": "repro.sim.engine",
    "make_views": "repro.sim.engine",
    "CrashFault": "repro.sim.faults",
    "Fault": "repro.sim.faults",
    "FaultyProtocol": "repro.sim.faults",
    "OutageFault": "repro.sim.faults",
    "with_faults": "repro.sim.faults",
    "TraceMetrics": "repro.sim.metrics",
    "channel_utilization": "repro.sim.metrics",
    "compute_metrics": "repro.sim.metrics",
    "informed_curve": "repro.sim.metrics",
    "load_trace": "repro.sim.persistence",
    "save_trace": "repro.sim.persistence",
    "IdleProtocol": "repro.sim.protocol",
    "NodeView": "repro.sim.protocol",
    "Protocol": "repro.sim.protocol",
    "derive_rng": "repro.sim.rng",
    "derive_seed": "repro.sim.rng",
    "spawn_rngs": "repro.sim.rng",
    "ChannelEvent": "repro.sim.trace",
    "EventTrace": "repro.sim.trace",
    "BoundedProtocol": "repro.sim.wrappers",
    "DelayedStartProtocol": "repro.sim.wrappers",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
