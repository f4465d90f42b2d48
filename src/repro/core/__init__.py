"""The paper's primary contributions: COGCAST and COGCOMP.

- :class:`~repro.core.cogcast.CogCast` /
  :func:`~repro.core.runners.run_local_broadcast` — epidemic local
  broadcast (Section 4, Theorem 4).
- :class:`~repro.core.cogcomp.CogComp` /
  :func:`~repro.core.runners.run_data_aggregation` — four-phase data
  aggregation (Section 5, Theorem 10).
- :class:`~repro.core.tree.DistributionTree` — the implicit spanning
  tree (Lemma 5) and its verification;
  :func:`~repro.core.tree.first_informs` reads who informed whom off
  one channel event, for every analysis that asks.
- :mod:`repro.core.clusters` — (r, c)-cluster reconstruction
  (Definitions 6 and 8).
- :mod:`repro.core.aggregation` — associative aggregators (the small-
  message observation in Section 5's discussion).
- :mod:`repro.core.runners` — the engine-driving measurement harnesses.
  Protocol modules themselves never import the engine: a node's only
  handle on the world is its :class:`~repro.sim.protocol.NodeView`
  (enforced by ``repro-lint`` rule R4).
"""

from repro._lazy import lazy_exports

#: Every exported name and the module that defines it, imported on first
#: use: importing a protocol module loads no runner and no engine.
_EXPORTS = {
    "Aggregator": "repro.core.aggregation",
    "CollectAggregator": "repro.core.aggregation",
    "CountAggregator": "repro.core.aggregation",
    "MajorityAggregator": "repro.core.aggregation",
    "MaxAggregator": "repro.core.aggregation",
    "MeanAggregator": "repro.core.aggregation",
    "MinAggregator": "repro.core.aggregation",
    "SumAggregator": "repro.core.aggregation",
    "ClusterInfo": "repro.core.clusters",
    "ClusterKey": "repro.core.clusters",
    "cluster_of": "repro.core.clusters",
    "clusters_from_trace": "repro.core.clusters",
    "largest_cluster_per_slot": "repro.core.clusters",
    "BroadcastResult": "repro.core.cogcast",
    "CogCast": "repro.core.cogcast",
    "LogEntry": "repro.core.cogcast",
    "AggregationResult": "repro.core.cogcomp",
    "CogComp": "repro.core.cogcomp",
    "GossipCast": "repro.core.gossip",
    "GossipResult": "repro.core.gossip",
    "run_data_aggregation": "repro.core.runners",
    "run_gossip": "repro.core.runners",
    "run_local_broadcast": "repro.core.runners",
    "AckPayload": "repro.core.messages",
    "ClusterSizePayload": "repro.core.messages",
    "CountPayload": "repro.core.messages",
    "InitPayload": "repro.core.messages",
    "MediatorAnnouncePayload": "repro.core.messages",
    "ValueReportPayload": "repro.core.messages",
    "DistributionTree": "repro.core.tree",
    "InformEdge": "repro.core.tree",
    "TreeError": "repro.core.tree",
    "first_informs": "repro.core.tree",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
