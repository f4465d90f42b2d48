"""Tests for the invariant watchdogs and their anomaly telemetry.

Acceptance criteria locked here: clean seeded runs raise **zero**
anomalies from every watchdog, while an injected duplicate-mediator
fault raises **exactly one** ``mediator-unique`` anomaly.  The three
rules decided from final state each catch a planted fault on the fast
kernel, and keep the fast and columnar kernels on clean runs; the
final-state ``slot-budget`` rule equals the same rule read off a full
event trace.  Anomalies round-trip through the JSONL telemetry sink as
validated ``kind="anomaly"`` records.
"""

from __future__ import annotations

import io
import json
from types import SimpleNamespace

import pytest

from repro.analysis.theory import cogcast_slot_bound
from repro.assignment import shared_core
from repro.core.aggregation import SumAggregator
from repro.core.cogcast import CogCast
from repro.core.cogcomp import CogComp
from repro.core.messages import InitPayload, MediatorAnnouncePayload
from repro.core.runners import (
    run_data_aggregation,
    run_local_broadcast,
    run_protocol,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import TelemetrySink, read_telemetry, validate_record
from repro.obs.watchdog import (
    Anomaly,
    ClusterSizeAgreementWatchdog,
    InformedSetWatchdog,
    MediatorUniquenessWatchdog,
    SlotBudgetWatchdog,
    flush_anomalies,
)
from repro.sim.actions import Broadcast, Envelope, SlotOutcome
from repro.sim.adversary import RandomJammer, TargetedJammer
from repro.sim.backends import AllInformed, numpy_available
from repro.sim.channels import ChannelAssignment, Network
from repro.sim.engine import Engine, make_views
from repro.sim.metrics import informed_curve
from repro.sim.rng import derive_rng
from repro.sim.trace import ChannelEvent, EventTrace


def _event(slot, channel, payload, sender):
    """A channel event that *sender* won alone."""
    return ChannelEvent(
        slot=slot,
        channel=channel,
        broadcasters=(sender,),
        listeners=(),
        winner=Envelope(sender=sender, payload=payload),
        jammed_nodes=frozenset(),
    )


def _start(watchdog, *, n=4, c=2, k=1):
    watchdog.start(num_nodes=n, num_channels=c, overlap=k)


def _node(informed_slot=None, parent=None, *, label=0):
    """A node's final state as the run-end watchdogs read it."""
    return SimpleNamespace(
        is_source=False,
        informed_slot=informed_slot,
        parent=parent,
        informed_label=label,
    )


def _source():
    return SimpleNamespace(
        is_source=True, informed_slot=-1, parent=None, informed_label=None
    )


def _network(n=4):
    """*n* nodes that all hold channels 0 and 1."""
    return Network.static(ChannelAssignment(((0, 1),) * n, overlap=2))


class TestSlotBudgetWatchdog:
    def test_alarms_once_past_explicit_budget(self):
        dog = SlotBudgetWatchdog(budget=5)
        _start(dog)
        # Node 2 was informed only after the budget slot: it does not count.
        protocols = [_source(), _node(0, 0), _node(6, 1), _node()]
        dog.finish(8, protocols, _network())  # slots 0..7 ran
        assert len(dog.anomalies) == 1
        anomaly = dog.anomalies[0]
        assert anomaly.rule == "slot-budget"
        assert anomaly.slot == 5
        assert anomaly.data["informed"] == 2
        assert anomaly.data["nodes"] == 4

    def test_silent_when_the_run_ends_before_the_budget_slot(self):
        dog = SlotBudgetWatchdog(budget=5)
        _start(dog)
        dog.finish(5, [_source(), _node(0, 0), _node(), _node()], _network())
        assert dog.anomalies == []

    def test_silent_when_everyone_informed_in_time(self):
        dog = SlotBudgetWatchdog(budget=5)
        _start(dog)
        protocols = [_source(), _node(0, 0), _node(0, 0), _node(4, 1)]
        dog.finish(10, protocols, _network())
        assert dog.anomalies == []

    def test_default_budget_is_theorem_four(self):
        dog = SlotBudgetWatchdog(constant=8.0)
        _start(dog, n=12, c=6, k=2)
        assert dog.budget == cogcast_slot_bound(12, 6, 2, constant=8.0)

    def test_jammed_listeners_stay_uninformed(self):
        # Four nodes on one channel: node 1 hears the source in slot 0,
        # nodes 2 and 3 are jammed on it for the whole run.
        network = Network.static(ChannelAssignment(((0,),) * 4, overlap=1))
        dog = SlotBudgetWatchdog(budget=1)
        run_local_broadcast(
            network,
            seed=0,
            max_slots=4,
            jammer=TargetedJammer({2: {0}, 3: {0}}),
            watchdogs=[dog],
        )
        assert len(dog.anomalies) == 1
        assert dog.anomalies[0].data["informed"] == 2


class TestMediatorUniquenessWatchdog:
    def test_alarms_once_per_channel_on_second_announcer(self):
        dog = MediatorUniquenessWatchdog()
        _start(dog)
        announce = MediatorAnnouncePayload(cluster_slot=3)
        dog.record(_event(10, 0, announce, 4))
        dog.record(_event(13, 0, announce, 4))  # same sender: fine
        assert dog.anomalies == []
        dog.record(_event(16, 0, announce, 1))  # impostor
        dog.record(_event(19, 0, announce, 1))  # deduped
        assert len(dog.anomalies) == 1
        anomaly = dog.anomalies[0]
        assert anomaly.rule == "mediator-unique"
        assert anomaly.data == {"channel": 0, "announcers": [1, 4]}

    def test_distinct_channels_are_independent(self):
        dog = MediatorUniquenessWatchdog()
        _start(dog)
        announce = MediatorAnnouncePayload(cluster_slot=3)
        dog.record(_event(10, 0, announce, 4))
        dog.record(_event(10, 1, announce, 5))
        assert dog.anomalies == []


class TestWatchdogReset:
    def test_run_start_clears_state_and_dedup_keys(self):
        dog = MediatorUniquenessWatchdog()
        _start(dog)
        announce = MediatorAnnouncePayload(cluster_slot=3)
        dog.record(_event(10, 0, announce, 4))
        dog.record(_event(16, 0, announce, 1))
        assert len(dog.anomalies) == 1
        _start(dog)  # new run: prior announcers must not linger
        assert dog.anomalies == []
        dog.record(_event(10, 0, announce, 2))
        assert dog.anomalies == []
        dog.record(_event(16, 0, announce, 3))
        assert len(dog.anomalies) == 1  # key 0 alarms again post-reset


    def test_source_jammed_throughout_still_alarms(self):
        # No init ever wins, yet the source itself counts as informed.
        network = Network.static(shared_core(8, 4, 2, derive_rng(0, "j")))
        source_channels = network.assignment_at(0).channels[0]
        dog = SlotBudgetWatchdog(budget=3)
        run_local_broadcast(
            network,
            seed=0,
            max_slots=10,
            jammer=TargetedJammer({0: frozenset(source_channels)}),
            watchdogs=[dog],
        )
        assert [(a.slot, a.data["informed"]) for a in dog.anomalies] == [(3, 1)]


class TestInformedSetWatchdog:
    def test_uninformed_broadcaster_alarms_once(self):
        dog = InformedSetWatchdog()
        _start(dog, n=5)
        # Node 3 was never informed, yet informed nodes 2 and 4 (deduped).
        protocols = [_source(), _node(0, 0), _node(1, 3), _node(), _node(2, 3)]
        dog.finish(3, protocols, _network(5))
        assert len(dog.anomalies) == 1
        anomaly = dog.anomalies[0]
        assert anomaly.rule == "informed-set"
        assert anomaly.slot == 1
        assert anomaly.data == {"node": 3, "channel": 0, "child": 2}

    def test_parent_informed_in_the_same_slot_alarms(self):
        dog = InformedSetWatchdog()
        _start(dog)
        protocols = [_source(), _node(1, 0), _node(1, 1), _node(2, 0)]
        dog.finish(3, protocols, _network())
        assert [anomaly.data["node"] for anomaly in dog.anomalies] == [1]

    def test_source_need_not_be_node_zero(self):
        network = Network.static(shared_core(12, 6, 2, derive_rng(42, "smoke")))
        dog = InformedSetWatchdog()
        run_local_broadcast(
            network, source=5, seed=3, max_slots=600, watchdogs=[dog],
            require_completion=True,
        )
        assert dog.anomalies == []


class TestAnomalyTelemetry:
    def test_flush_emits_validated_records(self, tmp_path):
        dog = MediatorUniquenessWatchdog()
        _start(dog)
        announce = MediatorAnnouncePayload(cluster_slot=3)
        dog.record(_event(10, 0, announce, 4))
        dog.record(_event(16, 0, announce, 1))

        path = tmp_path / "telemetry.jsonl"
        with TelemetrySink(path) as sink:
            count = flush_anomalies(sink, [dog], seed=7, protocol="cogcomp")
        assert count == 1
        records = read_telemetry(path)
        assert len(records) == 1
        record = records[0]
        assert validate_record(record) == []
        assert record["kind"] == "anomaly"
        assert record["rule"] == "mediator-unique"
        assert record["protocol"] == "cogcomp"
        assert record["seed"] == 7
        assert record["detail"]["announcers"] == [1, 4]

    def test_anomaly_is_json_ready(self):
        anomaly = Anomaly(rule="r", slot=1, message="m", data={"a": 1})
        assert json.dumps(anomaly.data) == '{"a": 1}'


ALL_WATCHDOGS = (
    SlotBudgetWatchdog,
    MediatorUniquenessWatchdog,
    ClusterSizeAgreementWatchdog,
    InformedSetWatchdog,
)


class TestCleanRunsRaiseNothing:
    """The paper's invariants hold on honest runs: zero anomalies."""

    def _network(self):
        return Network.static(shared_core(12, 6, 2, derive_rng(42, "smoke")))

    def test_cogcast_clean(self):
        dogs = [cls() for cls in ALL_WATCHDOGS]
        run_local_broadcast(
            self._network(), seed=7, max_slots=600, watchdogs=dogs,
            require_completion=True,
        )
        for dog in dogs:
            assert dog.anomalies == [], dog.rule

    def test_cogcomp_clean_across_seeds(self):
        network = self._network()
        for seed in range(3):
            dogs = [cls() for cls in ALL_WATCHDOGS]
            run_data_aggregation(
                network,
                [float(node + 1) for node in range(12)],
                seed=seed,
                watchdogs=dogs,
            )
            for dog in dogs:
                assert dog.anomalies == [], (seed, dog.rule)


class ForgedAnnouncer:
    """Byzantine wrapper: a non-mediator that forges MediatorAnnounce.

    Wraps an honest :class:`CogcompProtocol` and, on every announce slot
    of phase four, replaces the node's action with a forged
    ``MediatorAnnounce`` on its own cluster channel — the exact fault
    the mediator-uniqueness watchdog exists to catch.
    """

    def __init__(self, inner):
        self.inner = inner
        self._real_action = None

    @property
    def done(self):
        return self.inner.done

    @property
    def failed(self):
        return self.inner.failed

    def begin_slot(self, slot):
        action = self.inner.begin_slot(slot)
        self._real_action = None
        if (
            slot >= self.inner.phase4_start
            and (slot - self.inner.phase4_start) % 3 == 0
            and not self.inner.failed
            and self.inner.informed_label is not None
            and not isinstance(action, Broadcast)
        ):
            self._real_action = action
            return Broadcast(
                self.inner.informed_label,
                MediatorAnnouncePayload(cluster_slot=self.inner.informed_slot),
            )
        return action

    def end_slot(self, slot, outcome):
        # Feed the honest protocol the outcome of the action it chose,
        # so only the *channel* sees the forgery.
        if self._real_action is not None:
            outcome = SlotOutcome(slot=slot, action=self._real_action)
        self.inner.end_slot(slot, outcome)


class TestDuplicateMediatorFault:
    N, C, K, SEED = 12, 6, 2, 7

    def _run(self, forge):
        network = Network.static(
            shared_core(self.N, self.C, self.K, derive_rng(42, "fault"))
        )
        l = cogcast_slot_bound(self.N, self.C, self.K)
        views = make_views(network, self.SEED)
        aggregator = SumAggregator()
        protocols = []
        for node, view in enumerate(views):
            protocol = CogComp(
                view,
                phase1_slots=l,
                value=float(node + 1),
                aggregator=aggregator,
                is_source=node == 0,
            )
            protocols.append(protocol)
        if forge:
            # Forge from a deterministic honest non-mediator: the run
            # below (clean, same seed) elects mediators {3, 4}; node 1
            # is informed, non-mediator, and non-source.
            protocols[1] = ForgedAnnouncer(protocols[1])
        dog = MediatorUniquenessWatchdog()
        engine = Engine(
            network=network,
            protocols=protocols,
            seed=self.SEED,
            trace=dog,
        )
        budget = 2 * l + self.N + 3 * (6 * self.N + 64)
        engine.run(budget, stop_when=lambda _: protocols[0].done)
        return dog

    def test_clean_run_raises_nothing(self):
        assert self._run(forge=False).anomalies == []

    def test_forged_announce_raises_exactly_one_anomaly(self):
        dog = self._run(forge=True)
        assert len(dog.anomalies) == 1
        anomaly = dog.anomalies[0]
        assert anomaly.rule == "mediator-unique"
        assert anomaly.data["channel"] == 0
        assert anomaly.data["announcers"] == [1, 4]


def _run_records(handle):
    return [json.loads(line) for line in handle.getvalue().splitlines()]


class InitFabricator(CogCast):
    """Broadcasts init every slot, informed or not."""

    def begin_slot(self, slot):
        action = super().begin_slot(slot)
        return Broadcast(action.label, InitPayload(origin=self.view.node_id))


class MislabelledCogCast(CogCast):
    """Claims it was informed on its last label.

    On an unshuffled ``shared_core`` network the last label is a private
    channel, which no other node holds.
    """

    def end_slot(self, slot, outcome):
        super().end_slot(slot, outcome)
        if self.informed_slot == slot:
            self.informed_label = self.view.num_channels - 1


class MiscountingCogComp(CogComp):
    """Counts one member too many in the phase-two census."""

    def _finish_phase2(self):
        super()._finish_phase2()
        if self.cluster_size is not None:
            self.cluster_size += 1


class TestPlantedFaultsOnTheFastKernel:
    """Each run-end rule catches its planted fault on the fast kernel."""

    N, C, K, SEED = 12, 6, 2, 7

    def _network(self):
        return Network.static(
            shared_core(self.N, self.C, self.K, derive_rng(42, "planted"))
        )

    def _cogcast(self, faulty, cls, dog):
        """A COGCAST run in which node *faulty* runs *cls*."""
        def factory(view):
            node_cls = cls if view.node_id == faulty else CogCast
            return node_cls(view, is_source=view.node_id == 0)

        handle = io.StringIO()
        protocols, _ = run_protocol(
            self._network(),
            factory,
            protocol="cogcast",
            seed=self.SEED,
            max_slots=60,
            stop=AllInformed,
            watchdogs=[dog],
            telemetry=TelemetrySink(handle),
        )
        record, *anomalies = _run_records(handle)
        assert record["fast_path"] is True
        assert len(anomalies) == len(dog.anomalies)
        return protocols

    def test_init_fabricator_breaks_informed_before(self):
        dog = InformedSetWatchdog()
        protocols = self._cogcast(5, InitFabricator, dog)
        assert len(dog.anomalies) == 1
        anomaly = dog.anomalies[0]
        assert anomaly.data["node"] == 5
        # A lost contention may inform the fabricator later, never before.
        assert protocols[5].informed_slot is None or (
            protocols[5].informed_slot >= anomaly.slot
        )
        assert protocols[anomaly.data["child"]].parent == 5
        assert anomaly.message.startswith(
            f"node 5 informed node {anomaly.data['child']} at slot {anomaly.slot}"
        )
        assert anomaly.message.endswith("without having been informed")

    def test_tampered_label_breaks_the_shared_channel(self):
        dog = InformedSetWatchdog()
        protocols = self._cogcast(3, MislabelledCogCast, dog)
        assert len(dog.anomalies) == 1
        anomaly = dog.anomalies[0]
        slot = protocols[3].informed_slot
        assert anomaly.slot == slot
        assert anomaly.data == {
            "node": protocols[3].parent,
            "channel": self._network().physical(slot, 3, self.C - 1),
            "child": 3,
        }
        assert anomaly.message.endswith("which it does not hold")

    def test_census_miscount_breaks_cluster_size(self):
        network = self._network()
        l = cogcast_slot_bound(self.N, self.C, self.K)

        def factory(view):
            node_cls = MiscountingCogComp if view.node_id == 5 else CogComp
            return node_cls(
                view,
                phase1_slots=l,
                value=float(view.node_id),
                aggregator=SumAggregator(),
                is_source=view.node_id == 0,
            )

        dog = ClusterSizeAgreementWatchdog()
        handle = io.StringIO()
        protocols, _ = run_protocol(
            network,
            factory,
            protocol="cogcomp",
            seed=self.SEED,
            max_slots=2 * l + self.N + 3 * (6 * self.N + 64),
            stop=lambda protocols: lambda _: protocols[0].done,
            watchdogs=[dog],
            telemetry=TelemetrySink(handle),
        )
        record, anomaly_record = _run_records(handle)
        assert record["fast_path"] is True
        assert anomaly_record["rule"] == "cluster-size"
        assert len(dog.anomalies) == 1
        anomaly = dog.anomalies[0]
        cluster_slot = protocols[5].informed_slot
        assert anomaly.slot == cluster_slot
        assert anomaly.data["cluster_slot"] == cluster_slot
        assert anomaly.data["reported"] == anomaly.data["census"] + 1
        assert anomaly.data["channel"] == network.physical(
            cluster_slot, 5, protocols[5].informed_label
        )

    def test_tight_budget_breaks_slot_budget(self):
        dog = SlotBudgetWatchdog(budget=1)
        handle = io.StringIO()
        run_local_broadcast(
            self._network(),
            seed=self.SEED,
            max_slots=60,
            watchdogs=[dog],
            telemetry=TelemetrySink(handle),
        )
        record, anomaly_record = _run_records(handle)
        assert record["fast_path"] is True
        assert anomaly_record["rule"] == "slot-budget"
        assert [anomaly.slot for anomaly in dog.anomalies] == [1]


RUN_END_WATCHDOGS = (
    SlotBudgetWatchdog,
    InformedSetWatchdog,
    ClusterSizeAgreementWatchdog,
)


class TestRunEndChecksKeepTheKernel:
    """Only ``mediator-unique`` reads events; the other rules cost no kernel."""

    def _record(self, backend, dogs):
        handle = io.StringIO()
        run_local_broadcast(
            Network.static(shared_core(24, 6, 2, derive_rng(42, "kernel"))),
            seed=3,
            max_slots=600,
            require_completion=True,
            watchdogs=dogs,
            metrics=MetricsRegistry(),
            telemetry=TelemetrySink(handle),
            backend=backend,
        )
        (record,) = _run_records(handle)
        for dog in dogs:
            assert dog.anomalies == [], dog.rule
        return record

    def test_exact_keeps_the_fast_kernel(self):
        dogs = [cls() for cls in RUN_END_WATCHDOGS]
        assert self._record("exact", dogs)["fast_path"] is True
        dogs.append(MediatorUniquenessWatchdog())
        assert self._record("exact", dogs)["fast_path"] is False

    @pytest.mark.parametrize("backend", ["vector", "vector-replay"])
    def test_vector_keeps_the_columnar_kernel(self, backend):
        if not numpy_available():
            pytest.skip("numpy not installed")
        dogs = [cls() for cls in RUN_END_WATCHDOGS]
        assert "vector_fallback_reason" not in self._record(backend, dogs)
        dogs.append(MediatorUniquenessWatchdog())
        record = self._record(backend, dogs)
        assert record["vector_fallback_reason"] == "event trace attached"


class TestSlotBudgetReference:
    """The final-state rule equals the rule read off a full event trace."""

    N, C, K = 16, 8, 2

    @pytest.mark.parametrize("budget", [2, 6, 12])
    @pytest.mark.parametrize("jammed", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_informed_curve_of_a_trace(self, seed, jammed, budget):
        rng = derive_rng(seed, "reference")
        network = Network.static(
            shared_core(self.N, self.C, self.K, rng).shuffled_labels(rng)
        )
        jammer = None
        if jammed:
            universe = sorted(network.assignment_at(0).universe)
            jammer = RandomJammer(universe, budget=2, rng=derive_rng(seed, "jam"))
        dog, trace = SlotBudgetWatchdog(budget=budget), EventTrace()
        result = run_local_broadcast(
            network, seed=seed, max_slots=40, trace=trace, jammer=jammer,
            watchdogs=[dog],
        )
        curve = informed_curve(trace, root=0)
        informed = max(
            (count for slot, count in curve if slot < budget), default=1
        )
        expected = []
        if result.slots > budget and informed < self.N:
            expected = [(budget, informed, self.N, budget)]
        assert [
            (a.slot, a.data["informed"], a.data["nodes"], a.data["budget"])
            for a in dog.anomalies
        ] == expected
