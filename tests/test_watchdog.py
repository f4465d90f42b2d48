"""Tests for the invariant watchdogs and their anomaly telemetry.

Acceptance criteria locked here: clean seeded runs raise **zero**
anomalies from every watchdog, while an injected duplicate-mediator
fault raises **exactly one** ``mediator-unique`` anomaly.  Anomalies
round-trip through the JSONL telemetry sink as validated
``kind="anomaly"`` records.
"""

from __future__ import annotations

import json

from repro.analysis.theory import cogcast_slot_bound
from repro.assignment import shared_core
from repro.core.aggregation import SumAggregator
from repro.core.cogcomp import CogComp
from repro.core.messages import InitPayload, MediatorAnnouncePayload
from repro.core.runners import run_data_aggregation, run_local_broadcast
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
from repro.sim.channels import Network
from repro.sim.engine import Engine, make_views
from repro.sim.rng import derive_rng
from repro.sim.trace import ChannelEvent


def _event(slot, channel, payload, sender, *, broadcasters=None, listeners=(),
           jammed=frozenset()):
    return ChannelEvent(
        slot=slot,
        channel=channel,
        broadcasters=broadcasters if broadcasters is not None else (sender,),
        listeners=tuple(listeners),
        winner=Envelope(sender=sender, payload=payload),
        jammed_nodes=frozenset(jammed),
    )


def _start(watchdog, *, n=4, c=2, k=1):
    watchdog.start(num_nodes=n, num_channels=c, overlap=k)


class TestSlotBudgetWatchdog:
    def test_alarms_once_past_explicit_budget(self):
        dog = SlotBudgetWatchdog(budget=5)
        _start(dog)
        dog.record(
            _event(0, 0, InitPayload(origin=0), 0, listeners=(1,))
        )
        dog.finish(8)  # slots 0..7 began
        assert len(dog.anomalies) == 1
        anomaly = dog.anomalies[0]
        assert anomaly.rule == "slot-budget"
        assert anomaly.slot == 5
        assert anomaly.data["informed"] == 2
        assert anomaly.data["nodes"] == 4

    def test_slot_begins_are_read_off_later_events(self):
        # No slot-begin hook exists: the first event of slot 7 checks
        # the begins of slots 1..7, and the alarm names the first slot
        # at or past the budget, as a per-slot check would.
        dog = SlotBudgetWatchdog(budget=5)
        _start(dog)
        init = InitPayload(origin=0)
        dog.record(_event(0, 0, init, 0, listeners=(1,)))
        dog.record(_event(7, 0, init, 1, listeners=(2,)))
        assert [anomaly.slot for anomaly in dog.anomalies] == [5]
        assert dog.anomalies[0].data["informed"] == 2
        dog.finish(9)
        assert len(dog.anomalies) == 1

    def test_silent_when_everyone_informed_in_time(self):
        dog = SlotBudgetWatchdog(budget=5)
        _start(dog)
        dog.record(
            _event(0, 0, InitPayload(origin=0), 0, listeners=(1, 2, 3))
        )
        dog.finish(10)
        assert dog.anomalies == []

    def test_default_budget_is_theorem_four(self):
        dog = SlotBudgetWatchdog(constant=8.0)
        _start(dog, n=12, c=6, k=2)
        assert dog.budget == cogcast_slot_bound(12, 6, 2, constant=8.0)

    def test_jammed_listeners_stay_uninformed(self):
        dog = SlotBudgetWatchdog(budget=1)
        _start(dog)
        dog.record(
            _event(0, 0, InitPayload(origin=0), 0, listeners=(1, 2, 3),
                   jammed={2, 3})
        )
        dog.finish(4)  # slots up to 3 began
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


class TestInformedSetWatchdog:
    def test_uninformed_broadcaster_alarms_once(self):
        dog = InformedSetWatchdog(source=0)
        _start(dog)
        init = InitPayload(origin=0)
        dog.record(_event(0, 0, init, 0, listeners=(1,)))
        assert dog.anomalies == []
        # Node 3 was never informed, yet contends (twice — deduped).
        dog.record(
            _event(1, 0, init, 1, broadcasters=(1, 3), listeners=(2,))
        )
        dog.record(
            _event(2, 0, init, 3, broadcasters=(3,), listeners=())
        )
        assert len(dog.anomalies) == 1
        assert dog.anomalies[0].data["node"] == 3

    def test_source_inferred_from_first_winner(self):
        dog = InformedSetWatchdog()
        _start(dog)
        dog.record(
            _event(0, 0, InitPayload(origin=2), 2, listeners=(0,))
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
