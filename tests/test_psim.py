"""The sharded conservative-parallel kernel (repro.common.psim).

The contract under test, in order of importance:

1. **Byte-identity** — every machine result (metrics, counters,
   accounting) is byte-for-byte the serial calendar kernel's, across
   shard counts and with fault plans active.
2. **Channel contract** — cross-shard posts need a declared channel and
   at least its lookahead, and zero-lookahead links are rejected.
3. **Selection and validation** — ``shards`` resolves and validates
   through ``resolve_kernel``/``resolve_shards`` exactly like the
   ``kernel=`` switch, env var included.
"""

import json

import pytest

from repro.common.errors import SimulationError
from repro.common.psim import ShardedSimulator
from repro.common.simulator import (
    CalendarSimulator,
    Simulator,
    resolve_kernel,
    resolve_shards,
)
from repro.common.topology import MachineTopology, TopologyLink, TopologyUnit
from repro.machines import registry


def result_bytes(name, config, workload=None):
    result = registry.run_spec({
        "machine": name,
        "config": config,
        "workload": workload or {},
    })
    return json.dumps(result.as_dict(), sort_keys=True)


FAULT_PLAN = {"seed": 11, "mem_slow_rate": 0.4, "mem_slow_cycles": 32.0,
              "net_delay_rate": 0.3, "net_delay_cycles": 8.0}


class TestByteIdentity:
    """Serial vs parallel SimResults, byte for byte."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_ttda_matches_serial(self, shards):
        serial = result_bytes("ttda", {"n_pes": 8})
        parallel = result_bytes("ttda", {"n_pes": 8, "shards": shards})
        # The config echoes differ (shards is echoed when set) — compare
        # everything else.
        serial_d = json.loads(serial)
        parallel_d = json.loads(parallel)
        parallel_d["config"].pop("shards")
        assert serial_d == parallel_d

    def test_ttda_env_route_is_fully_identical(self, monkeypatch):
        serial = result_bytes("ttda", {"n_pes": 8})
        monkeypatch.setenv("REPRO_SIM_KERNEL", "parallel")
        monkeypatch.setenv("REPRO_SIM_SHARDS", "4")
        parallel = result_bytes("ttda", {"n_pes": 8})
        assert serial == parallel

    def test_ttda_with_fault_plan(self, monkeypatch):
        config = {"n_pes": 4, "faults": FAULT_PLAN}
        serial = result_bytes("ttda", config)
        monkeypatch.setenv("REPRO_SIM_KERNEL", "parallel")
        monkeypatch.setenv("REPRO_SIM_SHARDS", "4")
        parallel = result_bytes("ttda", config)
        assert serial == parallel

    @pytest.mark.parametrize("name,config", [
        ("cmstar", {"n_clusters": 2, "cluster_size": 2}),
        ("ultracomputer", {"stages": 3}),
    ])
    def test_contracting_machines_match_serial(self, name, config,
                                               monkeypatch):
        """Machines whose topology contracts to one shard still accept
        the parallel kernel and produce identical bytes."""
        serial = result_bytes(name, config)
        monkeypatch.setenv("REPRO_SIM_KERNEL", "parallel")
        monkeypatch.setenv("REPRO_SIM_SHARDS", "2")
        parallel = result_bytes(name, config)
        assert serial == parallel

    @pytest.mark.parametrize("name,config", [
        ("cmstar", {"n_clusters": 2, "cluster_size": 2,
                    "faults": FAULT_PLAN}),
        # net_delay faults reorder packets inside omega combining, which
        # the network rejects on any kernel — use memory faults only.
        ("ultracomputer", {"stages": 3,
                           "faults": {"seed": 11, "mem_slow_rate": 0.4,
                                      "mem_slow_cycles": 32.0}}),
    ])
    def test_contracting_machines_with_faults(self, name, config,
                                              monkeypatch):
        serial = result_bytes(name, config)
        monkeypatch.setenv("REPRO_SIM_KERNEL", "parallel")
        monkeypatch.setenv("REPRO_SIM_SHARDS", "2")
        parallel = result_bytes(name, config)
        assert serial == parallel

    def test_determinism_across_shard_counts(self):
        """shards=1/2/4 agree with each other run to run."""
        runs = [result_bytes("ttda", {"n_pes": 8, "shards": s})
                for s in (1, 2, 4)]
        stripped = []
        for blob in runs:
            payload = json.loads(blob)
            payload["config"].pop("shards")
            stripped.append(json.dumps(payload, sort_keys=True))
        assert stripped[0] == stripped[1] == stripped[2]
        again = json.loads(result_bytes("ttda", {"n_pes": 8, "shards": 4}))
        again["config"].pop("shards")
        assert json.dumps(again, sort_keys=True) == stripped[2]


class TestKernelSelection:
    def test_shards_validation(self):
        for bad in (0, -1, 1.5, "3", True, False):
            with pytest.raises(SimulationError):
                resolve_shards(bad)
        assert resolve_shards(None) == 1
        assert resolve_shards(4) == 4

    def test_env_shards(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_SHARDS", "3")
        assert resolve_shards() == 3
        monkeypatch.setenv("REPRO_SIM_SHARDS", "zero")
        with pytest.raises(SimulationError):
            resolve_shards()
        monkeypatch.setenv("REPRO_SIM_SHARDS", "0")
        with pytest.raises(SimulationError):
            resolve_shards()

    def test_shards_implies_parallel_kernel(self):
        assert resolve_kernel(shards=2) is ShardedSimulator
        assert resolve_kernel(shards=1) is CalendarSimulator

    def test_serial_kernel_with_shards_is_rejected(self):
        with pytest.raises(SimulationError, match="serial"):
            resolve_kernel("calendar", shards=2)
        with pytest.raises(SimulationError, match="serial"):
            Simulator(kernel="legacy", shards=4)

    def test_factory_builds_sharded(self):
        sim = Simulator(shards=4)
        assert isinstance(sim, ShardedSimulator)
        assert sim.shards == 4

    def test_constructor_validates_shards_and_mode(self):
        with pytest.raises(SimulationError):
            ShardedSimulator(shards=0)
        with pytest.raises(SimulationError):
            ShardedSimulator(shards=2.0)
        # Dispatch is always sequenced; there is no mode to choose.
        with pytest.raises(TypeError):
            ShardedSimulator(shards=2, mode="window")


def two_shard_ring(hops=25, lookahead=2.0):
    """A waiting cycle: each shard only ever has work the other sends."""
    sim = ShardedSimulator(shards=2)
    left, right = object(), object()
    sim.configure_shards(
        [(left, 0), (right, 1)],
        {(0, 1): lookahead, (1, 0): lookahead},
    )
    hits = []

    def bounce(owner, other, hop):
        hits.append((sim.now, hop))
        if hop < hops:
            sim.post_to(other, lookahead, bounce, other, owner, hop + 1)

    sim.post_to(left, 0, bounce, left, right, 0)
    sim.run()
    return sim, hits


class TestConservativeProtocol:
    def test_two_shard_ring_crosses_channels(self):
        """Every hop of the ring is a cross-shard channel message, and
        each lands exactly one lookahead after it was sent."""
        sim, hits = two_shard_ring()
        assert [hop for (_, hop) in hits] == list(range(26))
        assert [t for (t, _) in hits] == [2.0 * hop for hop in range(26)]
        stats = sim.kernel_stats()
        assert stats["channel_messages"] == 25
        assert stats["shard_events"] == [13, 13]
        assert two_shard_ring()[1] == hits

    def test_zero_lookahead_rejected(self):
        sim = ShardedSimulator(shards=2)
        with pytest.raises(SimulationError, match="lookahead"):
            sim.configure_shards([], {(0, 1): 0.0})
        with pytest.raises(SimulationError, match="lookahead"):
            sim.configure_shards([], [(1, 0, -1.0)])

    def test_cross_shard_post_needs_a_channel(self):
        sim = ShardedSimulator(shards=2)
        a, b = object(), object()
        sim.configure_shards([(a, 0), (b, 1)], {(0, 1): 1.0})

        def fire():
            sim.post_to(a, 1.0, lambda: None)  # 1 -> 0: undeclared

        sim.post_to(b, 0, fire)
        with pytest.raises(SimulationError, match="no channel"):
            sim.run()

    def test_cross_shard_post_below_lookahead_rejected(self):
        sim = ShardedSimulator(shards=2)
        a, b = object(), object()
        sim.configure_shards([(a, 0), (b, 1)],
                             {(0, 1): 4.0, (1, 0): 4.0})

        def fire():
            sim.post_to(b, 1.0, lambda: None)  # delay < lookahead: a lie

        sim.post_to(a, 0, fire)
        with pytest.raises(SimulationError, match="below the declared"):
            sim.run()

    def test_shard_index_validation(self):
        sim = ShardedSimulator(shards=2)
        with pytest.raises(SimulationError, match="out of range"):
            sim.configure_shards([(object(), 5)], {})
        with pytest.raises(SimulationError, match="out of range"):
            sim.configure_shards([], {(0, 7): 1.0})


class TestSingleShardParity:
    """ShardedSimulator(shards=1, sequenced) is the calendar kernel."""

    @staticmethod
    def drive(sim):
        log = []

        def tick(i):
            log.append((sim.now, "tick", i))
            if i < 40:
                sim.post(1.5 if i % 3 else 0.0, tick, i + 1)
                event = sim.schedule(4.0, tock, i)
                if i % 2 == 0:
                    event.cancel()

        def tock(i):
            log.append((sim.now, "tock", i))

        sim.post(0, tick, 0)
        sim.run()
        return log, sim.now, sim.events_fired

    def test_trace_parity(self):
        assert self.drive(CalendarSimulator()) == \
            self.drive(ShardedSimulator(shards=1))

    def test_budget_error_parity(self):
        def exhaust(sim):
            def tick():
                sim.post(1.0, tick)
            sim.post(0, tick)
            with pytest.raises(SimulationError) as err:
                sim.run(max_events=25)
            return str(err.value), sim.now, sim.events_fired

        assert exhaust(CalendarSimulator()) == \
            exhaust(ShardedSimulator(shards=2))

    def test_until_and_quiescence_hooks(self):
        def drive(sim):
            fired = []
            sim.post(3.0, fired.append, "a")
            refills = []

            def refill():
                if not refills:
                    refills.append(True)
                    sim.post(2.0, fired.append, "b")

            sim.add_quiescence_hook(refill)
            stop = sim.run(until=10.0)
            return fired, stop, sim.now

        assert drive(CalendarSimulator()) == drive(ShardedSimulator())

    def test_step_unsupported(self):
        with pytest.raises(SimulationError, match="single-step"):
            ShardedSimulator(shards=2).step()


class TestTopology:
    def ring(self, lookaheads):
        units = [TopologyUnit(name=f"u{i}") for i in range(len(lookaheads))]
        links = [
            TopologyLink(src=f"u{i}",
                         dst=f"u{(i + 1) % len(lookaheads)}",
                         lookahead=la)
            for i, la in enumerate(lookaheads)
        ]
        return MachineTopology(units, links)

    def test_contraction_of_zero_lookahead(self):
        topo = self.ring([1.0, 0.0, 1.0, 0.0])
        assert topo.max_shards == 2
        assignment = topo.partition(2)
        # The zero edges u1->u2 and u3->u0 glue those pairs together.
        assert assignment[1] == assignment[2]
        assert assignment[3] == assignment[0]
        assert assignment[0] != assignment[1]

    def test_all_zero_contracts_to_one(self):
        topo = self.ring([0.0, 0.0, 0.0])
        assert topo.max_shards == 1
        assert topo.partition(4) == [0, 0, 0]
        assert topo.shard_links(topo.partition(4)) == {}

    def test_partition_is_deterministic_and_balanced(self):
        topo = self.ring([1.0] * 8)
        assignment = topo.partition(4)
        assert assignment == topo.partition(4)
        counts = [assignment.count(s) for s in range(4)]
        assert counts == [2, 2, 2, 2]
        links = topo.shard_links(assignment)
        assert all(la == 1.0 for la in links.values())

    def test_duplicate_and_unknown_units_rejected(self):
        with pytest.raises(SimulationError, match="duplicate"):
            MachineTopology([TopologyUnit(name="a"),
                             TopologyUnit(name="a")], [])
        with pytest.raises(SimulationError, match="unknown unit"):
            MachineTopology([TopologyUnit(name="a")],
                            [TopologyLink(src="a", dst="b", lookahead=1.0)])


class TestRegistryDescribe:
    def test_ttda_describe(self):
        payload = registry.describe("ttda", n_pes=4)
        assert payload["max_shards"] == 4
        assert len(payload["topology"]["units"]) == 4
        assert all(link["lookahead"] == 4.0
                   for link in payload["topology"]["links"])
        assert json.dumps(payload, sort_keys=True)  # JSON-clean

    def test_contracting_machines_report_one_shard(self):
        assert registry.describe("cmstar")["max_shards"] == 1
        assert registry.describe("ultracomputer")["max_shards"] == 1

    def test_machines_without_topology_report_cleanly(self):
        for name in ("hep", "cmmp", "vliw", "connection_machine"):
            payload = registry.describe(name)
            assert payload["topology"] is None
            assert payload["max_shards"] == 1
