"""The counters and metrics a TTDA run reports, and the laws they obey.

The PE, the machine and the network keep their hot counts in plain
slots and fold them into ``Counter``/``MetricsRegistry`` names only when
someone reads them.  These tests pin what a reader sees: the exact
``result.counters`` and ``metrics_snapshot()`` of a fixed grid of runs
(recorded before the counts moved into slots), the conservation laws
between the counts on random small runs, and a registry that reads live
values rather than a copy taken when it was built.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import Simulator
from repro.dataflow import ByContextMapping, MachineConfig, TaggedTokenMachine
from repro.graph.opcodes import CLASS_COUNTER
from repro.network import IdealNetwork
from repro.obs import MetricsRegistry
from repro.workloads import compile_workload

#: An e20-style plan (slow I-structure banks at a high rate), widened
#: with bank failures, PE stalls and crashes and network spikes so that
#: every rare counter moves too.
FAULT_PLAN = {"seed": 11, "mem_slow_rate": 0.9, "mem_slow_cycles": 64.0,
              "mem_fail_rate": 0.1, "pe_stall_rate": 0.1,
              "pe_stall_cycles": 3.0, "pe_crash_rate": 0.05,
              "net_delay_rate": 0.1, "net_delay_cycles": 16.0}

GRID = [(mapping, capacity, faults)
        for mapping in ("hash", "context")
        for capacity in (None, 2)
        for faults in (False, True)]

#: sha256 of (``result.counters``, ``metrics_snapshot()``) as sorted
#: JSON for matmul(3) on 4 PEs, in GRID order.  A digest that moves
#: means a reported count or statistic moved: re-record only for an
#: intended change.
DIGESTS = [
    ("92c90a45b17ca6ffa76a88a698d2adc642c2d6befbfac4070a1f638ca70a1705",
     "0e8ccada065539d10203af2952d934bd4cebd4811de00a1d0cbd25c2eab98cb9"),
    ("fadef44ef3abb6522219ef18524373fe2b06e44afa804b4c264e3b128738f86b",
     "7ec6140c7bea6feccef69589cb9a9723c1f7ea6763cf3429da53c115b5fda7dd"),
    ("d7d196b96ebbcf0855e81bf2091085e3e589b3fd440f566f83d942e8f2de9095",
     "705c26cef6e1ba5c80ee1fe2a19f0eb750df8b5ebde5a7278bcba57ccbbeeb8a"),
    ("260682283a107a1c8554f8dda2ef32f0fe8d9d88a9c54359e4365ed33915c41d",
     "dc5d24791430b527cb4c81f117b1b2d810c51a145de01efb98814c55de5bec0a"),
    ("44641763d455928b157dd6a8a3c0beab9a3b53b056b562b5c0f4d5d5834b7aa2",
     "0ed7ed41e36105d5ec6c93e49cff452d9a592368f79391dbd868710109decd04"),
    ("b155929eedc5840b1cfe454ff844b0e6def147110c7567509555e38c7c03c1f5",
     "a48dcabcc6cc934229acb5a1e475e3861ea204841b6782651c876ef7ede1575a"),
    ("2a47fe29a8e706b32bcbcccc0a895bf07ac4171612a5b6b97f4ebaf386c35725",
     "9f78550136a0c5f03005ee36957a41d58343a559b617d807679a67b98ca6224c"),
    ("cfae73781ca96aae3e33d7c1d6923dd718e3f460b9cef6eff60de06ab2fd36b5",
     "bc4e4f098c72aea6f927bd6036009b2ca7db22c61828270897d709dc2e7ea06b"),
]


def _config(mapping="hash", capacity=None, faults=False, n_pes=4,
            latency=4.0):
    config = MachineConfig(n_pes=n_pes, network_latency=latency,
                           wm_capacity=capacity,
                           fault_plan=FAULT_PLAN if faults else None)
    if mapping == "context":
        config.mapping_factory = ByContextMapping
    return config


def _sha(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _run(workload, args, config):
    program, _reference, _default = compile_workload(workload)
    machine = TaggedTokenMachine(program, config)
    return machine, machine.run(*args)


class TestCounterDigests:
    @pytest.mark.parametrize("index", range(len(GRID)),
                             ids=[f"{m}-cap{c}-{'faults' if f else 'clean'}"
                                  for m, c, f in GRID])
    def test_counters_and_snapshot_unchanged(self, index):
        machine, result = _run("matmul", (3,), _config(*GRID[index]))
        got = (_sha(result.counters), _sha(machine.metrics_snapshot()))
        assert got == DIGESTS[index]


class TestConservation:
    @settings(max_examples=25, deadline=None)
    @given(workload=st.sampled_from([("matmul", (2,)), ("fib", (5,)),
                                     ("trapezoid", (0.0, 1.0, 8, 0.125)),
                                     ("wavefront", (3,))]),
           mapping=st.sampled_from(["hash", "context"]),
           n_pes=st.integers(1, 6), latency=st.integers(0, 8),
           capacity=st.sampled_from([None, 1, 3]),
           faults=st.booleans())
    def test_counts_balance(self, workload, mapping, n_pes, latency,
                            capacity, faults):
        name, args = workload
        machine, result = _run(name, args, _config(
            mapping, capacity, faults, n_pes=n_pes, latency=latency))
        counters = result.counters
        classes = set(CLASS_COUNTER.values())
        assert sum(v for k, v in counters.items() if k in classes) == \
            counters["instructions"] == result.instructions
        sent = sum(pe.counters["tokens_sent"] for pe in machine.pes)
        assert sent == counters["tokens_sent"] == (
            counters.get("tokens_local", 0)
            + counters.get("tokens_network", 0))
        net = machine.network
        assert net.counters["injected"] == net.counters["delivered"]
        assert net.counters["injected"] == counters.get("tokens_network", 0)
        assert net.in_flight == 0
        assert all(value != 0 for value in counters.values())


class TestLiveRegistry:
    """A registry built before the run reads the values at snapshot
    time, exactly as one built after it does."""

    def test_machine_registry_is_live(self):
        program, _reference, _default = compile_workload("matmul")
        machine = TaggedTokenMachine(program, _config(faults=True))
        early = machine.metrics_registry()
        machine.run(3)
        now = machine.sim.now
        assert early.snapshot(now=now) == \
            machine.metrics_registry().snapshot(now=now)
        assert early.snapshot(now=now)["pe0.instructions"] > 0

    def test_network_registry_is_live(self):
        sim = Simulator()
        net = IdealNetwork(sim, 3, latency=2.0)
        for port in range(3):
            net.attach(port, lambda packet: None)
        early = net.register_metrics(MetricsRegistry(), prefix="net")
        for src in range(3):
            net.send(src, (src + 1) % 3, src)
        sim.run()
        late = net.register_metrics(MetricsRegistry(), prefix="net")
        assert early.snapshot(now=sim.now) == late.snapshot(now=sim.now)
        assert early.snapshot(now=sim.now)["net.delivered"] == 3
