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
    ("d41c58bd43523eaf9437942fccddcc276bb66dce22fd50858a8eb5b4045a60b0",
     "9d8b1beaae95affe9d323ade040f6b369240c1379001cb01ae2024a26b9ce94d"),
    ("94b92232f72b0abfd84588f445f8ba9ea0f9c35d446c63d7e303809c585d7f36",
     "392a02a9a74311e412d728cffc7ce6d2f17f7f0009f5dce2b70dd1ef78060c49"),
    ("e8113f16ecf61f2d30bc170ddd3b65652e4863590f1d76827038ec43e1360340",
     "26481bf9c6ba7e60dd29b4a945143dd53292d2486bdd6fabd63b26bce8a295a4"),
    ("9f9138a6d2ccb8a40446ea316950a11a5da321936f8dc928cad823d570d42e68",
     "7203292a8b8ad07d5b7d8d8e2607f67090713b5c738b3456c9af6d4300678f43"),
    ("8a7ef6a770ab0f9aef45bc0f19d77fc290d6ed31234d57f66aea734d3241317b",
     "86de96e01b8f7b9858ab275446eae15b515e18d368212901c9b18604fe765b0a"),
    ("80c9c3c9a748ee4cf31bdfb23d024807da61c7648b97e2d95079c40d240eb4fa",
     "389abf7fb3434d5dff4454a2777b4d55ba42168eec2ee477f1debe18d2f1db79"),
    ("950c326032c242ca00d13778496e5ceab18472cfa29c492c1dc8eff9ca6cdcaa",
     "f8ebf0cf35cd5f943fcab8493c3abe0d369635a3abf8877c67c1576dcebfeb1c"),
    ("15abc5e39800f9a9ed4810f3ec3f1d812d6aa86c3706c1872071cb5115f649f0",
     "04eec6f54115262dbee84e5b4553adabeb0e92b6babe6ad2a3521ec64672d6a6"),
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
