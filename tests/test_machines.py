"""Tests for the survey machine models (C.mmp, Cm*, Ultracomputer, VLIW,
Connection Machine / Illiac IV), driven through the unified registry API."""

import os
import subprocess
import sys

import pytest

import repro
from repro.dataflow import Interpreter
from repro.machines import IlliacIV, registry, schedule_length
from repro.workloads import linspace_trapezoid
from repro.workloads.handbuilt import build_array_pipeline, build_sum_loop


class TestRegistry:
    def test_all_seven_models_registered(self):
        assert registry.names() == [
            "cmmp", "cmstar", "connection_machine", "hep", "ttda",
            "ultracomputer", "vliw",
        ]

    def test_create_applies_config(self):
        model = registry.create("cmmp", n_procs=8)
        assert model.name == "cmmp"
        assert model.config["n_procs"] == 8

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="ultracomputer"):
            registry.get("ultra")

    def test_running_every_model_leaves_numpy_unimported(self):
        # numpy is a test-only dependency: no model may pull it in.
        script = (
            "import sys\n"
            "from repro.machines import registry\n"
            "for name in registry.names():\n"
            "    registry.create(name).run()\n"
            "print('numpy' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestTtda:
    def test_trapezoid_on_the_timed_machine(self):
        # Fig 2-2's program on 4 timed PEs, through the registry.
        result = registry.create("ttda", n_pes=4).run(
            workload="trapezoid", args=(0.0, 1.0, 32, 1.0 / 32))
        assert abs(result.metric("value")
                   - linspace_trapezoid(0.0, 1.0, 32)) < 1e-12
        assert result.metric("time") > 0


class TestCmmp:
    def test_cost_grows_quadratically_latency_stays_flat(self):
        results = [registry.create("cmmp", n_procs=n).run(
                       workload="array_sum", iterations=10)
                   for n in (2, 4, 8)]
        costs = [r.metric("crosspoints") for r in results]
        latencies = [r.metric("mean_latency") for r in results]
        assert costs == [n * n for n in (2, 4, 8)]
        # Latency stays within a small constant factor while cost 16x's.
        assert max(latencies) < 4 * min(latencies)

    def test_semaphore_costs_much_more_than_alu(self):
        result = registry.create("cmmp", n_procs=4).run(
            workload="semaphore", increments=8)
        assert result.metric("ratio") > 10  # "rather high" vs an ALU op


class TestCmstar:
    def _util(self, fraction, **kwargs):
        model = registry.create("cmstar", n_clusters=2, cluster_size=2)
        return model.run(remote_fraction=fraction, n_refs=30, **kwargs)

    def test_utilization_falls_with_remote_fraction(self):
        utils = [self._util(f).metric("utilization")
                 for f in (0.0, 0.2, 0.5)]
        assert utils[0] > utils[1] > utils[2]

    def test_intercluster_hurts_more_than_intracluster(self):
        intra = self._util(0.5, remote_kind="intracluster")
        inter = self._util(0.5, remote_kind="intercluster")
        assert inter.metric("utilization") < intra.metric("utilization")

    def test_prediction_tracks_measurement(self):
        model = registry.create("cmstar", n_clusters=2, cluster_size=2)
        for fraction in (0.0, 0.3):
            result = model.run(remote_fraction=fraction, n_refs=40)
            assert result.metric("utilization") == pytest.approx(
                result.metric("predicted_utilization"), rel=0.35)

    def test_local_references_bypass_kmap(self):
        from repro.machines.cmstar import locality_kernel
        machine = registry.create("cmstar", n_clusters=2,
                                  cluster_size=2).build()
        machine.add_processor(locality_kernel(0, 4, 2, 20, 0.0), regs={1: 0})
        machine.run()
        network = machine.memory.network
        assert network.counters["local"] > 0
        assert network.counters.get("intra_cluster") == 0
        assert network.counters.get("inter_cluster") == 0


class TestUltracomputer:
    def _hotspot(self, stages, combining):
        return registry.create("ultracomputer", stages=stages,
                               combining=combining).hotspot()

    def test_fetch_and_add_sums_correctly(self):
        result = self._hotspot(4, combining=True)
        assert result.final_value == result.n_procs

    def test_combining_collapses_hot_port_traffic(self):
        with_c = self._hotspot(5, combining=True)
        without = self._hotspot(5, combining=False)
        assert with_c.memory_arrivals < without.memory_arrivals
        assert with_c.serialization_factor < 0.5
        assert without.serialization_factor == 1.0

    def test_combining_bounds_latency_growth(self):
        small = self._hotspot(3, combining=True)
        large = self._hotspot(6, combining=True)
        small_nc = self._hotspot(3, combining=False)
        large_nc = self._hotspot(6, combining=False)
        growth_c = large.max_round_trip / small.max_round_trip
        growth_nc = large_nc.max_round_trip / small_nc.max_round_trip
        assert growth_c < growth_nc  # combining turns ~n into ~log n

    def test_adds_bounded_by_log_n(self):
        result = self._hotspot(5, combining=True)
        # A full combine tree performs n-1 adds total; each *reference*
        # sees at most log2(n) of them on its path.
        assert result.combines <= result.n_procs - 1
        assert result.splits == result.combines


class TestVLIW:
    def _profile(self):
        interp = Interpreter(build_sum_loop())
        interp.run(12)
        return interp

    def test_schedule_length_shrinks_then_flattens(self):
        interp = self._profile()
        rows = registry.create("vliw").width_sweep(interp,
                                                   [1, 2, 4, 8, 16, 64])
        cycles = [c for _, c, _ in rows]
        assert cycles[0] > cycles[2]  # width helps at first
        assert cycles[-1] == cycles[-2]  # ...then flattens (small-scale ||ism)
        # Even infinite width cannot beat the critical path.
        assert cycles[-1] >= interp.critical_path

    def test_latency_surprise_stalls_whole_machine(self):
        interp = Interpreter(build_array_pipeline())
        interp.run(8)
        schedule = registry.create("vliw", issue_width=8,
                                   assumed_latency=2).compile(interp)
        on_time = schedule.execution_time(actual_latency=2)
        late = schedule.execution_time(actual_latency=20)
        assert late > on_time
        assert late - on_time == schedule.n_memory_ops * 18

    def test_width_one_equals_total_ops(self):
        interp = self._profile()
        assert schedule_length(interp.parallelism_profile, 1) == (
            interp.instructions_executed
        )


class TestConnectionMachine:
    def test_communication_dominates_on_random_graphs(self):
        model = registry.create("connection_machine", groups_log2=8)
        result = model.run_graph_workload(rounds=4, messages_per_group=1)
        assert result.comm_fraction > 0.9  # the paper's "90%? 99%?"

    def test_neighbor_pattern_is_cheap(self):
        model = registry.create("connection_machine", groups_log2=8)
        random_result = model.run_graph_workload(rounds=4, pattern="random")
        neighbor_result = model.run_graph_workload(rounds=4, pattern="neighbor")
        assert neighbor_result.comm_time < random_result.comm_time
        assert neighbor_result.mean_hops == 1.0

    def test_mean_hops_near_half_dimensions(self):
        model = registry.create("connection_machine", groups_log2=10)
        result = model.run_graph_workload(rounds=2, pattern="random")
        assert result.mean_hops == pytest.approx(5.0, abs=0.5)

    def test_alu_speed_is_irrelevant(self):
        t_fast = registry.create("connection_machine", groups_log2=8,
                                 word_bits=1).run_graph_workload(rounds=4)
        t_slow = registry.create("connection_machine", groups_log2=8,
                                 word_bits=32).run_graph_workload(rounds=4)
        # A 32x faster ALU changes total time by well under 10%.
        assert t_slow.total_time < 1.1 * t_fast.total_time


class TestIlliacIV:
    def test_opposite_directions_serialize(self):
        model = IlliacIV()
        assert model.shifts_needed([(0, 1)]) == 1
        assert model.shifts_needed([(0, 1), (0, -1)]) == 2  # east and west

    def test_everyone_waits_for_farthest(self):
        model = IlliacIV()
        assert model.shifts_needed([(0, 1), (3, 0)]) == 4

    def test_empty_transfer_set(self):
        assert IlliacIV().shifts_needed([]) == 0


class TestRemovedShims:
    """The PR 2 deprecation shims are gone; the one-release ``__getattr__``
    stub names the registry replacement instead of a bare ImportError."""

    @pytest.mark.parametrize("name", [
        "build_cmmp", "crossbar_scaling_table", "semaphore_cost",
        "build_cmstar", "locality_sweep", "build_hep", "saturation_table",
        "producer_consumer_traffic", "run_hotspot", "hotspot_sweep",
        "ConnectionMachineModel", "IlliacIVModel", "VLIWModel",
    ])
    def test_removed_names_raise_with_migration_hint(self, name):
        import repro.machines as machines
        with pytest.raises(AttributeError, match="removed"):
            getattr(machines, name)
        try:
            getattr(machines, name)
        except AttributeError as err:
            message = str(err)
        assert name in message
        assert "registry" in message or "repro.exp" in message

    def test_import_of_removed_name_fails(self):
        with pytest.raises(ImportError):
            from repro.machines import run_hotspot  # noqa: F401

    def test_unknown_attribute_still_plain(self):
        import repro.machines as machines
        with pytest.raises(AttributeError, match="no attribute"):
            machines.definitely_not_a_thing
