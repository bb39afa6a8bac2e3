"""Component microbenchmarks (genuine pytest-benchmark timing runs).

Unlike the experiment benches (single-shot shape assertions), these
measure the *simulator's own* throughput — event kernel, I-structure
store, matching, interpreter, full machine — so performance regressions
in the library show up in the benchmark history.
"""

from repro.common import Simulator
from repro.dataflow import Interpreter, MachineConfig, TaggedTokenMachine
from repro.istructure import IStructureModule
from repro.machines import registry
from repro.workloads import compile_workload
from repro.workloads.handbuilt import build_sum_loop


def test_event_kernel_throughput(benchmark):
    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 5000:
                sim.post(1, tick)

        sim.post(0, tick)
        sim.run()
        return count[0]

    assert benchmark(run) == 5000


def test_istructure_store_throughput(benchmark):
    def run():
        module = IStructureModule()
        for i in range(2000):
            module.read(("a", i), reply=i)
        for i in range(2000):
            module.write(("a", i), i)
        return module.pending_reads()

    assert benchmark(run) == 0


def test_interpreter_throughput_sum_loop(benchmark):
    program = build_sum_loop()

    def run():
        return Interpreter(program).run(100)

    assert benchmark(run) == 5050


def test_interpreter_throughput_matmul(benchmark):
    program, reference, _ = compile_workload("matmul")

    def run():
        return Interpreter(program).run(5)

    assert benchmark(run) == reference(5)


def test_machine_throughput_small(benchmark):
    program, reference, _ = compile_workload("pipeline")

    def run():
        machine = TaggedTokenMachine(program, MachineConfig(n_pes=4))
        return machine.run(12).value

    assert benchmark(run) == reference(12)


def test_omega_hotspot_throughput(benchmark):
    model = registry.create("ultracomputer", stages=5, combining=True)

    def run():
        return model.hotspot().final_value

    assert benchmark(run) == 32
