"""Same-instant event order cannot change a dataflow value (§2).

Only a program's timing may depend on the order in which enabled
instructions fire; its result may not.  Every named workload runs on the
TTDA under a kernel that shuffles each instant's events
(:mod:`shuffled_kernel`), under both PE mappings and three seeds, and
must return its reference value, the value the interpreter returns.
"""

import pytest

from repro.dataflow import (ByContextMapping, Interpreter, MachineConfig,
                            TaggedTokenMachine)
from repro.dataflow import machine as machine_module
from repro.workloads import WORKLOADS, compile_workload

from shuffled_kernel import ShuffledSimulator

#: Smaller than each workload's default arguments, to keep the 48 runs
#: of this file near a second.
ARGS = {
    "trapezoid": (0.0, 1.0, 8, 0.125),
    "matmul": (3,),
    "wavefront": (4,),
    "jacobi": (6, 2, 3),
    "fib": (7,),
    "pipeline": (6,),
    "primes": (12,),
    "reduction": (8,),
}

MAPPINGS = {"hash": None, "context": ByContextMapping}


def test_every_workload_has_small_args():
    assert set(ARGS) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_shuffled_instants_keep_every_value(name, monkeypatch):
    program, reference, _ = compile_workload(name)
    args = ARGS[name]
    expected = Interpreter(program).run(*args)
    assert expected == pytest.approx(reference(*args))
    for mapping, factory in MAPPINGS.items():
        for seed in (1, 2, 3):
            monkeypatch.setattr(machine_module, "Simulator",
                                lambda seed=seed: ShuffledSimulator(seed))
            machine = TaggedTokenMachine(program, MachineConfig(
                n_pes=4, mapping_factory=factory))
            assert isinstance(machine.sim, ShuffledSimulator)
            value = machine.run(*args).value
            assert value == expected, (mapping, seed)


def test_the_shuffle_moves_timing(monkeypatch):
    """The kernel does reorder: the values above hold while the
    completion time moves with the seed."""
    program, _, _ = compile_workload("wavefront")
    times = {TaggedTokenMachine(program, MachineConfig(n_pes=4)).run(4).time}
    for seed in (1, 2, 3):
        monkeypatch.setattr(machine_module, "Simulator",
                            lambda seed=seed: ShuffledSimulator(seed))
        times.add(TaggedTokenMachine(program,
                                     MachineConfig(n_pes=4)).run(4).time)
    assert len(times) > 1
