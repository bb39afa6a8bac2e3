"""The counters, metrics and trace events a von Neumann run reports.

The processors, the memory modules, the dancehall memory system and the
combining omega keep their hot counts in plain slots and fold them into
``Counter``/``MetricsRegistry`` names only when someone reads them; the
processors run decoded programs.  These tests pin what a reader sees:
the exact ``result.counters``, ``metrics_snapshot()`` and trace-bus
event stream of a fixed set of runs (recorded before the counts moved
into slots), and a registry that reads live values rather than a copy
taken when it was built.
"""

import hashlib
import json

import pytest

from repro.common import Simulator
from repro.common.queueing import FifoServer
from repro.faults import coerce_plan
from repro.network.crossbar import CrossbarNetwork
from repro.network.omega import (CombiningOmegaNetwork, FetchAddRequest,
                                 MemoryRequest)
from repro.obs import MetricsRegistry, RingSink, TraceBus
from repro.vonneumann import CacheConfig, VNMachine, programs

#: An e20-style plan (slow banks at a high rate), widened with bank
#: failures and network spikes so that the fault counters move too.
FAULT_PLAN = {"seed": 11, "mem_slow_rate": 0.9, "mem_slow_cycles": 64.0,
              "mem_fail_rate": 0.1, "net_delay_rate": 0.1,
              "net_delay_cycles": 16.0}

#: Every ALU and branch op, each branch both taken and not taken, a
#: float DIV, and the results stored to memory.  r12 is preloaded 7.5.
OP_ZOO = """
    movi r1, 17
    movi r2, 5
    mov  r3, r1
    add  r4, r1, r2
    sub  r4, r4, r2
    mul  r4, r4, r2
    div  r5, r4, r2
    mod  r6, r1, r2
    and  r7, r1, r2
    or   r7, r7, r1
    xor  r7, r7, r2
    slt  r8, r2, r1
    sle  r8, r1, r8
    seq  r9, r1, r3
    sne  r9, r9, r2
    addi r10, r1, 3
    subi r10, r10, 1
    muli r10, r10, 2
    nop
    div  r11, r12, r2
    movi r13, 3
loop:
    subi r13, r13, 1
    blt  r1, r2, bad
    bge  r2, r1, bad
    beq  r1, r2, bad
    bne  r1, r3, bad
    beqz r1, bad
    bnez r13, loop
    blt  r2, r1, t1
    halt
t1: bge  r1, r2, t2
    halt
t2: beq  r1, r3, t3
    halt
t3: bne  r1, r2, t4
    halt
t4: beqz r13, t5
    halt
t5: movi r14, 500
    store r4, r14, 0
    store r5, r14, 1
    store r6, r14, 2
    store r7, r14, 3
    store r8, r14, 4
    store r9, r14, 5
    store r10, r14, 6
    store r11, r14, 7
    faa  r15, r14, r2
    testset r15, r14, 8
    load r15, r14, 0
    jmp  end
bad:
    halt
end:
    halt
"""


def _sha(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _array_sums(machine, n_procs, n=24):
    for pid in range(n_procs):
        base = 1000 + 100 * pid
        for offset in range(n):
            machine.poke(base + offset, (pid * 37 + offset * 11) % 97)
        machine.add_processor(programs.array_sum(base, n), regs={1: pid})


def _vn_bus(bus, faults):
    machine = VNMachine(4, memory="bus", cache_config=CacheConfig(n_sets=16),
                        trace_bus=bus, faults=faults)
    _array_sums(machine, 4)
    return machine


def _vn_dancehall(bus, faults):
    machine = VNMachine(4, memory="dancehall", latency=5, trace_bus=bus,
                        faults=faults)
    _array_sums(machine, 4)
    return machine


def _op_zoo(bus, faults):
    machine = VNMachine(2, memory="dancehall", latency=3, trace_bus=bus,
                        faults=faults)
    for pid in range(2):
        machine.add_processor(OP_ZOO, regs={1: pid, 12: 7.5})
    return machine


def _hep_op_zoo(bus, faults):
    machine = VNMachine(1, memory="dancehall", latency=3, switch_time=1.0,
                        trace_bus=bus, faults=faults)
    machine.add_multithreaded_processor([(OP_ZOO, {12: 7.5}),
                                         (OP_ZOO, {12: 2.5})])
    return machine


def _cmmp_semaphore(bus, faults):
    def network_factory(sim, n_ports):
        return CrossbarNetwork(sim, n_ports, switch_latency=1.0,
                               port_service_time=1.0, name="cmmp.xbar")

    machine = VNMachine(4, memory="dancehall", n_modules=4, memory_time=3.0,
                        network_factory=network_factory, trace_bus=bus,
                        faults=faults)
    machine.load_spmd(programs.shared_counter_spinlock(0, 1, 5))
    return machine


def _hep_compute(bus, faults):
    machine = VNMachine(1, memory="dancehall", latency=8.0, memory_time=1.0,
                        retry_backoff=4.0, trace_bus=bus, faults=faults)
    source = programs.compute_loop(6, loads_per_iter=1, alu_ops_per_iter=2)
    machine.add_multithreaded_processor([(source, {}) for _ in range(6)])
    return machine


def _hep_producer_consumer(bus, faults):
    machine = VNMachine(1, memory="dancehall", latency=2, memory_time=1,
                        retry_backoff=4.0, trace_bus=bus, faults=faults)
    machine.add_multithreaded_processor([
        (programs.producer_per_element(100, 8, work_per_element=12), {}),
        (programs.consumer_per_element(100, 8, 99, work_per_element=0), {}),
    ])
    return machine


VN_SCENARIOS = {
    "vn_bus": _vn_bus,
    "vn_dancehall": _vn_dancehall,
    "op_zoo": _op_zoo,
    "hep_op_zoo": _hep_op_zoo,
    "cmmp_semaphore": _cmmp_semaphore,
    "hep_compute_loop": _hep_compute,
    "hep_producer_consumer": _hep_producer_consumer,
}


def _vn_run(name, faults, bus=None):
    """(result.counters, snapshot, final state) of one run; a registry
    built before ``run()`` must snapshot the same as one built after."""
    machine = VN_SCENARIOS[name](bus, FAULT_PLAN if faults else None)
    early = machine.metrics_registry()
    result = machine.run()
    regs = [[context.regs for context in proc.contexts]
            if hasattr(proc, "contexts") else proc.regs
            for proc in machine.processors]
    memory = {address: machine.peek(address)
              for address in (0, 1, 99, *range(500, 509))}
    state = {"time": result.time, "instructions": result.instructions,
             "utilizations": result.utilizations, "regs": regs,
             "memory": memory}
    snapshot = machine.metrics_snapshot()
    assert early.snapshot(now=machine.sim.now) == snapshot
    return result.counters, snapshot, state


def _omega_run(combining, faults, bus=None):
    """A hot-spot FETCH-AND-ADD mix plus plain loads and stores over a
    16-port combining omega; two requests per processor.  Returns
    (counters, snapshot, final state) like :func:`_vn_run`."""
    sim = Simulator()
    if bus is not None:
        sim.attach_bus(bus)
    net = CombiningOmegaNetwork(sim, 4, combining=combining)
    if bus is not None:
        net.attach_bus(bus)
    if faults:
        net.faults = coerce_plan(FAULT_PLAN).injector(bus=bus)
    early = net.register_metrics(MetricsRegistry())
    memory = {}
    servers = [FifoServer(sim, 2.0, name=f"m{port}")
               for port in range(net.n_ports)]

    def serve(work):
        record, payload = work
        old = memory.get(payload.address, 0)
        if isinstance(payload, FetchAddRequest):
            memory[payload.address] = old + payload.value
        elif payload.op == "store":
            memory[payload.address] = payload.value
        net.reply(record, old)

    replies = []
    for port in range(net.n_ports):
        net.attach_memory(port, lambda record, payload, port=port:
                          servers[port].submit((record, payload), serve))
        net.attach_processor(port, lambda payload, value, port=port:
                             replies.append((port, value)))
    for round_index in range(2):
        for src in range(net.n_ports):
            if src % 5 == 4:
                payload = MemoryRequest(address=src, op="store", value=src)
            elif src % 5 == 3:
                payload = MemoryRequest(address=src - 3)
            else:
                payload = FetchAddRequest(address=src % 2, value=src + 1)
            sim.post(round_index * 1.5, net.request, src, payload)
    sim.run()
    registry = net.register_metrics(MetricsRegistry())
    snapshot = registry.snapshot(now=sim.now)
    assert early.snapshot(now=sim.now) == snapshot
    state = {"time": sim.now, "memory": sorted(memory.items()),
             "replies": replies}
    return net.counters.as_dict(), snapshot, state


def _run(name, faults, bus=None):
    if name.startswith("omega"):
        return _omega_run(name == "omega_combining", faults, bus=bus)
    return _vn_run(name, faults, bus=bus)


CASES = [(name, faults)
         for name in (*VN_SCENARIOS, "omega_combining", "omega_plain")
         for faults in (False, True)]

#: sha256 of (counters, snapshot, final state, bus event stream) as
#: sorted JSON, per case, recorded before the von Neumann counts
#: moved into slots.  A digest that moves means a reported count, a
#: statistic, a result or a trace event moved: re-record only for an
#: intended change.
DIGESTS = {
    ("vn_bus", False): (
        "e97b30f8fc34bd7831eae76a8c4a58528a94dbaafdf0f08f6e792377a2e2d422",
        "c4a0318c223061e4b029f2b245b897a5a9286fd2c7994ff91c13f57cbbc107c9",
        "71c4751e6d9cefd3ae00ab671b37e84ced636835eb5052ffaed34d0091ed35c8",
        "9b0b02c847f7f0b900a511adc10fd68826fe3e71b35c188851a32fb8fd89c9be",
    ),
    ("vn_bus", True): (
        "ca9bd060f6979a7d264bc1b268f936ad10359677c4bc6980e0a5f1cd2aa82ee8",
        "c4a0318c223061e4b029f2b245b897a5a9286fd2c7994ff91c13f57cbbc107c9",
        "71c4751e6d9cefd3ae00ab671b37e84ced636835eb5052ffaed34d0091ed35c8",
        "9b0b02c847f7f0b900a511adc10fd68826fe3e71b35c188851a32fb8fd89c9be",
    ),
    ("vn_dancehall", False): (
        "7b2d2f154f12935dd3c2142ba51a0cb9db709326e1ed4a4dc30184efe70ecf06",
        "dfa4aa891e20742af0ac763c992c90cd81511e127b75f7ad062ab91a90518166",
        "ed6c552142d2eb9b478708d942a7b3787807a590e27e24a03118006cdab45b3f",
        "6cffaf57622a0a1945fbfb20b43622e0dd961a2823e54e5f7498127ea29954f3",
    ),
    ("vn_dancehall", True): (
        "5e169d2ede0a048a4f7f1cc3c041e172aca96b80fed08da18f2f42106a5e8ac6",
        "dfbe10f4674977e46bad526a3fe62e34fa7499f1016353eb0dfc9d8f5d3a0883",
        "58978834e8c90d3efa38e450bce60817b87d78afd14e0cb958799bdf23b78049",
        "34921280f4aba425cd399ecf986bcefc41a3031b43153821e4008587e07f1f14",
    ),
    ("op_zoo", False): (
        "c9c7a82e01bba0fd262f8421754d9f831a2ac12ebd2acdb809ebb15bf3372c25",
        "c7544cf066b46617000c20a791c29ed31f7a47f4a074981f91a3dacb26037408",
        "b49a8979f8bc7e77b7e7c13d2144cb21d89a478c1436acaa8bdec4ea6848d287",
        "8ebbf11a0e75323be79b1458656fa186b40019aa2fac2e2901c03f30ffcda470",
    ),
    ("op_zoo", True): (
        "a754f2b1282b5fcb56dfe2e540c83f04abc00e11c4783377dbb1ec9d50a5bba8",
        "fdb40849e1ca318686c2ec8cbcd7c1ba8ffc01eff76208e234b8c91cf075f85c",
        "32f0d68b457c4ed38d2dea7685c61589854f30c384f3edf23552dcc302506116",
        "276d90dd89bc37fd62f689864fbe6e60a696fd16df93b462347a4ee150ebfc74",
    ),
    ("hep_op_zoo", False): (
        "610183ad2bcabc2a38fb39c5ef1c53b5a38b96fb1672b98d696572b581486a1d",
        "d0c38c4d602adc82ce29f3f8f44a1d432f405e6839ef72f1dafe1e02c0a44b0b",
        "eed791315eef3814c07f1c43cde171c292b31e283f643d6775caa04d286eae95",
        "f34d182feb638de21efcfc9d244cfbc307b8a300bd195dfb38836456dd4d00c1",
    ),
    ("hep_op_zoo", True): (
        "25ef6c58c92d08e95e80179fc3a3394add275747063a696e7478dbe629ebe3e7",
        "ab8aaa48e4ef084614dca56550096e08170c44c06393d575fcd505882dddb220",
        "c9a0a60314a441738ca6f26f3454e4d9877ea9a3c2e9fda1db4ddb14344afe51",
        "dededa6bac843170e89a58efdc501b80ed777db0c1af6d04ae041d042f2362cb",
    ),
    ("cmmp_semaphore", False): (
        "ebee2ff20f5c916dc7bb911b90fd6b24f130623762ed5a046c8bb0ed96b3e409",
        "fec1a65d8f0618e2104b8b85e2142bed45c55421810e97f72141b428ee01b125",
        "abfe2bca0c9bdcac13d2fa3a7b7c222364a8acc6dd995cc3a4f11c0e49180f17",
        "79fca678d08411c68af8b83380fb94de7fc7e7e4243f39aa7299bea3542c755e",
    ),
    ("cmmp_semaphore", True): (
        "33a4e6f5c37e54b35e2d389cf4fa3b88ec06dab27fd95f1dcf4ce70c27c86e4d",
        "6321fc35bf79310f276e676132646ae596aa3a5e43cd20f7d2ea932a7faf5321",
        "6b1bf8ef9ae18286a149032d95eb3230afb77e8d7e648b2043af1bca4d0b5957",
        "c96a562e3fa8566519104181be084c6e03b68b55f1a09090a7744d21ba0e0fa7",
    ),
    ("hep_compute_loop", False): (
        "102f7ef52a3fb4ebc9c579da9d04dcf6bd7b2aa00862489fe2e3130612b63c61",
        "2f0c688ec01d69671ed988c5a119b6e096d899ae82b395f34d35a04a73081421",
        "39beed16c656a2fd93ee8ce92c043395294f630a4611e539a897b362fd516424",
        "0bd3eecb4b2a2855785ed6036cd78e9de80f0f3a97a577ae510d86c8fc7be16c",
    ),
    ("hep_compute_loop", True): (
        "ecc56d3f04e1d8c41c998fe8cefaedc7d11d2ec42eae935e4415d997c1fb0991",
        "35eb25e98e2481062a9fc59d447c9d2774958376b97c20359edbac9d5c7d5b76",
        "78a9a64b36a97ca3afebbd2c49b15c010c20e242913a9968e24a98d63bdfc89e",
        "cef621b61f4306fa542b9950668105017416fbfbc2a7493893bba1ad60a0b7d3",
    ),
    ("hep_producer_consumer", False): (
        "38045d071ded9ed01db3a1f63a1f1b3f47be13e8815224e2649b2717ff00bf8d",
        "c33b24fd4c4825f6d0d13c8a65776e2c10dc83982035cdae7cf1550e0c505cb7",
        "87e41b12c8745c98f7eba3d18037c570b35572872f96905e4211e4f592fa32c3",
        "0a2936f1c797b5368b852329775f81187e6d23b6e330e04fe6c2a4fd93ccb66b",
    ),
    ("hep_producer_consumer", True): (
        "67361f2e4ba3bd40192c809cc4ce0bed495f0a1b67273875bdecd1299a96de69",
        "f79fec1a96a4d65828f4e38c033b50368a20f54e2a882ae13209f0b7580138c3",
        "14021d817ab245d90b3bc1749882a35f96a4eddd04c85380237a4e7a3eba0eca",
        "14f03be5f9639e9092122eff06eb3a6a775a628be331178b6acff6c913e29388",
    ),
    ("omega_combining", False): (
        "c5d4f0942a326043254319133693b8344c5699ab49969dc56b1cb94c75da8efd",
        "299419dc50ebb128020a020182ff8fdd2dc6e7671ceb6acac16b7428da59c09b",
        "1a85d694224f4c5bf262475b217cec493de7df77e457527701a4c08a87761e42",
        "a8d2e8c1431899bc717d9a5ced76cfff5f5dca2f2084fb10b573369383b1e14b",
    ),
    ("omega_combining", True): (
        "a1957f639efba14ebada0bfede4a581ae0ffe9068b739a27c1444db5c8e79a86",
        "4775360096ad75a9e8cd4ac0d5dbcab4338e7a785f12931cad6829ebc7a273d0",
        "48c3faf910348c11dee5059c5c115d42a324034e3597d06767087dc00431affc",
        "c4ba507a951475366ef4dcd87d6e6680e4048257a0e8a8f28112f18ca008dcca",
    ),
    ("omega_plain", False): (
        "93712c33498d5a8b8a92686c17927053cee552c405c28f9dce78969239bc1f0a",
        "58631e8f8a297bc163daee233fe33182cd996034c2fc05bae9d830a4dd48eb51",
        "d2e91d4665e5cd92843ccfd1e922e2399e79e309b9041b86e3e3bfa0c0a538ad",
        "265cf81726caab211474c8802c1aafac73670fb7624f3b9e7e546a61e2de2617",
    ),
    ("omega_plain", True): (
        "93712c33498d5a8b8a92686c17927053cee552c405c28f9dce78969239bc1f0a",
        "a5f62d6a442ea33704ab8d95610b9909ab747d718fd015fabf442633211f0582",
        "1b17f0fba29849fc90bf14f6ab643d9fe824fad826309a60d1acc24aed5a1332",
        "a0edeac9b99b6593c4c5cf480d39d20cbee1336f9435d1a207ebd55d46c2d22e",
    ),
}


def _digests(name, faults):
    counters, snapshot, state = _run(name, faults)
    sink = RingSink(limit=None)
    bus = TraceBus(sink, provenance=True)
    traced = _run(name, faults, bus=bus)
    # Observing a run does not change what it reports, faults or not.
    assert traced == (counters, snapshot, state)
    events = [event.to_json_dict() for event in sink.events]
    return (_sha(counters), _sha(snapshot), _sha(state), _sha(events))


class TestVonNeumannDigests:
    @pytest.mark.parametrize("name,faults", CASES,
                             ids=[f"{n}-{'faults' if f else 'clean'}"
                                  for n, f in CASES])
    def test_counters_snapshot_and_trace_unchanged(self, name, faults):
        assert _digests(name, faults) == DIGESTS[(name, faults)]
