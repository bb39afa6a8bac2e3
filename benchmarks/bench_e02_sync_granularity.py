"""E2 — Issue 2: sharing data without constraining parallelism (§1.1).

The paper's producer/consumer example: "One possible way of avoiding a
read-before-write race would be to allow the *entire* array to be written
prior to allowing the consumer routine to begin processing.  By this
simpleminded transfer of control, there is no synchronization problem,
but neither is there any chance for parallelism. ... The extreme approach
would be to synchronize the two routines on a per-element basis", which
§2.3 claims I-structures deliver "with no performance overhead and with no
loss of parallelism".

Three disciplines, one pipeline workload:

* **whole-array** — von Neumann, consumer spins on a done flag;
* **per-element busy-wait** — von Neumann with HEP full/empty bits
  (footnote 2): overlap, but paid for in retry traffic;
* **per-element I-structure** — the tagged-token machine: overlap with
  deferred reads instead of retries.

The comparable metric is the *overlap factor*: total time divided by the
sum of producer-alone and consumer-alone times on the same machine
(1.0 = fully serialized, 0.5 = perfectly overlapped).
"""

from repro.analysis import Table
from repro.dataflow import MachineConfig, TaggedTokenMachine
from repro.exp import row_at
from repro.vonneumann import VNMachine, programs
from repro.workloads import compile_workload

#: Array length of the producer/consumer pipeline.
N = 24
#: The three disciplines, as the table's rows name them.
WHOLE = "whole-array flag"
HEP = "per-element full/empty (HEP)"
ISTRUCTURE = "per-element I-structure"


def _vn_machine(retry_backoff=4):
    return VNMachine(2, memory="dancehall", latency=2, memory_time=1,
                     retry_backoff=retry_backoff)


def run_whole_array(n, work=6):
    producer = programs.producer_whole_array(100, n, 50, work_per_element=work)
    consumer = programs.consumer_whole_array(100, n, 50, 99,
                                             work_per_element=work)
    machine = _vn_machine()
    machine.add_processor(producer)
    machine.add_processor(consumer)
    result = machine.run()
    both = result.time
    retries = result.counters["retries"]  # the consumer spinning on the flag

    solo_p = _vn_machine()
    solo_p.add_processor(producer)
    t_p = solo_p.run().time
    solo_c = _vn_machine()
    for k in range(n):
        solo_c.poke(100 + k, k * k)
    solo_c.poke(50, 1, full=True)
    solo_c.add_processor(consumer)
    t_c = solo_c.run().time
    return both, both / (t_p + t_c), retries


def run_per_element(n, work=6):
    producer = programs.producer_per_element(100, n, work_per_element=work)
    consumer = programs.consumer_per_element(100, n, 99, work_per_element=work)
    machine = _vn_machine()
    machine.add_processor(producer)
    machine.add_processor(consumer)
    result = machine.run()
    both = result.time
    retries = result.counters["retries"]

    solo_p = _vn_machine()
    solo_p.add_processor(producer)
    t_p = solo_p.run().time
    solo_c = _vn_machine()
    for k in range(n):
        solo_c.poke(100 + k, k * k, full=True)
    solo_c.add_processor(consumer)
    t_c = solo_c.run().time
    return both, both / (t_p + t_c), retries


def run_istructure(n):
    program, _, _ = compile_workload("pipeline")
    config = MachineConfig(n_pes=4, network_latency=2)
    both = TaggedTokenMachine(program, config).run(n).time

    produce_only, _, _ = _compile_single("produce")
    consume_only, _, _ = _compile_single("consume_prefilled")
    t_p = TaggedTokenMachine(produce_only, config).run(n).time
    t_c = TaggedTokenMachine(consume_only, config).run(n).time
    return both, both / (t_p + t_c), 0


def _compile_single(which):
    from repro.lang import compile_source

    if which == "produce":
        source = """
        def produce(a, n) =
          (initial k <- 0
           while k < n do
             a[k] <- k * k;
             new k <- k + 1
           return k);
        def main(n) = let a = array(n) in produce(a, n);
        """
    else:
        source = """
        def fill(a, n) =
          (initial k <- 0
           while k < n do
             a[k] <- k * k;
             new k <- k + 1
           return k);
        def consume(a, n) =
          (initial k <- 0; s <- 0
           while k < n do
             new s <- s + a[k];
             new k <- k + 1
           return s);
        def main(n) =
          let a = array(n) in
          let t = fill(a, n) in
          consume(a, n);
        """
    return compile_source(source, entry="main"), None, None


def run_experiment():
    table = Table(
        "E2  Synchronization granularity on a producer/consumer array "
        "(paper §1.1 Issue 2, §2.3)",
        ["discipline", "machine", "time", "overlap factor", "retry traffic"],
        notes=[
            "overlap factor = time(both) / (time(producer) + time(consumer))",
            "1.0 = serialized; 0.5 = perfect overlap",
            f"array of {N} elements",
        ],
    )
    t, overlap, retries = run_whole_array(N)
    table.add_row(WHOLE, "von Neumann", t, overlap, retries)
    t, overlap, retries = run_per_element(N)
    table.add_row(HEP, "von Neumann", t, overlap, retries)
    t, overlap, retries = run_istructure(N)
    table.add_row(ISTRUCTURE, "tagged-token", t, overlap, retries)
    return table


_at = row_at("discipline")

#: The paper's claims, read off the table.
CLAIMS = {"e02_sync_granularity": {
    # The whole-array barrier serializes; both per-element schemes overlap.
    "whole_array_serializes":
        lambda rows: _at(rows, WHOLE)["overlap factor"] > 0.9,
    "per_element_overlaps": lambda rows: all(
        _at(rows, d)["overlap factor"] < 0.85 for d in (HEP, ISTRUCTURE)),
    # Busy-waiting pays in retry traffic; I-structures never retry.
    "busy_waiting_retries": lambda rows: all(
        _at(rows, d)["retry traffic"] > 0 for d in (WHOLE, HEP)),
    "istructure_never_retries":
        lambda rows: _at(rows, ISTRUCTURE)["retry traffic"] == 0,
}}
