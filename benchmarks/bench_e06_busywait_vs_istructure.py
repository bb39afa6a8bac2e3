"""E6 — deferred read lists vs HEP busy-waiting (footnote 2, §2.1).

The HEP "uses this idea [status bits per memory cell] to synchronize
cooperating parallel processes ... Unsatisfiable requests result in a
busy-waiting condition - i.e., there is no such thing as a deferred read
list."

The experiment: a consumer that runs ahead of a slow producer.  With
busy-waiting, every premature read is bounced and re-issued — memory and
network traffic multiply with the producer's slowness.  With I-structure
storage each premature read is parked once on the deferred list and
answered once, so traffic per element is constant regardless of timing.
"""

from repro.analysis import Table
from repro.dataflow import Interpreter
from repro.exp import row_at
from repro.lang import compile_source
from repro.vonneumann import VNMachine, programs

#: Producer slowness sweep: filler ALU ops per element produced.
SLOWNESS = [0, 8, 32, 96]

_DATAFLOW_PIPELINE = """
def produce(a, n, w) =
  (initial k <- 0
   while k < n do
     a[k] <- k * (k + w - w);
     new k <- k + 1
   return 0);

def consume(a, n) =
  (initial k <- 0; s <- 0
   while k < n do
     new s <- s + a[k];
     new k <- k + 1
   return s);

def pipeline(n, w) =
  let a = array(n) in
  let t = produce(a, n, w) in
  consume(a, n);
"""


def run_hep(n, producer_work, retry_backoff=4):
    machine = VNMachine(2, memory="dancehall", latency=2, memory_time=1,
                        retry_backoff=retry_backoff)
    machine.add_processor(
        programs.producer_per_element(100, n, work_per_element=producer_work)
    )
    machine.add_processor(
        programs.consumer_per_element(100, n, 99, work_per_element=0)
    )
    result = machine.run()
    retries = result.counters.get("retries", 0)
    # `accesses` counts issues, so re-issued busy-wait reads are included.
    memory_requests = machine.memory.counters["accesses"]
    return result.time, retries, memory_requests / n


def run_istructure(n, producer_work):
    program = compile_source(_DATAFLOW_PIPELINE, entry="pipeline")
    interp = Interpreter(program)
    interp.run(n, producer_work)
    deferred = interp.heap.counters["reads_deferred"]
    immediate = interp.heap.counters["reads_immediate"]
    writes = interp.heap.counters["writes"]
    requests_per_element = (deferred + immediate + writes) / n
    return deferred, requests_per_element


def run_experiment(n=16):
    table = Table(
        "E6  Busy-waiting (HEP full/empty) vs I-structure deferred reads "
        "(paper footnote 2, §2.1)",
        ["producer work/elem", "HEP retries", "HEP mem reqs/elem",
         "I-structure deferrals", "I-structure mem reqs/elem"],
        notes=[
            f"{n}-element array; consumer does no per-element work",
            "HEP requests grow with producer slowness; I-structure requests "
            "stay at exactly (1 read + 1 write)/element",
        ],
    )
    for work in SLOWNESS:
        _, retries, hep_reqs = run_hep(n, work)
        deferred, is_reqs = run_istructure(n, work)
        table.add_row(work, retries, hep_reqs, deferred, is_reqs)
    return table


_at = row_at("producer work/elem")

#: The paper's claims, read off the table (producer work 0, 32, 96).
CLAIMS = {"e06_busywait_vs_istructure": {
    # HEP retry traffic grows with producer slowness.
    "hep_retries_grow": lambda rows: (
        _at(rows, 0)["HEP retries"] < _at(rows, 96)["HEP retries"]
        and _at(rows, 96)["HEP retries"] > 50
        and _at(rows, 96)["HEP mem reqs/elem"]
        > 2 * _at(rows, 0)["HEP mem reqs/elem"]),
    # I-structure traffic is flat at 2 requests per element.
    "istructure_traffic_flat": lambda rows: all(
        abs(_at(rows, work)["I-structure mem reqs/elem"] - 2.0) < 1e-9
        for work in (0, 32, 96)),
}}
