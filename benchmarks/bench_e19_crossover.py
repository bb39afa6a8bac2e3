"""E19 (extension) — the engineering question the paper begs: *when* does
dataflow win?

E16 showed the tagged-token machine executes ~2x the instructions for the
same algorithm; E1 showed it tolerates latency.  Head-to-head on the same
computation (summing the squares 1..n), with both machines in the same
cycle units, two workload shapes give opposite answers:

* a **serial-chain** sum (accumulator loop) — the dataflow machine *never*
  wins: its loop-control and accumulator chains pay the network latency
  per iteration just like the stalling processor, and it carries the
  sequencing overhead on top.  This is the paper's own caveat made
  quantitative: latency is tolerated only "given that the program being
  executed is sufficiently parallel" (§2.3);
* a **tree reduction** of the same values — parallelism O(n/log n): the
  dataflow machine's time grows sub-linearly in latency and crosses below
  the von Neumann time partway through the sweep.

The uniprocessor comparator runs the linear loop in both cases — one
processor cannot extract parallelism from a tree.
"""

from repro.analysis import Table, crossover_point
from repro.dataflow import MachineConfig, TaggedTokenMachine
from repro.exp import row_at
from repro.lang import compile_source
from repro.vonneumann import run_sequential

LATENCIES = [1, 2, 4, 8, 16, 32, 64]

_SERIAL_SOURCE = """
def produce(a, n) =
  (initial k <- 0
   while k < n do
     a[k] <- k * k;
     new k <- k + 1
   return 0);

def consume(a, n) =
  (initial k <- 0; s <- 0
   while k < n do
     new s <- s + a[k];
     new k <- k + 1
   return s);

def main(n) =
  let a = array(n) in
  let t = produce(a, n) in
  consume(a, n);
"""

_TREE_SOURCE = """
def fill(a, lo, hi) =
  if hi - lo == 1
  then (initial q <- 0
        while q < 1 do
          a[lo] <- lo * lo;
          new q <- q + 1
        return 0)
  else let mid = floor((lo + hi) / 2) in
       fill(a, lo, mid) + fill(a, mid, hi);

def tree_sum(a, lo, hi) =
  if hi - lo == 1 then a[lo]
  else let mid = floor((lo + hi) / 2) in
       tree_sum(a, lo, mid) + tree_sum(a, mid, hi);

def main(n) =
  let a = array(n) in
  let t = fill(a, 0, n) in
  tree_sum(a, 0, n);
"""


def run_von_neumann_compiled(latency, n):
    """The *same source*, compiled by the sequential backend onto one
    stalling processor (see ``repro.vonneumann.idl_compiler``)."""
    value, result = run_sequential(_SERIAL_SOURCE, (n,), entry="main",
                                   latency=latency, memory_time=1)
    assert value == sum(k * k for k in range(n))
    return result.time


def run_von_neumann_hand(latency, n):
    """Hand-tuned assembly for the same computation: the uniprocessor's
    best case (a human register allocator, no redundant moves)."""
    from repro.vonneumann import VNMachine

    machine = VNMachine(1, memory="dancehall", latency=latency, memory_time=1)
    machine.add_processor(f"""
        movi r2, 100
        movi r3, 0
        movi r4, {n}
        movi r7, 0
    prod:
        beq  r3, r4, cons_init
        mul  r5, r3, r3
        store r5, r2, 0
        addi r2, r2, 1
        addi r3, r3, 1
        jmp  prod
    cons_init:
        movi r2, 100
        movi r3, 0
    cons:
        beq  r3, r4, done
        load r5, r2, 0
        add  r7, r7, r5
        addi r2, r2, 1
        addi r3, r3, 1
        jmp  cons
    done:
        movi r2, 99
        store r7, r2, 0
        halt
    """)
    result = machine.run()
    assert machine.peek(99) == sum(k * k for k in range(n))
    return result.time


def run_dataflow(source, latency, n, n_pes=8):
    program = compile_source(source, entry="main")
    machine = TaggedTokenMachine(
        program, MachineConfig(n_pes=n_pes, network_latency=latency)
    )
    result = machine.run(n)
    assert result.value == sum(k * k for k in range(n))
    return result.time


def run_experiment(n=32, n_pes=8):
    table = Table(
        "E19  Head-to-head: stalling uniprocessor vs tagged-token machine, "
        "serial chain vs tree reduction",
        ["latency", "vN hand", "vN compiled", "df serial", "df tree",
         "tree wins"],
        notes=[
            f"sum of squares of a {n}-element array; {n_pes} dataflow PEs",
            "same cycle units: 1-cycle functional units and memories",
            "'vN hand' = hand-tuned assembly; 'vN compiled' = the same Id "
            "source through the sequential backend",
        ],
    )
    hand_series = []
    tree_series = []
    for latency in LATENCIES:
        hand_time = run_von_neumann_hand(latency, n)
        compiled_time = run_von_neumann_compiled(latency, n)
        serial_time = run_dataflow(_SERIAL_SOURCE, latency, n, n_pes)
        tree_time = run_dataflow(_TREE_SOURCE, latency, n, n_pes)
        hand_series.append((latency, tree_time))
        tree_series.append((latency, hand_time))
        table.add_row(latency, hand_time, compiled_time, serial_time,
                      tree_time, tree_time < hand_time)
    crossover = crossover_point(hand_series, tree_series)
    table.note(
        "tree reduction overtakes even the hand-tuned uniprocessor at "
        "latency " + (f"<= {crossover}" if crossover is not None
                      else "> sweep")
    )
    table.note(
        "the serial-chain dataflow version NEVER wins against hand-tuned "
        "code: latency tolerance requires program parallelism "
        "(the paper's §2.3 caveat)"
    )
    return table


_at = row_at("latency")


def _series(rows, column):
    return [_at(rows, latency)[column] for latency in (1, 16, 64)]


def _growth(rows, column):
    return _at(rows, 64)[column] / _at(rows, 1)[column]


#: The paper's claims, read off the table (latencies 1, 16 and 64).
CLAIMS = {"e19_crossover": {
    # Serial-chain dataflow never beats hand-tuned sequential code.
    "serial_chain_never_wins": lambda rows: all(
        s > h for s, h in zip(_series(rows, "df serial"),
                              _series(rows, "vN hand"))),
    # The tree version starts behind the hand-tuned code (overhead) and
    # crosses over as latency grows.
    "tree_crosses_over": lambda rows: (_at(rows, 1)["tree wins"] == "no"
                                       and _at(rows, 64)["tree wins"] == "yes"),
    # Both vN variants grow linearly with latency, the tree sub-linearly.
    "tree_sublinear_in_latency": lambda rows: (
        _growth(rows, "vN hand") > 5
        and _growth(rows, "df tree") < 0.5 * _growth(rows, "vN hand")),
    # The compiled comparator is honest: same source, modest code-quality
    # penalty relative to hand assembly.
    "compiled_comparator_honest": lambda rows: (
        all(c >= h for c, h in zip(_series(rows, "vN compiled"),
                                   _series(rows, "vN hand")))
        and _at(rows, 1)["vN compiled"] < 2 * _at(rows, 1)["vN hand"]),
}}
