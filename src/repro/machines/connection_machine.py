"""The Connection Machine and Illiac IV SIMD models (§1.2.5).

The Connection Machine proposal: "a million processors", each "12 32-bit
registers, some flag bits, and one 1-bit ALU", grouped 64 to a node on a
14-dimensional hypercube.  "The bit-serial communication through the
hypercube links is packet oriented ... In the absence of conflicts, a
message will reach its destination in at most 14 steps; but, because of
conflicts, some messages will take significantly more steps ... A global
flag is raised when all processors are done communicating, and only then
can the next instruction begin."

The model executes SIMD macro-steps: an ALU phase (bit-serial, so a
32-bit add costs 32 bit-cycles) and a communication phase whose duration
is set by the *most congested link* of the round — the global-flag
barrier.  It reproduces the paper's back-of-envelope: "a processor will
spend almost all (90%?, 99%?) of its time communicating" on
graph-exploration workloads.

Illiac IV's restriction is modelled separately: a single instruction
drives one uniform grid shift, so processors needing different directions
serialize, and everyone waits for the farthest transfer.

:class:`ConnectionMachine` is the registry entry point
(``registry.create("connection_machine", groups_log2=10)``); its
``illiac_shifts`` workload covers the Illiac IV restriction.
"""

import random
from dataclasses import dataclass

from .api import SimResult
from .registry import register

__all__ = [
    "CMConfig",
    "CMResult",
    "ConnectionMachine",
    "IlliacIV",
]


@dataclass
class CMConfig:
    """Machine parameters.  Defaults scale the proposal down to keep the
    simulation quick; ``groups_log2=14`` reproduces the full 2^14-node
    cube (one million processors at 64 per group)."""

    groups_log2: int = 10
    procs_per_group: int = 64
    word_bits: int = 32  # bit-serial ALU: cycles per 32-bit operation
    message_bits: int = 32  # bit-serial links: cycles per message-hop
    bit_time: float = 1.0

    @property
    def n_groups(self):
        return 2**self.groups_log2

    @property
    def n_processors(self):
        return self.n_groups * self.procs_per_group


@dataclass
class CMResult:
    """Outcome of a SIMD workload."""

    alu_time: float
    comm_time: float
    rounds: int
    messages: int
    max_link_load: int
    mean_hops: float

    @property
    def total_time(self):
        return self.alu_time + self.comm_time

    @property
    def comm_fraction(self):
        total = self.total_time
        return self.comm_time / total if total > 0 else 0.0


class IlliacIV:
    """The 8x8 end-around grid with one uniform shift per instruction."""

    def __init__(self, rows=8, cols=8, shift_time=1.0):
        self.rows = rows
        self.cols = cols
        self.shift_time = shift_time

    def shifts_needed(self, transfers):
        """Instructions to realize per-processor transfers.

        ``transfers`` is a list of (d_row, d_col) displacements, one per
        active processor.  A single instruction shifts *every* processor
        one step in *one* direction, so the instruction count is the sum
        over the four directions of the largest magnitude requested —
        processors wanting east and west cannot share an instruction
        ("two machine instructions had to be executed"), and everyone
        waits for the farthest transfer.
        """
        north = max((max(0, -dr) for dr, _ in transfers), default=0)
        south = max((max(0, dr) for dr, _ in transfers), default=0)
        west = max((max(0, -dc) for _, dc in transfers), default=0)
        east = max((max(0, dc) for _, dc in transfers), default=0)
        return north + south + west + east

    def transfer_time(self, transfers):
        return self.shifts_needed(transfers) * self.shift_time


@register("connection_machine")
class ConnectionMachine:
    """Registry model: SIMD rounds of (ALU phase, hypercube communication
    phase), plus the Illiac IV grid-shift restriction as a workload."""

    def __init__(self, groups_log2=10, procs_per_group=64, word_bits=32,
                 message_bits=32, bit_time=1.0, illiac_rows=8,
                 illiac_cols=8, illiac_shift_time=1.0, faults=None):
        from ..faults import coerce_plan

        self._fault_plan = coerce_plan(faults)
        self.cm_config = CMConfig(
            groups_log2=groups_log2, procs_per_group=procs_per_group,
            word_bits=word_bits, message_bits=message_bits,
            bit_time=bit_time,
        )
        self.illiac = IlliacIV(rows=illiac_rows, cols=illiac_cols,
                               shift_time=illiac_shift_time)
        self.config = {
            "groups_log2": groups_log2,
            "procs_per_group": procs_per_group,
            "word_bits": word_bits,
            "message_bits": message_bits,
            "bit_time": bit_time,
            "illiac_rows": illiac_rows,
            "illiac_cols": illiac_cols,
            "illiac_shift_time": illiac_shift_time,
        }
        # Only echoed when set, so default configs (and every existing
        # baseline row) stay byte-identical.
        if self._fault_plan is not None:
            self.config["faults"] = self._fault_plan.as_dict()

    # ------------------------------------------------------------------
    def route_round(self, messages):
        """Route one communication round; returns (time, max_load, hops).

        ``messages`` is a list of (src_group, dst_group).  Dimension-order
        routing; each directed link moves one message per message-time, so
        the round lasts until the hottest link drains, plus pipeline fill
        for the longest path.  The global completion flag makes this a
        barrier: the round's time is the max, not the mean.
        """
        config = self.cm_config
        link_load = {}
        total_hops = 0
        max_hops = 0
        for src, dst in messages:
            node = src
            hops = 0
            differing = node ^ dst
            for dim in range(config.groups_log2):
                bit = 1 << dim
                if differing & bit:
                    nxt = node ^ bit
                    link = (node, nxt)
                    link_load[link] = link_load.get(link, 0) + 1
                    node = nxt
                    hops += 1
            total_hops += hops
            max_hops = max(max_hops, hops)
        max_load = max(link_load.values()) if link_load else 0
        message_time = config.message_bits * config.bit_time
        round_time = (max_load + max(0, max_hops - 1)) * message_time
        mean_hops = total_hops / len(messages) if messages else 0.0
        return round_time, max_load, mean_hops

    def run_graph_workload(self, rounds=8, messages_per_group=1,
                           alu_ops_per_round=1, pattern="random", seed=7):
        """Alternate ALU phases with graph-edge communication phases.

        ``pattern="random"`` models pointer-chasing over an irregular
        graph (each group messages a uniformly random group);
        ``pattern="neighbor"`` is the friendly grid case (one-hop).
        """
        config = self.cm_config
        rng = random.Random(seed)
        n = config.n_groups
        plan = self._fault_plan
        fault_stream = None
        if plan is not None and plan.enabled and plan.net_delay_rate > 0.0:
            injector = plan.injector()
            fault_stream = injector.rng.stream("cm.links")
        alu_time = 0.0
        comm_time = 0.0
        total_messages = 0
        worst_link = 0
        hops_acc = 0.0
        for _ in range(rounds):
            alu_time += alu_ops_per_round * config.word_bits * config.bit_time
            messages = []
            for src in range(n):
                for _ in range(messages_per_group):
                    if pattern == "random":
                        dst = rng.randrange(n)
                    elif pattern == "neighbor":
                        dst = src ^ 1
                    else:
                        raise ValueError(f"unknown pattern {pattern!r}")
                    if dst != src:
                        messages.append((src, dst))
            round_time, max_load, mean_hops = self.route_round(messages)
            if fault_stream is not None:
                # Link-glitch faults under the global completion flag:
                # the round ends when the *slowest* message lands, so one
                # delayed message charges the whole array the full spike.
                delayed = sum(
                    1 for _ in messages
                    if fault_stream.random() < plan.net_delay_rate
                )
                if delayed:
                    round_time += plan.net_delay_cycles
            comm_time += round_time
            total_messages += len(messages)
            worst_link = max(worst_link, max_load)
            hops_acc += mean_hops
        return CMResult(
            alu_time=alu_time,
            comm_time=comm_time,
            rounds=rounds,
            messages=total_messages,
            max_link_load=worst_link,
            mean_hops=hops_acc / rounds if rounds else 0.0,
        )

    def run(self, workload="graph", rounds=8, messages_per_group=1,
            alu_ops_per_round=1, pattern="random", seed=7, transfers=None):
        """Run one SIMD workload; returns a :class:`SimResult`.

        ``workload="graph"`` is the Connection Machine communication
        experiment; ``workload="illiac_shifts"`` applies the Illiac IV
        uniform-shift restriction to a list of per-processor transfers.
        """
        from ..obs.analysis import CycleAccounting, unit_account

        if workload == "graph":
            result = self.run_graph_workload(
                rounds=rounds, messages_per_group=messages_per_group,
                alu_ops_per_round=alu_ops_per_round, pattern=pattern,
                seed=seed)
            spec = {"workload": workload, "rounds": rounds,
                    "messages_per_group": messages_per_group,
                    "alu_ops_per_round": alu_ops_per_round,
                    "pattern": pattern, "seed": seed}
            metrics = {
                "alu_time": result.alu_time,
                "comm_time": result.comm_time,
                "total_time": result.total_time,
                "comm_fraction": result.comm_fraction,
                "rounds": result.rounds,
                "messages": result.messages,
                "max_link_load": result.max_link_load,
                "mean_hops": result.mean_hops,
                "n_processors": self.cm_config.n_processors,
            }
            # SIMD lockstep: the whole array is one unit.  The global
            # completion flag means every processor sits through each
            # communication phase, so comm_time is synchronization-shaped
            # queueing charged to the network.
            accounting = CycleAccounting(self.name, result.total_time, [
                unit_account("simd_array", result.total_time,
                             compute=result.alu_time,
                             network_queue=result.comm_time),
            ])
        elif workload == "illiac_shifts":
            shifts = [tuple(t) for t in (transfers or [])]
            spec = {"workload": workload,
                    "transfers": [list(t) for t in shifts]}
            transfer_time = self.illiac.transfer_time(shifts)
            metrics = {
                "shifts": self.illiac.shifts_needed(shifts),
                "transfer_time": transfer_time,
            }
            # Uniform-shift serialization: the run is pure data movement;
            # everyone waits for the farthest transfer every instruction.
            accounting = CycleAccounting(self.name, transfer_time, [
                unit_account("simd_grid", transfer_time,
                             network_queue=transfer_time),
            ])
        else:
            raise ValueError(f"unknown connection_machine workload "
                             f"{workload!r} (graph, illiac_shifts)")
        return SimResult(machine=self.name, config=dict(self.config),
                         workload=spec, metrics=metrics,
                         accounting=accounting.as_dict())

