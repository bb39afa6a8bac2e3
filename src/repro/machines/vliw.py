"""VLIW machines — ELI-512 and the polycyclic processor (§1.2.4).

A VLIW "moves run-time sharing conflicts to compile time": the compiler
packs independent operations into wide instructions using complete static
knowledge of the dataflow graph.  The paper grants that this works for
"special purpose computation with small scale (4 to 8) parallelism" but
argues "the technique is not sufficiently general as to allow significant
scaling up" — in particular it cannot cover *dynamic* latency, because the
whole lockstep machine stalls when a memory reference takes longer than
the schedule assumed.

The model here gives the VLIW its best case: a perfect list schedule of
the program's ideal parallelism profile (obtained from the dataflow
reference interpreter — the compiler is granted an oracle).  Latency
surprises then charge the full excess to the machine, lockstep-style.

:class:`VliwModel` is the registry entry point.
"""

import math
from dataclasses import dataclass

from .api import SimResult
from .registry import register

__all__ = ["VliwModel", "schedule_length", "StaticSchedule"]


def schedule_length(parallelism_profile, issue_width):
    """Cycles for a perfect list schedule of the profile at given width.

    ``parallelism_profile`` maps logical step -> operations ready at that
    step (the interpreter's output).  Operations at one depth level are
    packed ``issue_width`` at a time; depth levels cannot overlap (they
    are data-dependent by construction).
    """
    return sum(
        math.ceil(count / issue_width)
        for count in parallelism_profile.values()
    )


@dataclass
class StaticSchedule:
    """A compiled VLIW schedule with its static latency assumption."""

    length_cycles: int
    issue_width: int
    n_memory_ops: int
    assumed_latency: float

    def execution_time(self, actual_latency):
        """Run time when the world deviates from the schedule.

        If memory answers no later than assumed, the schedule's length
        stands (the slots were reserved).  Every cycle beyond the
        assumption stalls the *entire* machine — all functional units idle
        in lockstep, which is the paper's scaling objection.
        """
        excess = max(0.0, actual_latency - self.assumed_latency)
        return self.length_cycles + self.n_memory_ops * excess

    def utilization(self, actual_latency, total_ops):
        time = self.execution_time(actual_latency)
        slots = time * self.issue_width
        return total_ops / slots if slots > 0 else 0.0


@register("vliw")
class VliwModel:
    """Registry model: statically schedule a dataflow program for a VLIW.

    The constructor takes machine parameters (issue width, the latency
    the compiler assumes).  ``compile``/``width_sweep`` operate on a
    *finished* reference-interpreter run; ``run`` does the whole thing —
    interpret a named workload, schedule it, and optionally spring a
    latency surprise.
    """

    def __init__(self, issue_width=8, assumed_latency=1.0, faults=None):
        from ..faults import coerce_plan

        self._fault_plan = coerce_plan(faults)
        self.config = {
            "issue_width": issue_width,
            "assumed_latency": assumed_latency,
        }
        # Only echoed when set, so default configs (and every existing
        # baseline row) stay byte-identical.
        if self._fault_plan is not None:
            self.config["faults"] = self._fault_plan.as_dict()

    @property
    def issue_width(self):
        return self.config["issue_width"]

    @property
    def assumed_latency(self):
        return self.config["assumed_latency"]

    def compile(self, interpreter):
        """Build the oracle schedule from a *finished* reference
        interpreter run (its parallelism profile and op-class counts)."""
        profile = interpreter.parallelism_profile
        n_memory_ops = interpreter.counters["class_structure"]
        return StaticSchedule(
            length_cycles=schedule_length(profile, self.issue_width),
            issue_width=self.issue_width,
            n_memory_ops=n_memory_ops,
            assumed_latency=self.assumed_latency,
        )

    def width_sweep(self, interpreter, widths):
        """Schedule length vs. issue width: the small-scale sweet spot.

        Returns rows (width, cycles, speedup_vs_width_1).  The returns
        flatten once width exceeds the profile's typical level of
        parallelism — the paper's "4 to 8" observation.
        """
        base = schedule_length(interpreter.parallelism_profile, 1)
        rows = []
        for width in widths:
            cycles = schedule_length(interpreter.parallelism_profile, width)
            rows.append((width, cycles, base / cycles if cycles else 0.0))
        return rows

    def run(self, workload="trapezoid", args=None, actual_latency=None):
        """Interpret ``workload``, compile it, report the schedule.

        ``actual_latency`` (default: the assumed latency) models the
        latency surprise: the lockstep stall charges every excess cycle
        to the whole machine.
        """
        from ..dataflow import Interpreter
        from ..obs.analysis import CycleAccounting, unit_account
        from ..workloads import compile_workload

        program, _, default_args = compile_workload(workload)
        run_args = tuple(args) if args is not None else tuple(default_args)
        interpreter = Interpreter(program)
        interpreter.run(*run_args)
        schedule = self.compile(interpreter)
        latency = (actual_latency if actual_latency is not None
                   else self.assumed_latency)
        plan = self._fault_plan
        if plan is not None and plan.enabled:
            # The analytic lockstep machine pays the *expected* extra
            # latency on every memory op in full — the schedule reserved
            # exact slots, so any variance stalls all issue slots (the
            # paper's dynamic-latency objection, now with faults).
            latency += (plan.mem_slow_rate * plan.mem_slow_cycles
                        + plan.mem_fail_rate * plan.retry_backoff
                        + plan.net_delay_rate * plan.net_delay_cycles)
        total_ops = interpreter.instructions_executed
        execution_time = schedule.execution_time(latency)
        # Units are the issue slots.  Ops spread evenly over the slots
        # (one slot-cycle each); a latency surprise stalls the whole
        # lockstep machine, so every slot eats the full excess
        # (execution_time - schedule_cycles); unfilled schedule slots
        # are idle — the "4 to 8" parallelism ceiling made visible.
        width = self.issue_width
        stall = execution_time - schedule.length_cycles
        accounting = CycleAccounting(self.name, execution_time, [
            unit_account(f"slot{i}", execution_time,
                         compute=total_ops / width, memory_stall=stall)
            for i in range(width)
        ])
        return SimResult(
            machine=self.name,
            config=dict(self.config),
            workload={"workload": workload, "args": list(run_args),
                      "actual_latency": latency},
            metrics={
                "schedule_cycles": schedule.length_cycles,
                "n_memory_ops": schedule.n_memory_ops,
                "execution_time": execution_time,
                "utilization": schedule.utilization(latency, total_ops),
                "total_ops": total_ops,
                "speedup_vs_scalar": (
                    schedule_length(interpreter.parallelism_profile, 1)
                    / schedule.length_cycles
                    if schedule.length_cycles else 0.0
                ),
            },
            accounting=accounting.as_dict(),
        )

