"""The in-process workloads: ``dataflow`` and ``vonneumann``.

An op is one machine run.  Ops come in rounds: every round holds each
stratum once (in a seeded order, with seeded machine parameters), so a
run's op mix is the same whatever the seed and however many rounds fit
in the run.  Every op's output is checked, against the workload's own
reference for dataflow and against an analytic final for von Neumann.
"""

import random

from common import Outcome, Workload, digest_of


def _events(stats):
    return int(stats["events_fired"]) if stats else 0


class SimWorkload(Workload):
    """Shared shape of the two in-process workloads."""

    def setup(self):
        from repro.machines import registry

        self.registry = registry
        registry.names()  # fills the registry (imports every model)

    def ops(self):
        rng = random.Random(self.seed)
        while True:
            round_ = [self.draw(rng, stratum) for stratum in self.strata]
            rng.shuffle(round_)
            for spec in round_:
                yield "run", spec

    @property
    def round_len(self):
        return len(self.strata)

    def warmup(self):
        """Run the stream's first op untimed; its digest must match the
        timed first op (a determinism check)."""
        _kind, spec = next(self.ops())
        return self.run("run", spec)

    def _model_run(self, machine, config, workload):
        tracer = self.tracer
        with tracer.span("machines.create"):
            model = self.registry.create(machine, **config)
        with tracer.span("machines.run"):
            return model.run(**workload)


class DataflowWorkload(SimWorkload):
    """Seeded ``ttda`` runs, each checked against its reference."""

    name = "dataflow"
    run_layer = "dataflow.run"
    #: (workload, args, mapping).  Sizes are chosen so every stratum
    #: takes about as long as the others (40-70 ms calibrated): a median
    #: over a mix of well-separated kinds would sit in a gap between
    #: two of them and jump from run to run.
    strata = [
        (kernel, args, mapping)
        for kernel, args in (("matmul", (3,)), ("wavefront", (8,)),
                             ("trapezoid", (0.0, 1.0, 64, 1.0 / 64)),
                             ("jacobi", (10, 5, 5)))
        for mapping in ("hash", "context")
    ]

    def setup(self):
        super().setup()
        from repro.workloads import WORKLOADS

        # The benchmark's own copy of each expected value, computed once
        # from the public reference functions (outside any timed op).
        self.expected = {
            (kernel, args): WORKLOADS[kernel][2](*args)
            for kernel, args, _m in self.strata
        }

    def draw(self, rng, stratum):
        kernel, args, mapping = stratum
        return {"kernel": kernel, "args": list(args), "mapping": mapping,
                "n_pes": rng.randint(2, 16),
                "network_latency": rng.randint(1, 20)}

    def run(self, kind, spec):
        result = self._model_run(
            "ttda",
            {"n_pes": spec["n_pes"],
             "network_latency": spec["network_latency"],
             "mapping": spec["mapping"]},
            {"workload": spec["kernel"], "args": spec["args"],
             "check": True})
        metrics = result.metrics
        expected = self.expected[(spec["kernel"], tuple(spec["args"]))]
        ok = metrics["value"] == expected
        return Outcome(
            ok=ok, error=None if ok else
            f"{spec['kernel']} value {metrics['value']!r} != {expected!r}",
            digest=digest_of(result.as_dict()),
            events=_events(result.kernel_stats),
            counts={"dataflow.tokens": (metrics["tokens_network"]
                                        + metrics["tokens_local"]),
                    "dataflow.instructions": metrics["instructions"]})

    def layers(self):
        import repro.dataflow
        import repro.obs.analysis
        import repro.workloads

        tracer = self.tracer
        machine_cls = repro.dataflow.TaggedTokenMachine
        tracer.wrap(machine_cls, "__init__", "dataflow.build")
        tracer.wrap(machine_cls, "run", "dataflow.run")
        tracer.wrap(repro.obs.analysis, "ttda_accounting", "obs.accounting")
        compile_workload = repro.workloads.compile_workload

        def compile_traced(name):
            with tracer.span("lang.compile"):
                program, reference, args = compile_workload(name)

            def check(*call_args):
                with tracer.span("workloads.check"):
                    return reference(*call_args)

            return program, check, args

        tracer.patch(repro.workloads, "compile_workload", compile_traced)


class VonNeumannWorkload(SimWorkload):
    """Seeded von Neumann runs, each checked against an analytic final."""

    name = "vonneumann"
    run_layer = "vonneumann.run"
    calib_interval = 0.02
    strata = ["hep_compute", "hep_pc", "cmmp_sum", "cmmp_semaphore",
              "cmstar", "ultra_combining", "ultra_plain", "vn_dancehall",
              "vn_bus"]

    def draw(self, rng, stratum):
        spec = {"kind": stratum}
        if stratum == "hep_compute":
            spec.update(contexts=rng.randint(6, 10),
                        latency=rng.randint(2, 20), iterations=32)
        elif stratum == "hep_pc":
            spec.update(n=48, producer_work=rng.randint(4, 32))
        elif stratum == "cmmp_sum":
            spec.update(n_procs=rng.randint(8, 12), iterations=40)
        elif stratum == "cmmp_semaphore":
            spec.update(n_procs=rng.randint(4, 6), increments=8)
        elif stratum == "cmstar":
            spec.update(n_clusters=rng.randint(2, 3),
                        remote_fraction=rng.randint(0, 10) / 20.0)
        elif stratum == "ultra_combining":
            # requests_per_proc >= 2 with combining trips a NetworkError
            # in the omega network today (see README.md); stay at 1.
            spec.update(stages=7, requests_per_proc=1)
        elif stratum == "ultra_plain":
            spec.update(stages=6, requests_per_proc=rng.randint(3, 5))
        elif stratum == "vn_dancehall":
            spec.update(n_procs=rng.randint(4, 8),
                        latency=rng.randint(1, 20), n=64,
                        data_seed=rng.randrange(1 << 30))
        elif stratum == "vn_bus":
            spec.update(n_procs=rng.randint(4, 6), n=96,
                        data_seed=rng.randrange(1 << 30))
        return spec

    def run(self, _kind, spec):
        kind = spec["kind"]
        if kind.startswith("vn_") or kind == "cmmp_semaphore":
            return self._direct(spec)
        if kind == "hep_compute":
            result = self._model_run(
                "hep", {"contexts": spec["contexts"],
                        "latency": spec["latency"]},
                {"workload": "compute_loop",
                 "iterations": spec["iterations"]})
            # Per context: 3 set-up movs, 7 instructions per iteration
            # (beqz, load, 2 ALU addi, cursor addi, subi, jmp), then the
            # final beqz and halt.
            per_context = 3 + spec["iterations"] * 7 + 2
            want = spec["contexts"] * per_context
            got = result.metrics["instructions"]
            ok, error = got == want, f"hep instructions {got} != {want}"
        elif kind == "hep_pc":
            # The model asserts the consumer's sum of squares itself.
            result = self._model_run(
                "hep", {}, {"workload": "producer_consumer", "n": spec["n"],
                            "producer_work": spec["producer_work"]})
            got = result.metrics["requests_per_element"]
            ok, error = got >= 2, f"hep requests/element {got} < 2"
        elif kind == "cmmp_sum":
            result = self._model_run(
                "cmmp", {"n_procs": spec["n_procs"]},
                {"workload": "array_sum", "iterations": spec["iterations"]})
            metrics = result.metrics
            ok = (metrics["crosspoints"] == spec["n_procs"] ** 2
                  and 0.0 < metrics["mean_utilization"] <= 1.0)
            error = f"cmmp array_sum metrics off: {metrics}"
        elif kind == "cmstar":
            result = self._model_run(
                "cmstar", {"n_clusters": spec["n_clusters"]},
                {"remote_fraction": spec["remote_fraction"], "n_refs": 20})
            metrics = result.metrics
            ok = (metrics["n_procs"] == spec["n_clusters"] * 4
                  and 0.0 < metrics["utilization"] <= 1.0)
            error = f"cmstar metrics off: {metrics}"
        else:
            combining = kind == "ultra_combining"
            tracer = self.tracer
            with tracer.span("machines.create"):
                model = self.registry.create(
                    "ultracomputer", stages=spec["stages"],
                    combining=combining)
            # The omega model runs its own kernel rather than a VNMachine,
            # so its whole run is the von Neumann run span.
            with tracer.span("machines.run"), \
                    tracer.span("vonneumann.run"):
                result = model.run(
                    requests_per_proc=spec["requests_per_proc"])
            metrics = result.metrics
            n = 2 ** spec["stages"]
            want = n * spec["requests_per_proc"]
            ok = (metrics["final_value"] == want
                  and metrics["replies"] == want
                  and (combining or metrics["memory_arrivals"] == want))
            error = f"ultracomputer finals off (want {want}): {metrics}"
        counts = {}
        if kind.startswith("ultra"):
            counts = {"network.combines": result.metrics["combines"],
                      "network.splits": result.metrics["splits"]}
        return Outcome(ok=ok, error=None if ok else error,
                       digest=digest_of(result.as_dict()),
                       events=_events(result.kernel_stats), counts=counts)

    def _direct(self, spec):
        """VNMachine runs whose finals the benchmark reads back itself."""
        from repro.vonneumann import CacheConfig, VNMachine, programs

        tracer = self.tracer
        kind = spec["kind"]
        if kind == "cmmp_semaphore":
            with tracer.span("machines.create"):
                machine = self.registry.create(
                    "cmmp", n_procs=spec["n_procs"]).build()
            machine.load_spmd(programs.shared_counter_spinlock(
                0, 1, spec["increments"]))
            with tracer.span("machines.run"):
                result = machine.run()
            want = spec["n_procs"] * spec["increments"]
            got = machine.peek(1)
            finals = [got]
        else:
            n_procs, n = spec["n_procs"], spec["n"]
            rng = random.Random(spec["data_seed"])
            with tracer.span("machines.create"):
                if kind == "vn_dancehall":
                    machine = VNMachine(n_procs, memory="dancehall",
                                        latency=spec["latency"])
                else:
                    machine = VNMachine(n_procs, memory="bus",
                                        cache_config=CacheConfig(n_sets=16))
            want = []
            for pid in range(n_procs):
                base = 1000 + 100 * pid
                words = [rng.randint(0, 999) for _ in range(n)]
                for offset, word in enumerate(words):
                    machine.poke(base + offset, word)
                want.append(sum(words))
                machine.add_processor(programs.array_sum(base, n),
                                      regs={1: pid})
            with tracer.span("machines.run"):
                result = machine.run()
            got = [proc.regs[4] for proc in machine.processors]
            finals = got
        ok = got == want
        payload = {"time": result.time, "instructions": result.instructions,
                   "counters": result.counters, "finals": finals}
        return Outcome(ok=ok, error=None if ok else
                       f"{kind} finals {got} != {want}",
                       digest=digest_of(payload),
                       events=_events(machine.sim.kernel_stats()))

    def layers(self):
        import repro.obs.analysis
        import repro.vonneumann.machine

        tracer = self.tracer
        tracer.wrap(repro.vonneumann.machine, "assemble",
                    "vonneumann.assemble")
        tracer.wrap(repro.vonneumann.machine.VNMachine, "run",
                    "vonneumann.run")
        for name in ("vn_accounting", "ultra_accounting"):
            tracer.wrap(repro.obs.analysis, name, "obs.accounting")
