"""Deterministic fault injection: plans, recovery, determinism contracts."""

import hashlib
import io
import json

import pytest

from repro.exp import Experiment, records_payload, run_experiment
from repro.faults import FaultInjector, FaultPlan, coerce_plan
from repro.machines import registry
from repro.vonneumann import VNMachine, programs


# ---------------------------------------------------------------------------
# FaultPlan validation and coercion
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_round_trips_through_dict(self):
        plan = FaultPlan(seed=7, mem_slow_rate=0.5, mem_slow_cycles=32)
        assert FaultPlan.from_dict(plan.as_dict()) == plan

    @pytest.mark.parametrize("field", ["net_delay_rate", "mem_slow_rate",
                                       "mem_fail_rate", "pe_stall_rate",
                                       "pe_crash_rate"])
    def test_rates_outside_unit_interval_rejected(self, field):
        with pytest.raises(ValueError):
            FaultPlan(**{field: 1.5})
        with pytest.raises(ValueError):
            FaultPlan(**{field: -0.1})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="mem_slow_cycels"):
            FaultPlan.from_dict({"mem_slow_cycels": 32})

    def test_levels_key_allowed(self):
        # The sweep-file extension `repro bench --faults` reads.
        plan = FaultPlan.from_dict(
            {"mem_slow_rate": 0.9, "levels": [0, 32, 64]})
        assert plan.mem_slow_rate == 0.9

    def test_negative_max_retries_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(max_retries=-1)

    def test_enabled_only_with_nonzero_rate(self):
        assert not FaultPlan().enabled
        assert not FaultPlan(mem_slow_cycles=100.0).enabled  # no rate
        assert FaultPlan(mem_slow_rate=0.1).enabled

    def test_coerce_accepts_none_plan_dict_and_path(self, tmp_path):
        assert coerce_plan(None) is None
        plan = FaultPlan(seed=3, mem_fail_rate=0.2)
        assert coerce_plan(plan) is plan
        assert coerce_plan(plan.as_dict()) == plan
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.as_dict()))
        assert coerce_plan(str(path)) == plan

    def test_coerce_rejects_other_types(self):
        with pytest.raises(TypeError):
            coerce_plan(42)

    def test_site_streams_are_independent(self):
        # Drawing at one site never perturbs another site's sequence.
        lone = FaultInjector(FaultPlan(seed=9, mem_slow_rate=0.5))
        mixed = FaultInjector(FaultPlan(seed=9, mem_slow_rate=0.5))
        lone_draws = [lone.rng.stream("mem.m0").random() for _ in range(8)]
        mixed_draws = []
        for _ in range(8):
            mixed.rng.stream("mem.m1").random()  # interleaved other site
            mixed_draws.append(mixed.rng.stream("mem.m0").random())
        assert lone_draws == mixed_draws


# ---------------------------------------------------------------------------
# Machine-level behavior: recovery, accounting, no-faults transparency
# ---------------------------------------------------------------------------

SLOW_PLAN = {"seed": 11, "mem_slow_rate": 0.9, "mem_slow_cycles": 64}


def _payload(result):
    return json.dumps(result.as_dict(), sort_keys=True, default=repr)


class TestMachineFaults:
    def test_faults_none_is_byte_identical_to_no_kwarg(self):
        for name in ("hep", "ttda", "cmmp", "cmstar", "ultracomputer",
                     "vliw", "connection_machine"):
            plain = registry.create(name).run()
            gated = registry.create(name, faults=None).run()
            assert _payload(plain) == _payload(gated), name

    def test_same_plan_same_seed_is_deterministic(self):
        for name in ("hep", "ttda"):
            first = registry.create(name, faults=SLOW_PLAN).run()
            second = registry.create(name, faults=SLOW_PLAN).run()
            assert _payload(first) == _payload(second), name

    def test_cli_faulted_machine_json_is_byte_identical(self, tmp_path):
        from repro.cli import main

        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"seed": 11, "mem_slow_rate": 0.9,
                                    "mem_slow_cycles": 64.0}))
        outputs = []
        for _ in range(2):
            out = io.StringIO()
            assert main(["machine", "ttda", "--faults", str(plan),
                         "--json"], out=out) == 0
            outputs.append(out.getvalue())
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["config"]["faults"]["seed"] == 11

    def test_slow_banks_degrade_both_architectures(self):
        hep_base = registry.create("hep").run().metric("time")
        hep_slow = registry.create("hep", faults=SLOW_PLAN).run()
        assert hep_slow.metric("time") > hep_base
        ttda_base = registry.create("ttda").run(workload="matmul")
        ttda_slow = registry.create(
            "ttda", faults=SLOW_PLAN).run(workload="matmul")
        assert ttda_slow.metric("time") > ttda_base.metric("time")
        assert ttda_slow.metric("faults_injected") > 0
        # The split-phase machine hides the same injected latency better.
        assert (ttda_slow.metric("time") / ttda_base.metric("time")
                < hep_slow.metric("time") / hep_base)

    def test_vn_transient_failures_retry_and_complete(self):
        def build(faults):
            machine = VNMachine(1, memory="dancehall", faults=faults)
            machine.add_processor(
                programs.compute_loop(8, loads_per_iter=1,
                                      alu_ops_per_iter=2))
            return machine
        base = build(None).run()
        faulty = build({"seed": 5, "mem_fail_rate": 1.0,
                        "retry_backoff": 2.0, "max_retries": 3}).run()
        # Every request fails max_retries times, then the fault clears:
        # the run completes (liveness), later (the backoff is paid), and
        # every injector fail has a matching module-level retry.
        assert faulty.time > base.time
        assert faulty.counters["faults_mem_fail"] > 0
        assert (faulty.counters["fault_retries"]
                == faulty.counters["faults_mem_fail"])

    def test_istructure_transient_failures_retry_and_complete(self):
        base = registry.create("ttda").run(workload="matmul")
        faulty = registry.create(
            "ttda", faults={"seed": 2, "mem_fail_rate": 0.3,
                            "retry_backoff": 4.0},
        ).run(workload="matmul")
        assert faulty.metric("faults_injected") > 0
        assert faulty.metric("time") > base.metric("time")

    def test_network_delay_spikes_inject_and_complete(self):
        result = registry.create(
            "ttda", faults={"seed": 4, "net_delay_rate": 0.5,
                            "net_delay_cycles": 5.0},
        ).run(workload="matmul")
        assert result.metric("faults_injected") > 0

    def test_pe_stalls_and_crashes_recover(self):
        base = registry.create("ttda").run(workload="matmul")
        result = registry.create(
            "ttda", faults={"seed": 6, "pe_stall_rate": 0.3,
                            "pe_stall_cycles": 3.0, "pe_crash_rate": 0.2,
                            "retry_backoff": 4.0},
        ).run(workload="matmul")
        assert result.metric("faults_injected") > 0
        assert result.metric("time") > base.metric("time")

    def test_plan_echoed_in_config_only_when_set(self):
        plain = registry.create("ttda")
        faulty = registry.create("ttda", faults=SLOW_PLAN)
        assert "faults" not in plain.config
        assert faulty.config["faults"]["mem_slow_cycles"] == 64


# ---------------------------------------------------------------------------
# Sweep determinism: faults are a pure function of the config
# ---------------------------------------------------------------------------

# (name, config, workload) — every registered machine, small instances.
REGISTRY_RUNS = [
    ("ttda", {"n_pes": 4}, {"workload": "matmul", "args": (3,)}),
    ("ttda", {"n_pes": 8}, {"workload": "fib", "args": (8,)}),
    ("hep", {"contexts": 4}, {}),
    ("cmmp", {"n_procs": 4}, {"iterations": 8}),
    ("cmstar", {}, {"n_refs": 8}),
    ("ultracomputer", {"stages": 3}, {}),
    ("connection_machine", {"groups_log2": 5}, {"rounds": 2}),
    ("vliw", {}, {}),
]

FAULTS = {"seed": 11, "mem_slow_rate": 0.2, "mem_slow_cycles": 8,
          "mem_fail_rate": 0.05}

#: sha256 of each cell's canonical ``as_dict()`` JSON, grid order
#: (REGISTRY_RUNS x {faults off, faults on}).  A digest that moves means
#: a model's results moved: re-record only for an intended change.
REGISTRY_DIGESTS = [
    "06193d9808e48a853fb01453ed9fd1993b8fa66433ee655ff9abf929b9872bde",
    "62c4fdcb87fdf7f2e75fdae0a54eb579911cbcac2b4c14c85dcd898244408f0d",
    "05407ef86b96068d3a47c08686f1c4771dbef56fcde79a1f9bdc55d71d720abc",
    "5fdcd3b8f04162417be92c0430003c7deb9bdf1ad8fd524bee6abe9ac0186ee5",
    "edc0e8b93604acbe193339d7af7f31e1ff7f1681df8126a25e757fa2e6d46d53",
    "59b7e44f1189a7618089ca36b3dbecb2c2d1c6d6e833808cbe08fc57b53ffa3f",
    "5dc52f847fa2537215a1ce3278d26eac855e3766d3396aac26cc32980e9d26d1",
    "a5269357fc0f9422935519a88a1e6879cea40332fbbe1fcf1c0a1e954a75f02f",
    "e8da680243f48015750c4a40e411a8da28db14ce2d459dbf97bb58b9055652ae",
    "3802951eb6a722035d9192556fc9080ad68457538cc9e72c111823e4e3add8ac",
    "7ac754699aad09bce511cc30b6432c91db941e83439617bd8996ba8b2bcf9256",
    "a27218417f6a77b1c3a99ae8d5eda7bc12281243447c166905cb761573131586",
    "53f1bde8a1805c3c1520e73c6348cf02c776f8b8a8efd19fda4e3fb2d7d993ac",
    "23d9b4e6dd9aad6d74b1a00acaca77f2c20752eb04c2438373cd200595e3e5a3",
    "b440a9cbd681bf1ac27e9cd69863c7844803f38b92aa15463f167413d25292e2",
    "8a609c7a8b87999e95bf0a58995c41bbe58dc1d8983ad3cdeb4c44e741d6caf6",
]


def registry_point(config):
    """Module-level (picklable) worker: one registry machine, with or
    without the fault plan."""
    name, machine_config, workload = REGISTRY_RUNS[config["case"]]
    if config["faults"]:
        machine_config = dict(machine_config, faults=FAULTS)
    return registry.create(name, **machine_config).run(**workload).as_dict()


def _digest(value):
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"),
                           default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()


class TestSweepDeterminism:
    def test_jobs0_and_jobs2_are_byte_identical(self):
        """The differential gate: every registered machine x {faults
        off, on}, inline and on two workers, byte-identical to each
        other and to the recorded digests."""
        experiment = Experiment(
            name="registry_sweep", run=registry_point,
            grid=[{"case": case, "faults": faults}
                  for case in range(len(REGISTRY_RUNS))
                  for faults in (False, True)])
        inline = run_experiment(experiment, jobs=0)
        workers = run_experiment(experiment, jobs=2)
        assert all(record.ok for record in inline + workers)
        assert (json.dumps(records_payload(inline), sort_keys=True,
                           default=repr)
                == json.dumps(records_payload(workers), sort_keys=True,
                              default=repr))
        assert [_digest(record.value) for record in inline] == \
            REGISTRY_DIGESTS
