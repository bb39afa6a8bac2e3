"""Regenerate every experiment table under benchmarks/results/.

Run:  python benchmarks/run_all.py [--only SUBSTRING] [--jobs N]
                                   [--no-cache] [--timeout SECONDS]

Execution is farmed out by the sweep engine in :mod:`repro.exp`: every
selected experiment is submitted to one persistent worker pool (the
scheduler ``repro serve`` runs on); modules that declare ``SWEEPS`` run
grid-parallel (one task per parameter point), the rest one task per
table.  Every finished run is kept in the SQLite result store shared
with ``repro serve`` and ``repro cache`` (``$REPRO_STORE``, default
``~/.cache/repro/store.sqlite``), keyed by a content hash of (config,
code version) — so a second invocation is served almost entirely from
the store and editing a module invalidates exactly its runs.

Each table is written as .txt + .json, and an aggregate telemetry file
``BENCH_results.json`` (experiment name, table shape, wall-clock seconds)
lands at the repository root.  ``repro bench`` is the same thing as a
CLI subcommand.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.exp.bench import run_suite

#: (module, [(table_function, output_name)]) — the full suite.
EXPERIMENTS = [
    ("bench_e01_latency_tolerance", [("run_experiment", "e01_latency_tolerance")]),
    ("bench_e02_sync_granularity", [("run_experiment", "e02_sync_granularity")]),
    ("bench_e03_cache_coherence",
     [("run_experiment", "e03_cache_coherence"),
      ("write_policy_table", "e03b_write_policy")]),
    ("bench_e04_cmstar_locality", [("run_experiment", "e04_cmstar_locality")]),
    ("bench_e05_fetch_and_add", [("run_experiment", "e05_fetch_and_add")]),
    ("bench_e06_busywait_vs_istructure",
     [("run_experiment", "e06_busywait_vs_istructure")]),
    ("bench_e07_trapezoid", [("run_experiment", "e07_trapezoid")]),
    ("bench_e08_connection_machine",
     [("run_experiment", "e08_connection_machine"),
      ("illiac_table", "e08b_illiac_iv")]),
    ("bench_e09_context_depth", [("run_experiment", "e09_context_depth")]),
    ("bench_e10_ttda_scaling",
     [("run_experiment", "e10_ttda_scaling"),
      ("mapping_ablation", "e10b_mapping_ablation")]),
    ("bench_e11_istructure_cost", [("run_experiment", "e11_istructure_cost")]),
    ("bench_e12_matching_store",
     [("run_experiment", "e12_matching_store"),
      ("pe_sweep", "e12b_matching_store_pes")]),
    ("bench_e13_cmmp_crossbar",
     [("run_experiment", "e13_cmmp_crossbar"),
      ("semaphore_table", "e13b_semaphore_cost")]),
    ("bench_e14_vliw",
     [("run_width_sweep", "e14_vliw_width"),
      ("run_latency_surprise", "e14b_vliw_latency_surprise")]),
    ("bench_e15_emulation_facility",
     [("run_experiment", "e15_emulation_facility")]),
    ("bench_e16_dataflow_overhead",
     [("run_experiment", "e16_dataflow_overhead")]),
    ("bench_e17_wm_capacity", [("run_experiment", "e17_wm_capacity")]),
    ("bench_e18_cmstar_microtasking",
     [("run_experiment", "e18_cmstar_microtasking")]),
    ("bench_e19_crossover", [("run_experiment", "e19_crossover")]),
    ("bench_e20_fault_tolerance",
     [("run_experiment", "e20_fault_tolerance")]),
    ("bench_e21_predict", [("run_experiment", "e21_predict")]),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--only", default=None, metavar="SUBSTRING",
                        help="run only experiments whose module or table "
                             "name contains SUBSTRING")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: cpu count; "
                             "0 = inline, no workers)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not update the result cache")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-run timeout before terminate + one retry")
    options = parser.parse_args(argv)

    aggregate = run_suite(
        only=options.only,
        jobs=options.jobs,
        no_cache=options.no_cache,
        timeout=options.timeout,
        bench_dir=os.path.dirname(os.path.abspath(__file__)),
    )
    return 1 if aggregate["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
