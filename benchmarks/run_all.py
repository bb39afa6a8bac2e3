"""The benchmark suite's registry: which bench module produces which
tables, in suite order.

``EXPERIMENTS`` lists ``(module, [table, ...])``.  Every table is a key
of its module's ``SWEEPS``: a grid of pure cells and an assembler that
builds the table from their values (:class:`repro.exp.Experiment`).
:func:`repro.exp.bench.suite_tables` is the one reader of this list;
``repro bench``, ``repro serve`` and ``repro predict`` resolve tables
through it.

Run the suite with ``python -m repro bench`` (``--only e07`` for one
module's tables, ``--jobs N`` for N workers, ``--check`` to diff the
tables against ``benchmarks/baselines/``).  Each table is written as
.txt + .json under ``benchmarks/results/``, with the aggregate
``BENCH_results.json`` at the repository root.
"""

#: (module, [table, ...]) — the full suite.
EXPERIMENTS = [
    ("bench_e01_latency_tolerance", ["e01_latency_tolerance"]),
    ("bench_e02_sync_granularity", ["e02_sync_granularity"]),
    ("bench_e03_cache_coherence",
     ["e03_cache_coherence", "e03b_write_policy"]),
    ("bench_e04_cmstar_locality", ["e04_cmstar_locality"]),
    ("bench_e05_fetch_and_add", ["e05_fetch_and_add"]),
    ("bench_e06_busywait_vs_istructure", ["e06_busywait_vs_istructure"]),
    ("bench_e07_trapezoid", ["e07_trapezoid"]),
    ("bench_e08_connection_machine",
     ["e08_connection_machine", "e08b_illiac_iv"]),
    ("bench_e09_context_depth", ["e09_context_depth"]),
    ("bench_e10_ttda_scaling",
     ["e10_ttda_scaling", "e10b_mapping_ablation"]),
    ("bench_e11_istructure_cost", ["e11_istructure_cost"]),
    ("bench_e12_matching_store",
     ["e12_matching_store", "e12b_matching_store_pes"]),
    ("bench_e13_cmmp_crossbar", ["e13_cmmp_crossbar", "e13b_semaphore_cost"]),
    ("bench_e14_vliw", ["e14_vliw_width", "e14b_vliw_latency_surprise"]),
    ("bench_e15_emulation_facility", ["e15_emulation_facility"]),
    ("bench_e16_dataflow_overhead", ["e16_dataflow_overhead"]),
    ("bench_e17_wm_capacity", ["e17_wm_capacity"]),
    ("bench_e18_cmstar_microtasking", ["e18_cmstar_microtasking"]),
    ("bench_e19_crossover", ["e19_crossover"]),
    ("bench_e20_fault_tolerance", ["e20_fault_tolerance"]),
    ("bench_e21_predict", ["e21_predict"]),
]
