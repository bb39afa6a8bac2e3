"""Issue 1 live: sweep memory latency under both architectures.

Prints the E1 table — a von Neumann processor's utilization collapsing
with latency while the tagged-token machine shrugs — plus the analytic
model column so you can see the r/(r+L) law emerge.

Run:  python examples/latency_tolerance.py
"""

import sys
import os

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "benchmarks"))

from bench_e01_latency_tolerance import SWEEPS  # noqa: E402


def main():
    experiment = SWEEPS["e01_latency_tolerance"]
    print(experiment.table(experiment.run_inline()))
    print()
    print("Reading the table:")
    print(" * 'vN util' falls as r/(r+L): the processor idles on every")
    print("   reference because the program counter admits one request at")
    print("   a time (the paper's Issue 1).")
    print(" * 'dataflow slowdown' stays near 1: enough enabled activities")
    print("   are in flight to cover the latency, exactly the §2.3 claim.")


if __name__ == "__main__":
    main()
