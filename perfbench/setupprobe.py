"""One fresh-interpreter set-up of a workload, timed by the driver.

Usage: ``python3 perfbench/setupprobe.py WORKLOAD WORK_DIR`` (with the
checkout's ``src`` on ``PYTHONPATH``).  Does the workload's whole set-up
- imports, registry, scratch copies, server bind and pool spawn - prints
``ready``, then waits for standard input to close and tears down.
"""

import sys

from common import NullTracer, load_workload


def main(name, work):
    workload = load_workload(name, NullTracer())
    workload.configure(".", work, seed=0)
    workload.setup()
    try:
        print("ready", flush=True)
        sys.stdin.read()
    finally:
        workload.close()


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
