"""Run functions for the sweep-service tests.

These live in their own module (not the test file) so pool workers can
resolve them by name: a sweep request carries ``"serve_jobs:square"``
and the worker imports this module — exactly how a real client names an
inline callable.
"""

import time


def square(config):
    return {"x": config["x"], "y": config["x"] * config["x"]}


def fail_on_three(config):
    if config["x"] == 3:
        raise ValueError("three is right out")
    return {"x": config["x"]}


def raise_memory_error(config):
    raise MemoryError("pool allocation failure")


def sleep_forever(config):
    time.sleep(config.get("sleep", 60.0))
    return "done"
