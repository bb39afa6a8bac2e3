"""The ``serve`` workload: one in-process sweep service, one client.

Set-up starts a ``ServerThread`` with two pool workers on a fresh SQLite
store and submits a two-cell sweep so both workers are spawned.  Then a
single closed-loop client sends rounds of requests, each round being
one cold sweep of new cells followed, in a seeded order, by two repeat
sweeps of earlier grids and two ``POST /predict`` queries:

* ``cold`` (the primary op): four registry machine runs nobody has asked
  for before (two ``ttda``, one ``hep``, one ``cmmp``) - the worker pool
  and store writes;
* ``hit``: a grid a cold sweep already ran - store reads only;
* ``predict``: an in-region query of the analytic surrogate.

Every answer is checked right after its op, outside the op's timing:
served values against the same cells run in-process, repeat sweeps for
exactly 100% store hits and the cold sweep's values, predictions
against ``PredictPlane.query``.  Only digests are kept, so memory does
not grow with the number of ops.
"""

import json
import os
import random
import statistics
import time

from common import Outcome, Workload, digest_of

WORKERS = 2
CALLABLE = "servecells:run_cell"
EXPERIMENT = "perfbench-cells"
#: Seconds between two reads of a running sweep's event feed.
POLL_SECONDS = 0.002


def _normal(value):
    """JSON round trip, so served and in-process values compare alike."""
    return json.loads(json.dumps(value, sort_keys=True))


def _cells(rng):
    """One cold sweep's grid: a trapezoid and a wavefront ``ttda`` run
    and a ``hep`` and a ``cmmp`` run (15-40 ms each), always that mix so
    sweeps take alike; the seed draws the machine parameters, from
    spaces of 700-900 cells each, large enough that the caller can
    reject every cell already used."""
    def ttda(workload, args):
        return {"machine": "ttda",
                "config": {"n_pes": rng.randint(2, 16),
                           "network_latency": rng.randint(1, 30),
                           "mapping": rng.choice(["hash", "context"])},
                "workload": {"workload": workload, "args": args}}

    return [
        ttda("trapezoid", [0.0, 1.0, 32, 1.0 / 32]),
        {"machine": "hep",
         "config": {"contexts": rng.randint(4, 16),
                    "latency": rng.randint(2, 60)},
         "workload": {"workload": "compute_loop", "iterations": 32}},
        ttda("wavefront", [6]),
        {"machine": "cmmp",
         "config": {"n_procs": rng.randint(8, 16),
                    "memory_time": rng.randint(1, 8)},
         "workload": {"workload": "array_sum",
                      "iterations": rng.randint(36, 47)}},
    ]


def _query(rng):
    """An in-region surrogate query (regions from benchmarks/fits)."""
    kind = rng.randrange(3)
    if kind == 0:
        return "ttda", {"workload": "trapezoid",
                        "intervals": rng.randint(4, 128),
                        "n_pes": rng.randint(1, 16),
                        "network_latency": rng.randint(1, 50)}
    if kind == 1:
        return "hep", {"workload": "compute_loop",
                       "contexts": rng.randint(1, 16),
                       "iterations": rng.randint(8, 64),
                       "latency": rng.randint(1, 100)}
    return "cmmp", {"workload": "array_sum",
                    "iterations": rng.randint(10, 80),
                    "memory_time": rng.randint(1, 8),
                    "n_procs": rng.randint(1, 16)}


class ServeWorkload(Workload):
    name = "serve"
    primary = "cold"
    side_metrics = (("hit", "hit_sweep_ms"), ("predict", "predict_ms"))
    all_cpus = True
    round_len = 5

    def __init__(self, tracer):
        super().__init__(tracer)
        self.server = None
        self._stores = 0

    # -- lifecycle -------------------------------------------------------
    def setup(self):
        from repro.predict import PredictPlane
        from repro.serve import ServeClient, ServerThread

        self._stores += 1
        store = os.path.join(self.work, f"store{self._stores}.sqlite")
        self.server = ServerThread(
            workers=WORKERS, store_path=store,
            bench_dir=os.path.join(self.root, "benchmarks")).start()
        self.client = ServeClient(self.server.url, timeout=120.0)
        self.plane = PredictPlane(
            bench_dir=os.path.join(self.root, "benchmarks"))
        # Both pool workers are spawned lazily, by the first cells.
        warm = [{"machine": "ultracomputer",
                 "config": {"stages": 2, "combining": False},
                 "workload": {"requests_per_proc": index + 1}}
                for index in range(WORKERS)]
        sweep = self.client.submit({"callable": CALLABLE,
                                    "experiment": EXPERIMENT, "grid": warm})
        status = self._follow(sweep["id"], [])
        if status["state"] != "done" or status["ok"] != WORKERS:
            raise RuntimeError(f"serve warm-up sweep failed: {status}")
        self.cold_digests = {}

    def reset(self):
        """A fresh server and store, so a replay meets the same state."""
        self.close()
        self.setup()

    def close(self):
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- the op stream ---------------------------------------------------
    def ops(self):
        rng = random.Random(self.seed)
        seen = set()
        grids = []
        while True:
            grid = _cells(rng)
            keys = {json.dumps(cell, sort_keys=True) for cell in grid}
            if len(keys) < len(grid) or keys & seen:
                continue  # a cell the store already holds
            seen |= keys
            grids.append(grid)
            yield "cold", {"grid": grid}
            rest = [("hit", {"grid": rng.choice(grids)})
                    for _ in range(2)]
            for _ in range(2):
                machine, config = _query(rng)
                rest.append(("predict", {"machine": machine,
                                         "config": config}))
            rng.shuffle(rest)
            yield from rest

    def warmup(self):
        """Set-up already ran a sweep through both workers; one predict
        query warms the surrogate path (no digest to compare)."""
        machine, config = _query(random.Random(self.seed))
        self.client.predict(machine, config)
        return None

    def run(self, kind, spec):
        if kind == "predict":
            answer = self.client.predict(spec["machine"], spec["config"])
            return Outcome(ok=True, digest=digest_of(answer), cells=0,
                           extra={"answer": answer})
        events = []
        submitted = self.client.submit({"callable": CALLABLE,
                                        "experiment": EXPERIMENT,
                                        "grid": spec["grid"]})
        with self.tracer.span("serve.wait"):
            status = self._follow(submitted["id"], events)
        cells = len(spec["grid"])
        stats = status["stats"]
        errors = []
        if status["state"] != "done" or status["ok"] != cells:
            errors.append(f"sweep {status['state']}, {status['ok']}/"
                          f"{cells} ok")
        if kind == "cold" and stats["store_hits"]:
            errors.append(f"{stats['store_hits']} store hit(s) on new cells")
        if kind == "hit" and (status["cached"] != cells
                              or stats["executed"]):
            errors.append(f"repeat sweep: {status['cached']}/{cells} "
                          f"store hits, {stats['executed']} executed")
        values = [_normal(r["value"]) for r in status["records"]]
        return Outcome(
            ok=not errors, error="; ".join(errors) or None,
            digest=digest_of(values), cells=cells,
            events=(sum(v["events"] for v in values if v)
                    if kind == "cold" else 0),
            counts={"serve.cells_executed": stats["executed"],
                    "serve.cells_store_hit": stats["store_hits"],
                    "serve.requeued": stats["requeued"]},
            extra={"values": values, "events": events, "stats": stats})

    def _follow(self, sweep_id, events):
        """Read the sweep's event feed until it ends; returns the final
        status.  The feed is polled without blocking every
        :data:`POLL_SECONDS`: a long poll is answered on the server's
        50 ms tick, which would round every op time up to that tick."""
        since = 0
        deadline = time.monotonic() + 120.0
        while True:
            chunk = self.client.events(sweep_id, since=since, timeout=0)
            events.extend(chunk["events"])
            since = chunk["next"]
            if chunk["state"] in ("done", "aborted"):
                return self.client.status(sweep_id)
            if time.monotonic() > deadline:
                raise TimeoutError(f"sweep {sweep_id} still "
                                   f"{chunk['state']} after 120 s")
            time.sleep(POLL_SECONDS)

    def check(self, record):
        """Check one answer against the program run in-process, then
        drop the served values (the digest stays)."""
        from servecells import run_cell

        out = record.outcome
        spec = record.spec
        if not out.ok:
            return
        if record.kind == "predict":
            want = _normal(self.plane.query(spec["machine"], spec["config"]))
            same = out.extra.pop("answer") == want
        else:
            values = out.extra.pop("values")
            key = json.dumps(spec["grid"], sort_keys=True)
            if record.kind == "cold":
                same = values == [_normal(run_cell(c)) for c in spec["grid"]]
                self.cold_digests[key] = out.digest
            else:
                same = out.digest == self.cold_digests.get(key)
        if not same:
            out.ok = False
            out.error = f"{record.kind} answer differs from in-process run"

    # -- per-layer -------------------------------------------------------
    def layers(self):
        from repro.serve import ServeClient, SqliteStore

        tracer = self.tracer
        tracer.wrap(ServeClient, "submit", "serve.submit")
        tracer.wrap(SqliteStore, "get", "serve.store_get")
        tracer.wrap(SqliteStore, "put", "serve.store_put")

    def layer_extras(self, records, calib):
        """Latencies read from the sweeps' event streams, the health
        route and the in-process surrogate."""
        from repro.obs.live import parse_prometheus

        waits, cells = [], []
        backups = wins = 0
        for r in records:
            if r.kind != "cold" or not r.outcome.ok:
                continue
            factor = r.factor(calib)
            begin = None
            assigned = {}
            for event in r.outcome.extra["events"]:
                if event["kind"] == "sweep_begin":
                    begin = event["t"]
                elif event["kind"] == "serve_assign":
                    assigned.setdefault(event["index"], event["t"])
                elif (event["kind"] == "sweep_task"
                      and not event.get("cached")):
                    cells.append(1000.0 * event["wall"] * factor)
            if begin is not None:
                waits += [1000.0 * (t - begin) * factor
                          for t in assigned.values()]
            backups += r.outcome.extra["stats"]["backups"]
            wins += r.outcome.extra["stats"]["backup_wins"]
        out = []
        if waits:
            out.append(("serve.queue_wait_ms", statistics.median(waits),
                        "ms"))
        if cells:
            out.append(("serve.cell_ms", statistics.median(cells), "ms"))
        out.append(("serve.backup_wasted_frac",
                    (backups - wins) / backups if backups else 0.0, "frac"))
        out.append(("serve.http_ms", self._median_ms(
            self.client.health, calib), "ms"))
        queries = [(r.spec["machine"], r.spec["config"]) for r in records
                   if r.kind == "predict"]
        out.append(("predict.query_us", 1000.0 * self._median_ms(
            lambda: [self.plane.query(m, c) for m, c in queries],
            calib) / max(1, len(queries)), "us"))
        metrics = parse_prometheus(self.client.metrics())
        self.spawned = int(metrics.get(("repro_workers_spawned_total", ()),
                                       0))
        return out

    def extra_counts(self):
        return {"serve.workers_spawned": self.spawned}

    def _median_ms(self, call, calib, repeat=20):
        times = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            call()
            t1 = time.perf_counter()
            calib.sample()
            times.append(1000.0 * (t1 - t0) * calib.factor(t0, t1))
        return statistics.median(times)

