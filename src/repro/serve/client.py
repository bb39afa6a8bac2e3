"""HTTP client for a running ``repro serve`` instance.

:class:`ServeClient` is a thin stdlib (:mod:`http.client`) wrapper used
by the ``repro submit`` / ``repro sweeps`` CLI and the tests;
:func:`remote_suite` is the engine behind ``repro bench --remote URL``:
it submits each selected benchmark to the server, streams progress from
the long-poll event feed, then assembles and writes the result tables
*locally* through the same ``harness.write_table`` path the in-process
suite uses — so a remote bench run produces byte-identical
``benchmarks/results/*.txt`` files.
"""

import http.client
import importlib
import json
import os
import sys
import time
import urllib.parse

from ..exp.bench import build_experiment, find_bench_dir, wall_text
from .protocol import ProtocolError

__all__ = ["ServeClient", "ServeError", "remote_suite"]


class ServeError(RuntimeError):
    """A non-2xx answer from the server (carries status + body)."""

    def __init__(self, status, payload):
        self.status = status
        self.payload = payload
        detail = (payload.get("error") if isinstance(payload, dict)
                  else payload)
        super().__init__(f"HTTP {status}: {detail}")


class ServeClient:
    """Talk to one ``repro serve`` endpoint.

    Every method opens a fresh connection (the server answers with
    ``Connection: close``); ``timeout`` bounds any single request, so
    long-poll calls pass their own slack on top of the poll window.
    """

    def __init__(self, url, timeout=30.0):
        parsed = urllib.parse.urlsplit(
            url if "//" in url else f"http://{url}")
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 80
        self.timeout = timeout

    def _request(self, method, path, body=None, timeout=None):
        conn = http.client.HTTPConnection(
            self.host, self.port,
            timeout=self.timeout if timeout is None else timeout)
        try:
            data = (json.dumps(body, sort_keys=True, default=repr)
                    if body is not None else None)
            conn.request(method, path, body=data,
                         headers={"Content-Type": "application/json"}
                         if data else {})
            response = conn.getresponse()
            raw = response.read()
            content_type = response.getheader("Content-Type", "")
            if "json" in content_type:
                payload = json.loads(raw.decode("utf-8") or "null")
            else:
                payload = raw.decode("utf-8")
            if response.status >= 400:
                raise ServeError(response.status, payload)
            return payload
        finally:
            conn.close()

    # -- one method per route ------------------------------------------
    def health(self):
        return self._request("GET", "/healthz")

    def metrics(self):
        """The raw Prometheus text exposition (parse it with
        :func:`repro.obs.live.parse_prometheus`)."""
        return self._request("GET", "/metrics")

    def store_stats(self):
        return self._request("GET", "/store/stats")

    def submit(self, request):
        """POST a sweep request dict; returns ``{"id", ...}``."""
        return self._request("POST", "/sweeps", body=request)

    def sweeps(self):
        return self._request("GET", "/sweeps")["sweeps"]

    def status(self, sweep_id):
        return self._request("GET", f"/sweeps/{sweep_id}")

    def events(self, sweep_id, since=0, timeout=25.0):
        """One long-poll turn; returns ``{"events", "next", "state"}``."""
        query = urllib.parse.urlencode(
            {"since": since, "timeout": timeout})
        return self._request("GET", f"/sweeps/{sweep_id}/events?{query}",
                             timeout=timeout + 10.0)

    def table(self, sweep_id):
        """The assembled table text of a finished sweep."""
        return self._request("GET", f"/sweeps/{sweep_id}/table")

    def trace(self, sweep_id):
        """The Chrome-trace payload (a dict) of a sweep."""
        return self._request("GET", f"/sweeps/{sweep_id}/trace")

    def predict_describe(self):
        """Fitted machines + per-workload regions (``GET /predict``)."""
        return self._request("GET", "/predict")

    def predict(self, machine, config=None, extrapolate=False):
        """Answer a machine query from the server's analytic surrogate.

        Raises :class:`ServeError` with status 409 when the query lies
        outside the fitted region and ``extrapolate`` is not set."""
        body = {"machine": machine, "config": config or {}}
        if extrapolate:
            body["extrapolate"] = True
        return self._request("POST", "/predict", body=body)

    def shutdown(self):
        return self._request("POST", "/shutdown")

    # -- conveniences ---------------------------------------------------
    def wait(self, sweep_id, timeout=None, on_event=None):
        """Follow the event feed until the sweep finishes; returns the
        final status snapshot.  ``on_event(event)`` sees every progress
        event exactly once."""
        deadline = (time.monotonic() + timeout) if timeout else None
        since = 0
        while True:
            poll = 25.0
            if deadline is not None:
                poll = min(poll, max(0.1, deadline - time.monotonic()))
            chunk = self.events(sweep_id, since=since, timeout=poll)
            if on_event is not None:
                for event in chunk["events"]:
                    on_event(event)
            since = chunk["next"]
            if chunk["state"] in ("done", "aborted"):
                return self.status(sweep_id)
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"sweep {sweep_id} still {chunk['state']} after "
                    f"{timeout}s")

    def run(self, request, timeout=None, on_event=None):
        """Submit + wait; returns the final status snapshot."""
        submitted = self.submit(request)
        return self.wait(submitted["id"], timeout=timeout,
                         on_event=on_event)


def _progress_printer(name, err):
    def on_event(event):
        kind = event.get("kind", "")
        if kind in ("serve_store_hit", "serve_predict_hit", "sweep_task",
                    "serve_backup", "serve_requeue", "sweep_end"):
            print(f"  [{name}] {kind}: {event.get('detail', '')}",
                  file=err)
    return on_event


def remote_suite(url, only=None, bench_dir=None, err=None, faults=None,
                 no_store=False, timeout=None, verbose=False):
    """Run the benchmark suite against a remote ``repro serve``.

    The server simulates (or answers from its store); tables are
    assembled and written locally so ``benchmarks/results/*.txt`` and
    ``BENCH_results.json`` come out exactly as an in-process
    ``repro bench`` run would produce them.  Returns the aggregate
    telemetry dict (same shape as :func:`repro.exp.bench.run_suite`).

    Walls time cold work only, as in ``run_suite``: an experiment with
    any cell answered from the server's store gets ``wall_seconds:
    null`` (and "cached" on ``err``), and so does the suite ``meta``
    when any experiment had one.  Each experiment records its
    ``cold_cells`` and ``cache_hits``; ``meta.cells`` sums them.
    """
    err = err if err is not None else sys.stderr
    client = ServeClient(url)
    bench_dir = find_bench_dir(bench_dir)
    os.environ["REPRO_BENCH_DIR"] = bench_dir
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    run_all = importlib.import_module("run_all")
    harness = importlib.import_module("harness")
    from ..exp.tables import table_rows

    if isinstance(faults, str):
        with open(faults, "r", encoding="utf-8") as fh:
            faults = json.load(fh)

    telemetry = []
    failures = []
    cells = {"cold": 0, "cached": 0}
    suite_start = time.time()
    for module_name, runners in run_all.EXPERIMENTS:
        for fn_name, out_name in runners:
            if only is not None and (only not in module_name
                                     and only not in out_name):
                continue
            request = {"experiment": out_name}
            if faults:
                request["faults"] = faults
            if no_store:
                request["no_store"] = True
            if timeout is not None:
                request["timeout"] = timeout
            start = time.time()
            try:
                status = client.run(
                    request,
                    on_event=(_progress_printer(out_name, err)
                              if verbose else None))
            except (ProtocolError, ServeError) as exc:
                print(f"[FAILED] {out_name}: {exc}", file=err)
                failures.append({"experiment": out_name,
                                 "module": module_name,
                                 "rows": [{"error": str(exc)}]})
                continue
            wall = time.time() - start
            records = status.get("records", [])
            failed = [r for r in records if r["status"] != "ok"]
            if status["state"] != "done" or failed:
                for row in failed:
                    print(f"[FAILED] {out_name}[{row['index']}] "
                          f"{row['status']} after {row['attempts']} "
                          f"attempt(s):\n{row['error']}", file=err)
                failures.append({"experiment": out_name,
                                 "module": module_name,
                                 "rows": failed or records})
                continue
            # Assemble locally through the experiment's own table
            # builder; values came over the wire, the layout is ours.
            module = importlib.import_module(module_name)
            experiment, _is_sweep = build_experiment(module, fn_name,
                                                     out_name)
            table = experiment.table([r["value"] for r in records])
            cached = status.get("cached", 0)
            cells["cold"] += len(records) - cached
            cells["cached"] += cached
            wall = None if cached else round(wall, 3)
            counts = {"cold_cells": len(records) - cached,
                      "cache_hits": cached, "grid": len(records)}
            harness.write_table(
                table, out_name,
                meta={"wall_seconds": wall, **counts, "remote": url})
            print(f"[{wall_text(wall)}] {out_name} "
                  f"({cached}/{len(records)} store hits, remote)\n",
                  file=err)
            telemetry.append({
                "experiment": out_name,
                "module": module_name,
                "title": table.title,
                "rows": len(table.rows),
                "columns": list(table.columns),
                "wall_seconds": wall,
                **counts,
                "data": table_rows(table),
            })

    aggregate = {
        "experiments": telemetry,
        "failures": failures,
        "meta": {
            "remote": url,
            "wall_seconds": (None if cells["cached"] else
                             round(time.time() - suite_start, 3)),
            "cells": cells,
        },
    }
    aggregate_path = os.path.join(os.path.dirname(bench_dir),
                                  "BENCH_results.json")
    with open(aggregate_path, "w", encoding="utf-8") as fh:
        json.dump(aggregate, fh, indent=2, sort_keys=True, default=repr)
        fh.write("\n")
    print(f"[{wall_text(aggregate['meta']['wall_seconds'])}] total -> "
          f"{aggregate_path}"
          + (f"  [{len(failures)} FAILED]" if failures else ""), file=err)
    return aggregate
