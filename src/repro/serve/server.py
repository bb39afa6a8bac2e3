"""The ``repro serve`` HTTP/JSON front end (stdlib asyncio, hand-rolled
HTTP/1.1).

One asyncio event loop accepts connections and parses requests; all
sweep work happens in the :class:`~repro.serve.scheduler.SweepScheduler`
thread and its worker pool, so a handler only ever takes the scheduler
lock for a snapshot — the server stays responsive while a thousand cells
simulate.  Keeping the transport on stdlib primitives mirrors the
deployment constraint that the store and scheduler already honor: no
dependencies beyond the interpreter.

API (see docs/SERVICE.md for curl examples)::

    GET  /healthz             liveness + pool/queue stats
    GET  /metrics             Prometheus text exposition (live telemetry)
    GET  /store/stats         durable store statistics
    GET  /predict             fitted machines + regions (surrogate)
    POST /predict             answer a machine query from the analytic
                              surrogate (409 when outside the fitted
                              region, unless "extrapolate": true)
    POST /sweeps              submit a sweep request -> {"id": ...}
    GET  /sweeps              all sweeps (summaries)
    GET  /sweeps/<id>         one sweep: status + completed records
    GET  /sweeps/<id>/events  long-poll progress events (?since=N
                              &timeout=S); returns when new events
                              arrive, the sweep finishes, or S elapses
    GET  /sweeps/<id>/table   the assembled result table (text/plain)
    GET  /sweeps/<id>/trace   Chrome/Perfetto trace of the whole sweep
    POST /shutdown            graceful stop (tests / CI)
"""

import asyncio
import json
import threading
import time
import urllib.parse

from ..predict import OutOfRegionError, PredictError, PredictPlane
from .protocol import DEFAULT_PORT, ProtocolError
from .scheduler import SweepScheduler
from .store import open_store
from .trace import sweep_trace

__all__ = ["ServeApp", "ServerThread", "run_server"]

#: Long-poll defaults/caps (seconds).
EVENTS_TIMEOUT = 25.0
EVENTS_TIMEOUT_CAP = 60.0
#: How often a long-poller re-checks the (thread-owned) event list.
POLL_INTERVAL = 0.05
MAX_BODY = 8 * 1024 * 1024

_REASONS = {200: "OK", 202: "Accepted", 204: "No Content",
            400: "Bad Request", 404: "Not Found", 405: "Method Not "
            "Allowed", 409: "Conflict", 413: "Payload Too Large",
            500: "Internal Server Error"}


class ServeApp:
    """Routes HTTP requests onto a running scheduler, and answers
    ``/predict`` from the fitted machine surrogates."""

    def __init__(self, scheduler, store=None):
        self.scheduler = scheduler
        self.store = store
        #: The analytic-surrogate query surface (fit artifacts are loaded
        #: lazily on first use, so an unfitted checkout costs nothing).
        self.plane = PredictPlane(bench_dir=scheduler.bench_dir)
        self.stopping = asyncio.Event()
        self.metrics = scheduler.metrics
        self.metrics.counter("http_requests_total",
                             "HTTP requests served, by route template")
        self.metrics.histogram("http_request_seconds",
                               "HTTP request latency, by route template")
        self.metrics.counter("predict_requests_total",
                             "Analytic surrogate queries (POST /predict)")
        self.metrics.counter(
            "predict_out_of_region_total",
            "Surrogate answers refused: outside the fitted region")
        if store is not None:
            self.metrics.gauge_fn(
                "store_entries", "Rows in the content-addressed store",
                lambda: store.stats().get("entries", 0))
            self.metrics.gauge_fn(
                "store_bytes", "Payload bytes in the store",
                lambda: store.stats().get("bytes", 0))

    @staticmethod
    def _route_label(method, path):
        """Collapse sweep ids so the route label set stays bounded."""
        parts = [p for p in path.split("/") if p]
        if parts[:1] == ["sweeps"] and len(parts) >= 2:
            parts = ["sweeps", "*"] + parts[2:]
        return f"{method} /" + "/".join(parts)

    # -- transport -----------------------------------------------------
    async def handle(self, reader, writer):
        try:
            request_line = await reader.readline()
            if not request_line:
                return
            try:
                method, target, _version = (
                    request_line.decode("latin-1").split())
            except ValueError:
                await self._send(writer, 400, {"error": "bad request line"})
                return
            headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", 0) or 0)
            if length > MAX_BODY:
                await self._send(writer, 413,
                                 {"error": "request body too large"})
                return
            body = await reader.readexactly(length) if length else b""
            parsed = urllib.parse.urlsplit(target)
            query = {k: v[-1] for k, v in
                     urllib.parse.parse_qs(parsed.query).items()}
            label = self._route_label(method, parsed.path)
            started = time.perf_counter()
            try:
                await self._route(writer, method, parsed.path, query, body)
            except ProtocolError as exc:
                await self._send(writer, 400, {"error": str(exc)})
            except Exception as exc:  # noqa: BLE001 — report, don't die
                await self._send(writer, 500,
                                 {"error": f"{type(exc).__name__}: {exc}"})
            finally:
                self.metrics.inc("http_requests_total", route=label)
                self.metrics.observe("http_request_seconds",
                                     time.perf_counter() - started,
                                     route=label)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _send(self, writer, status, payload, content_type=None):
        if isinstance(payload, (dict, list)):
            body = (json.dumps(payload, sort_keys=True, default=repr)
                    + "\n").encode()
            content_type = content_type or "application/json"
        else:
            body = (payload or "").encode()
            content_type = content_type or "text/plain; charset=utf-8"
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n")
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # -- routing -------------------------------------------------------
    async def _route(self, writer, method, path, query, body):
        parts = [p for p in path.split("/") if p]
        if path == "/healthz" and method == "GET":
            pool = self.scheduler.pool_stats()
            await self._send(writer, 200,
                             {"ok": True, "pool": pool,
                              "queue_depth": pool["queue_depth"]})
        elif path == "/metrics" and method == "GET":
            await self._send(
                writer, 200, self.metrics.render(),
                content_type="text/plain; version=0.0.4; charset=utf-8")
        elif path == "/store/stats" and method == "GET":
            if self.store is None:
                await self._send(writer, 404, {"error": "no store attached"})
            else:
                await self._send(writer, 200, self.store.stats())
        elif path == "/predict" and method == "GET":
            await self._send(writer, 200, self.plane.describe())
        elif path == "/predict" and method == "POST":
            await self._predict(writer, body)
        elif path == "/shutdown" and method == "POST":
            await self._send(writer, 200, {"ok": True,
                                           "stopping": True})
            self.stopping.set()
        elif parts[:1] == ["sweeps"] and len(parts) == 1:
            if method == "POST":
                await self._submit(writer, body)
            elif method == "GET":
                await self._send(writer, 200,
                                 {"sweeps": self.scheduler.list_sweeps()})
            else:
                await self._send(writer, 405, {"error": "GET or POST"})
        elif parts[:1] == ["sweeps"] and len(parts) == 2 and method == "GET":
            status = self.scheduler.status(parts[1])
            if status is None:
                await self._send(writer, 404,
                                 {"error": f"no sweep {parts[1]!r}"})
            else:
                await self._send(writer, 200, status)
        elif (parts[:1] == ["sweeps"] and len(parts) == 3
                and parts[2] == "events" and method == "GET"):
            await self._events(writer, parts[1], query)
        elif (parts[:1] == ["sweeps"] and len(parts) == 3
                and parts[2] == "table" and method == "GET"):
            await self._table(writer, parts[1])
        elif (parts[:1] == ["sweeps"] and len(parts) == 3
                and parts[2] == "trace" and method == "GET"):
            payload = sweep_trace(self.scheduler, parts[1])
            if payload is None:
                await self._send(writer, 404,
                                 {"error": f"no sweep {parts[1]!r}"})
            else:
                await self._send(writer, 200, payload)
        else:
            await self._send(writer, 404, {"error": f"no route for "
                                           f"{method} {path}"})

    async def _submit(self, writer, body):
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except ValueError as exc:
            raise ProtocolError(f"request body is not JSON: {exc}") from exc
        loop = asyncio.get_running_loop()
        # Resolution imports bench modules — run it off the event loop.
        sweep_id = await loop.run_in_executor(
            None, self.scheduler.submit, payload)
        await self._send(writer, 202, {
            "id": sweep_id,
            "status_url": f"/sweeps/{sweep_id}",
            "events_url": f"/sweeps/{sweep_id}/events",
            "table_url": f"/sweeps/{sweep_id}/table",
            "trace_url": f"/sweeps/{sweep_id}/trace",
        })

    async def _predict(self, writer, body):
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except ValueError as exc:
            raise ProtocolError(f"request body is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ProtocolError("predict request body must be a JSON "
                                "object")
        machine = payload.get("machine")
        if not isinstance(machine, str) or not machine:
            raise ProtocolError("predict request needs 'machine'")
        config = payload.get("config", {})
        if not isinstance(config, dict):
            raise ProtocolError("'config' must be a JSON object")
        extrapolate = payload.get("extrapolate", False)
        if not isinstance(extrapolate, bool):
            raise ProtocolError("'extrapolate' must be a boolean")
        self.metrics.inc("predict_requests_total")
        try:
            answer = self.plane.query(machine, config,
                                      extrapolate=extrapolate)
        except OutOfRegionError as exc:
            # Counted, so the refusal rate is observable.
            self.metrics.inc("predict_out_of_region_total")
            await self._send(writer, 409,
                             {"error": str(exc), "region": exc.region})
            return
        except PredictError as exc:
            raise ProtocolError(str(exc)) from exc
        await self._send(writer, 200, answer)

    async def _events(self, writer, sweep_id, query):
        try:
            since = int(query.get("since", 0))
            timeout = min(EVENTS_TIMEOUT_CAP,
                          float(query.get("timeout", EVENTS_TIMEOUT)))
        except ValueError as exc:
            raise ProtocolError(f"bad query parameter: {exc}") from exc
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            events, state = self.scheduler.events_after(sweep_id, since)
            if events is None:
                await self._send(writer, 404,
                                 {"error": f"no sweep {sweep_id!r}"})
                return
            finished = state in ("done", "aborted")
            if events or finished or loop.time() >= deadline:
                await self._send(writer, 200, {
                    "events": events,
                    "next": since + len(events),
                    "state": state,
                })
                return
            await asyncio.sleep(POLL_INTERVAL)

    async def _table(self, writer, sweep_id):
        status = self.scheduler.status(sweep_id, include_records=False)
        if status is None:
            await self._send(writer, 404,
                             {"error": f"no sweep {sweep_id!r}"})
            return
        if status["state"] not in ("done", "aborted"):
            await self._send(writer, 409,
                             {"error": "sweep still running",
                              "state": status["state"]})
            return
        text = self.scheduler.table_text(sweep_id)
        if text is None:
            await self._send(writer, 409,
                             {"error": "no table (failed cells or no "
                              "assembler)", "state": status["state"]})
            return
        await self._send(writer, 200, text + "\n")

    # -- lifecycle -----------------------------------------------------
    async def main(self, host, port, ready=None, banner=None):
        """Serve until :attr:`stopping` is set; returns the bound port."""
        server = await asyncio.start_server(self.handle, host, port)
        bound = server.sockets[0].getsockname()[1]
        if ready is not None:
            ready(bound)
        if banner is not None:
            banner(bound)
        async with server:
            await self.stopping.wait()
        return bound


def run_server(host="127.0.0.1", port=DEFAULT_PORT, workers=None,
               store_path=None, no_store=False, timeout=None,
               retries=None, bench_dir=None, bus=None, err=None,
               ready=None):
    """Blocking entry point behind ``repro serve``.

    Builds the store and scheduler, serves until SIGINT or a POST to
    ``/shutdown``, then drains the pool.  ``ready(port)`` (tests) fires
    once the socket is bound.
    """
    import sys

    from ..exp.engine import DEFAULT_RETRIES

    err = err if err is not None else sys.stderr
    store = None if no_store else open_store(store_path)
    scheduler = SweepScheduler(
        store=store, workers=workers, timeout=timeout,
        retries=DEFAULT_RETRIES if retries is None else retries,
        bench_dir=bench_dir, bus=bus)
    app = ServeApp(scheduler, store=store)

    def banner(bound):
        root = getattr(store, "path", getattr(store, "root", None))
        print(f"repro serve: http://{host}:{bound}  "
              f"(workers={scheduler.size}, "
              f"store={root if store is not None else 'off'})", file=err)

    async def _main():
        task = asyncio.ensure_future(
            app.main(host, port, ready=ready, banner=banner))
        await task
        return task.result()

    scheduler.start()
    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("repro serve: interrupted, draining workers", file=err)
    finally:
        scheduler.close()
        if store is not None and hasattr(store, "close"):
            store.close()
    return 0


class ServerThread:
    """A serve instance on a background thread (tests, CI helpers).

    ::

        with ServerThread(store_path=tmp, workers=2) as handle:
            client = ServeClient(handle.url)
    """

    def __init__(self, host="127.0.0.1", port=0, **kwargs):
        self.host = host
        self.requested_port = port
        self.kwargs = kwargs
        self.port = None
        self._bound = threading.Event()
        self._thread = None

    @property
    def url(self):
        return f"http://{self.host}:{self.port}"

    def start(self):
        def _ready(port):
            self.port = port
            self._bound.set()

        self._thread = threading.Thread(
            target=run_server,
            kwargs=dict(host=self.host, port=self.requested_port,
                        ready=_ready, **self.kwargs),
            daemon=True, name="repro-serve")
        self._thread.start()
        if not self._bound.wait(timeout=30.0):
            raise RuntimeError("repro serve did not bind within 30s")
        return self

    def stop(self, timeout=15.0):
        if self.port is not None:
            from .client import ServeClient

            try:
                ServeClient(self.url).shutdown()
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()
