"""HTTP client for a running ``repro serve`` instance.

:class:`ServeClient` is a thin stdlib (:mod:`http.client`) wrapper used
by the ``repro submit`` / ``repro sweeps`` CLI, by ``repro bench
--remote URL`` (one of :func:`repro.exp.bench.run_suite`'s three cell
sources, which assembles and writes the tables locally, so a remote
bench run produces byte-identical ``benchmarks/results/*.txt`` files)
and by the tests.
"""

import http.client
import json
import time
import urllib.parse

__all__ = ["ServeClient", "ServeError"]


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
