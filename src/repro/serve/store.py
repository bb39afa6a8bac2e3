"""The durable content-addressed result store behind ``repro bench``,
``repro serve`` and ``repro cache``.

A *store* maps ``(experiment, key)`` — where ``key`` is the
:func:`repro.exp.cache.config_key` content hash of (experiment, config,
code-version) — to a finished run value.  :class:`SqliteStore` keeps
them in a single SQLite file with persistent hit counters and
timestamps.  One writer at a time (WAL mode), safe across threads behind
an internal lock, and safe to share between processes: a ``repro bench``
and a ``repro serve`` may use one store at the same time.  Lookups are a
primary-key probe, and maintenance (``stats`` / ``prune`` / ``clear``)
runs as SQL aggregates, never a directory walk.

The store's ``get``/``put`` pair is the ``cache=`` interface of
:func:`repro.exp.engine.run_experiment`, and the sweep scheduler reads
and writes through it too, so the bench and the service answer repeat
queries from the same entries.  :func:`open_store` opens a path (a
``*.sqlite``/``*.db`` file, or ``<dir>/store.sqlite`` for a directory),
and :func:`default_store_path` resolves ``$REPRO_STORE`` falling back
to ``~/.cache/repro``.

Values round-trip through canonical JSON (``sort_keys`` +
``default=repr``), so a table assembled from stored values is
byte-identical to one assembled from fresh runs.
"""

import json
import os
import sqlite3
import threading
import time

__all__ = ["SqliteStore", "default_store_path", "open_store"]

#: Name of the SQLite file created inside a store *directory*.
STORE_FILENAME = "store.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    experiment   TEXT NOT NULL,
    key          TEXT NOT NULL,
    config       TEXT NOT NULL,
    code_version TEXT,
    value        TEXT NOT NULL,
    created      REAL NOT NULL,
    hits         INTEGER NOT NULL DEFAULT 0,
    last_hit     REAL,
    PRIMARY KEY (experiment, key)
);
"""


def default_store_path():
    """The store location: ``$REPRO_STORE`` or ``~/.cache/repro``."""
    env = os.environ.get("REPRO_STORE")
    if env:
        return os.path.abspath(env)
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def open_store(path=None):
    """Open the store at ``path`` (default :func:`default_store_path`).

    A ``*.sqlite``/``*.db`` path or an existing file opens as itself;
    any other path is a directory holding ``store.sqlite``.
    """
    path = os.path.abspath(path or default_store_path())
    if path.endswith((".sqlite", ".db")) or os.path.isfile(path):
        return SqliteStore(path)
    return SqliteStore(os.path.join(path, STORE_FILENAME))


class SqliteStore:
    """SQLite-backed content-addressed result store."""

    def __init__(self, path):
        self.path = os.path.abspath(path)
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._db = sqlite3.connect(self.path, check_same_thread=False)
        with self._lock:
            self._db.execute("PRAGMA journal_mode=WAL")
            # With WAL, NORMAL syncs at checkpoints rather than on every
            # commit: the file never corrupts, and a power loss can drop
            # only the last commits of values that can be recomputed.
            self._db.execute("PRAGMA synchronous=NORMAL")
            self._db.execute(_SCHEMA)
            self._db.commit()

    # -- the engine cache interface ------------------------------------
    def get(self, experiment_name, key):
        """(found, value) with persistent hit accounting."""
        with self._lock:
            row = self._db.execute(
                "SELECT value FROM results WHERE experiment=? AND key=?",
                (experiment_name, key)).fetchone()
            if row is None:
                self.misses += 1
                return False, None
            self._db.execute(
                "UPDATE results SET hits=hits+1, last_hit=? "
                "WHERE experiment=? AND key=?",
                (time.time(), experiment_name, key))
            self._db.commit()
        self.hits += 1
        return True, json.loads(row[0])

    def put(self, experiment_name, key, config, code_version, value):
        """Persist one successful run value (idempotent upsert)."""
        blob = json.dumps(value, sort_keys=True, default=repr)
        config_blob = json.dumps(config, sort_keys=True, default=repr)
        with self._lock:
            self._db.execute(
                "INSERT INTO results (experiment, key, config, "
                "code_version, value, created) VALUES (?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(experiment, key) DO UPDATE SET value=?",
                (experiment_name, key, config_blob, code_version, blob,
                 time.time(), blob))
            self._db.commit()

    # -- maintenance (the `repro cache` surface) -----------------------
    def stats(self):
        """Aggregate store statistics, including persistent hit counts."""
        with self._lock:
            total, total_bytes, total_hits, oldest = self._db.execute(
                "SELECT COUNT(*), COALESCE(SUM(LENGTH(value)), 0), "
                "COALESCE(SUM(hits), 0), MIN(created) FROM results"
            ).fetchone()
            per_experiment = {
                name: {"entries": entries, "bytes": size, "hits": hits}
                for name, entries, size, hits in self._db.execute(
                    "SELECT experiment, COUNT(*), SUM(LENGTH(value)), "
                    "SUM(hits) FROM results GROUP BY experiment "
                    "ORDER BY experiment")
            }
        return {
            "backend": "sqlite",
            "root": self.path,
            "entries": total,
            "bytes": total_bytes,
            "hits": total_hits,
            "experiments": per_experiment,
            # Clamped at zero: a backwards clock step between write and
            # stat must not report a negative age.
            "oldest_age_seconds": (None if oldest is None
                                   else round(max(0.0, time.time() - oldest),
                                              1)),
            "session": {"hits": self.hits, "misses": self.misses},
        }

    def prune(self, older_than_seconds):
        """Delete entries created before the cutoff; returns rows removed.

        ``older_than_seconds`` must be non-negative — a negative window
        (e.g. a mis-parsed ``--older-than``) would place the cutoff in
        the future and delete entries written this instant.  The cutoff
        is additionally clamped to *now*, so a row whose ``created``
        stamp lies in the future (the wall clock stepped backwards since
        the write) has its age treated as zero, never as prunable.
        """
        if not older_than_seconds >= 0:
            raise ValueError(
                f"older_than_seconds must be >= 0, got {older_than_seconds!r}")
        now = time.time()
        cutoff = min(now - older_than_seconds, now)
        with self._lock:
            cursor = self._db.execute(
                "DELETE FROM results WHERE created < ?", (cutoff,))
            self._db.commit()
        return cursor.rowcount

    def clear(self):
        """Delete every entry; returns rows removed."""
        with self._lock:
            cursor = self._db.execute("DELETE FROM results")
            self._db.commit()
        return cursor.rowcount

    def close(self):
        with self._lock:
            self._db.close()
