"""Cache keys: content hashes invalidated by code change.

A finished run is stored under ``key = sha256(experiment name,
canonical config JSON, code version)``.  The code version is a content
fingerprint of the source that produced the result — the :mod:`repro`
package tree plus any ``code_paths`` the experiment names (its benchmark
module, typically) — so editing a model or a bench module invalidates
exactly the runs whose code changed, while re-running an untouched sweep
is pure cache hits.

The entries themselves live in the SQLite store
(:mod:`repro.serve.store`) that ``repro bench``, ``repro serve`` and
``repro cache`` share.  Only successful runs are stored; timeouts and
errors are always retried on the next invocation.
"""

import functools
import hashlib
import json
import os

__all__ = ["code_fingerprint", "config_key", "invalidate_fingerprints"]


def _iter_source_files(path):
    """Yield the .py files under ``path`` (or ``path`` itself), sorted."""
    if os.path.isfile(path):
        yield path
        return
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


@functools.lru_cache(maxsize=None)
def code_fingerprint(*paths):
    """A stable hash of the *contents* of the given source files/trees.

    Content-based (not mtime-based) so checkouts and CI machines agree;
    memoized per process because the engine asks once per run.
    """
    digest = hashlib.sha256()
    for path in paths:
        root = os.path.abspath(path)
        for filename in _iter_source_files(root):
            digest.update(os.path.relpath(filename, root).encode())
            with open(filename, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def invalidate_fingerprints():
    """Drop every memoized :func:`code_fingerprint` result.

    The memoization is per process-lifetime, which is wrong the moment
    source files change underneath a live process — a long-running
    driver (or a test that edits fixture code on disk) would keep
    serving cache entries stamped with a stale code version.  Call this
    after any on-disk source change; ``repro bench`` calls it once per
    suite invocation.
    """
    code_fingerprint.cache_clear()


def repro_fingerprint():
    """Fingerprint of the repro package source itself."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return code_fingerprint(package_root)


def config_key(experiment_name, config, code_version):
    """The cache key: content hash of (experiment, config, code-version)."""
    blob = json.dumps(
        {"experiment": experiment_name, "config": config,
         "code_version": code_version},
        sort_keys=True, separators=(",", ":"), default=repr,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:32]
