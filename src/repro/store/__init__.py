"""Crash-safe persistent result store (content-addressed, verified).

The serving layer of the reproduction: every completed
:class:`~repro.api.session.RunResult` can be filed under its
fingerprint and served back byte-identically without re-executing the
engines — "compute once, serve millions of identical queries".
:class:`ResultStore` owns durability (atomic temp-file + fsync +
rename writes) and integrity (sha256 checksums, validity envelopes,
verify-before-serve with quarantine); :class:`~repro.api.Session`
threads it through ``run(store=...)`` / ``run_many(store=...)``; the
``repro results`` CLI lists, inspects, verifies, and replays what is
stored.  See ``docs/robustness.md`` ("Result store failure modes")
for the failure-mode contract.
"""

from .._lazy import attach

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "ResultStore": "store",
    "StoreLookup": "store",
    "VerifyReport": "store",
    "resolve_store": "store",
    "SCHEMA_VERSION": "envelope",
    "current_envelope": "envelope",
    "registry_contents_hash": "envelope",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = attach(__name__, _EXPORTS)
