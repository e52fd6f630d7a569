"""repro.api — the declarative request/response facade.

Every run path in the reproduction is addressable through three
objects:

* :class:`~repro.api.spec.ExperimentSpec` — *what* to run: a frozen,
  JSON-round-trippable parameter set, registered by name
  (:func:`register_experiment` / :func:`available_experiments`);
* :class:`~repro.api.config.RunConfig` — *how* to run it: engine,
  comparator, recorder policy, seed, replications, with
  :meth:`~repro.api.config.RunConfig.resolve` as the single place
  defaults are applied;
* :class:`~repro.api.session.Session` — *where* it runs: the facade
  owning the config and the process-level kernel caches, exposing
  ``run(spec)`` → :class:`~repro.api.session.RunResult` and
  ``run_many(specs)`` for batched submission against shared tables.

The legacy ``repro.experiments`` functions are byte-identical wrappers
over this layer, and the CLI (``repro run <experiment> --param k=v``)
is a thin shell over the registry.  See ``docs/api.md``.
"""

from .._lazy import attach

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "BudgetSweepSpec": "specs",
    "DeadlineFrontierSpec": "specs",
    "DeadlineSweepSpec": "specs",
    "ExperimentSpec": "spec",
    "Fig2Spec": "specs",
    "Fig3Spec": "specs",
    "Fig4Spec": "specs",
    "Fig5abSpec": "specs",
    "Fig5cSpec": "specs",
    "RECORDER_POLICIES": "config",
    "ResolvedRunConfig": "config",
    "RunConfig": "config",
    "RunResult": "session",
    "Session": "session",
    "Table1Spec": "specs",
    "available_experiments": "spec",
    "fingerprint": "config",
    "get_experiment": "spec",
    "make_spec": "spec",
    "payload_to_jsonable": "session",
    "register_experiment": "spec",
    "spec_from_dict": "spec",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = attach(__name__, _EXPORTS)
