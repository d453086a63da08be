"""repro.api: the compile-once / infer-many facade.

The primary public API of the reproduction:

* :func:`compile` - program text / :class:`~repro.core.program.Program`
  -> :class:`CompiledProgram` (translation, normalization,
  visible-relation set and termination report cached, computed at most
  once);
* :meth:`CompiledProgram.on` -> :class:`Session` - fluent inference
  (``sample``, ``exact``, ``observe(...).posterior``, ``marginal``,
  ``analyze``, ``mass_report``) over one input instance;
* :class:`ChaseConfig` - the single frozen configuration object
  replacing the historical scatter of keyword arguments;
* :class:`InferenceResult` - the unified return type carrying the
  produced PDB, err mass, run counts and timing diagnostics;
* :class:`QueryResult` - a relational plan bound to a produced PDB
  (``Session.query(...)`` / ``InferenceResult.query(...)``), compiled
  to numpy over columnar ensembles.

See :mod:`repro.api.session` for the full tour.
"""

from repro.api.config import DEFAULT_CONFIG, ChaseConfig
from repro.api.results import InferenceResult, QueryResult
from repro.api.session import CompiledProgram, Session, compile
from repro.api.stream import StreamingPosterior

__all__ = [
    "ChaseConfig", "CompiledProgram", "DEFAULT_CONFIG",
    "InferenceResult", "QueryResult", "Session", "StreamingPosterior",
    "compile",
]
