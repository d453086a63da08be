"""A long-lived program server over a JSON-lines protocol.

The paper's Monte-Carlo semantics samples ``n`` independent chase runs
(Section 4); Theorem 6.1 lets one pooled chase order produce all of
them, so every request samples in the serving process.  On top of
:class:`repro.api.CompiledProgram` this package adds:

* :mod:`repro.serving.server` / :mod:`repro.serving.client` - a
  ``ProgramServer`` facade that caches compiled programs by source
  hash (LRU, zero recompilation on the hot path) behind a JSON-lines
  protocol (stdin/stdout or socket), exposed as ``repro serve``;
* :mod:`repro.serving.protocol` - the wire codecs and the payloads
  shared with the CLI's ``--json`` documents.

Servers embed :class:`ProgramServer` directly.
"""

from repro.serving.server import ProgramServer, serve_socket, serve_stdio
from repro.serving.client import ServingClient

__all__ = [
    "ProgramServer",
    "ServingClient",
    "serve_socket",
    "serve_stdio",
]
