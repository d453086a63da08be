"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  The subclasses mirror the
phases of the paper's pipeline: schema/validation problems when a program
is built (Definitions 3.1-3.3), parse errors in the surface syntax,
distribution-parameter problems (Definition 2.1), and semantic problems
detected while chasing (Section 4/5).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the ``repro`` library."""


class SchemaError(ReproError):
    """A relation, arity or attribute-domain constraint was violated."""


class ValidationError(ReproError):
    """A program, rule, atom or term failed a well-formedness check.

    This covers the syntactic restrictions of Definitions 3.1-3.3: random
    terms only in intensional heads, bodies deterministic, head variables
    bound in the body, and so on.
    """


class ParseError(ReproError):
    """The textual GDatalog syntax could not be parsed."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        location = ""
        if line is not None:
            location = f" (line {line}"
            location += f", column {column})" if column is not None else ")"
        super().__init__(message + location)
        self.line = line
        self.column = column


class DistributionError(ReproError):
    """A parameterized distribution was used with invalid parameters.

    Raised when a parameter tuple lies outside the parameter space
    ``Theta_psi`` of Definition 2.1, e.g. a negative variance for
    ``Normal`` or a bias outside [0, 1] for ``Flip``.
    """


class UnsupportedProgramError(ReproError):
    """The operation does not support this class of programs.

    For instance, exact inference (:mod:`repro.core.exact`) requires all
    random terms to use discrete distributions; invoking it on a program
    with a ``Normal`` term raises this error.
    """


class StreamingUnsupported(UnsupportedProgramError):
    """Streamed evidence cannot be applied exactly to this ensemble.

    Raised by :class:`repro.api.stream.StreamingPosterior` when forcing
    an observed sample into the pre-sampled prior worlds would *not*
    reproduce one-shot likelihood weighting - e.g. the observed value
    would have enabled downstream rule firings that the prior worlds
    never ran.  The streaming layer declines rather than silently
    approximating; fall back to
    ``session.observe(...).posterior(method="likelihood")``.
    """


class ChaseError(ReproError):
    """An internal invariant of the chase was violated.

    Seeing this exception indicates a bug: the chase machinery maintains
    the invariants of Lemma 3.10 (functional dependencies) and Lemma C.4
    (no repeated instances) by construction.
    """


class MeasureError(ReproError):
    """A measure-theoretic object was constructed inconsistently.

    Examples: a discrete measure with negative mass, a sub-probability
    measure with total mass exceeding one, or a kernel returning masses
    that do not form a (sub-)probability distribution.
    """
