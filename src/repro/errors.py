"""Exception hierarchy for the ExpFinder reproduction.

Every error raised by this library derives from :class:`ReproError`, so
applications can catch one type at the boundary.  Subclasses are split by
subsystem; constructors take a plain message (and occasionally structured
context) so errors remain cheap to raise and easy to test.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GraphError(ReproError):
    """Invalid operation on a data graph (unknown node, duplicate edge, ...)."""


class PatternError(ReproError):
    """Invalid pattern query (unknown node, bad bound, missing output node)."""


class PredicateError(ReproError):
    """Invalid search condition (unknown operator, unparsable expression)."""


class EvaluationError(ReproError):
    """A matcher was invoked with inconsistent inputs or state."""


class BudgetExceededError(EvaluationError):
    """A query blew its :class:`~repro.engine.estimator.QueryBudget`.

    Raised when the budget was created with ``allow_partial=False``;
    with partial results allowed, a trip during evaluation returns the
    empty relation flagged ``stats["partial"] = True`` instead.  A trip
    while an exact relation's rows are read later (its result graph, a
    ranking) always raises: those rows cannot be partial.
    """


class RankingError(ReproError):
    """Ranking was requested for a node that is not a match of the output node."""


class UpdateError(ReproError):
    """An edge update cannot be applied to the graph (or replayed on state)."""


class CompressionError(ReproError):
    """Compression failed or a query is incompatible with a compressed graph."""


class StorageError(ReproError):
    """File-backed graph/query/result storage failed or is inconsistent."""


class WalError(StorageError):
    """The write-ahead changelog is corrupt, misconfigured or misused.

    Subclasses :class:`StorageError`: a broken WAL is a broken durability
    artefact, and callers guarding persistence with ``except
    StorageError`` must see WAL failures through the same funnel.
    """


class CacheError(ReproError):
    """Query cache misuse (e.g. pinning a query for an unknown graph)."""


class ServerError(ReproError):
    """The query service received an invalid request or is misconfigured."""


class AdmissionError(ServerError):
    """The query service refused a request at admission control.

    Raised when the bounded worker budget is exhausted and the waiting
    queue is full (or the wait timed out); the HTTP layer maps it to a
    ``429 Too Many Requests`` response so well-behaved clients back off.
    """


class AdmissionTimeoutError(AdmissionError):
    """A queued request waited ``queue_timeout`` without getting a slot.

    Distinct from the capacity refusal (queue full on arrival, HTTP 429):
    the request *was* admitted to the queue and then timed out, which the
    HTTP layer reports as ``408 Request Timeout`` so clients and
    dashboards can tell sustained saturation (429s) from slow drains
    (408s) apart.
    """


class ServiceDegradedError(ServerError):
    """An update was durably logged but the new epoch could not be built.

    The service keeps serving the last good epoch; ``/health`` reports
    ``degraded`` with the WAL replay lag, and the HTTP layer maps this to
    ``503 Service Unavailable`` (the write is preserved — recovery or the
    next successful publish will surface it).
    """


class FaultError(ReproError):
    """Fault-injection misuse (unknown fault point, malformed arming spec)."""


class CliError(ReproError):
    """Command-line front end received invalid arguments or files."""
