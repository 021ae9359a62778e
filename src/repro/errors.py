"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so
callers can catch everything coming out of the toolchain with a single
``except`` clause, while still being able to discriminate the layer that
failed (program model, XRay runtime, CaPI selection, measurement, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Program model / compiler / linker
# ---------------------------------------------------------------------------


class ProgramModelError(ReproError):
    """Malformed program IR (duplicate functions, dangling call sites...)."""


class CompilationError(ReproError):
    """The compiler pipeline could not lower a program."""


class LinkError(ReproError):
    """Linking failed (duplicate strong symbols, unresolved references)."""


class LoaderError(ReproError):
    """The dynamic loader could not map or relocate an object."""


class SegmentationFault(ReproError):
    """A write hit a non-writable virtual page.

    Raised by the memory model when patching is attempted without the
    copy-on-write ``mprotect`` step, or when a non-position-independent
    trampoline is used from a relocated DSO.
    """


# ---------------------------------------------------------------------------
# Call graph
# ---------------------------------------------------------------------------


class CallGraphError(ReproError):
    """Structural problem in a call graph."""


class MergeConflictError(CallGraphError):
    """Conflicting metadata while merging translation-unit call graphs."""


# ---------------------------------------------------------------------------
# XRay
# ---------------------------------------------------------------------------


class XRayError(ReproError):
    """Generic XRay runtime error."""


class PackedIdError(XRayError):
    """Object or function id outside the packed-id bit ranges."""


class ObjectRegistrationError(XRayError):
    """DSO registration failed (limit exceeded, duplicate, unloaded...)."""


class PatchingError(XRayError):
    """A sled could not be (un)patched."""


class TrampolineRelocationError(XRayError):
    """A non-PIC trampoline was invoked from a relocated shared object."""


# ---------------------------------------------------------------------------
# CaPI / selection DSL
# ---------------------------------------------------------------------------


class CapiError(ReproError):
    """Generic CaPI driver error."""


class SpecSyntaxError(CapiError):
    """Lexical or syntactic error in a ``.capi`` specification."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{line}:{column}: {message}" if line else message)
        self.line = line
        self.column = column


class SpecSemanticError(CapiError):
    """Semantic error: unknown selector, bad arity, unresolved reference."""


class ImportResolutionError(CapiError):
    """A spec file or ``!import(...)`` directive could not be resolved."""


class SelectionError(CapiError):
    """Selector evaluation failed at runtime."""


class ServiceError(CapiError):
    """Selection-service error (unknown graph key, closed service, …)."""


class ServiceClosedError(ServiceError):
    """The selection service no longer accepts requests."""


class BatchMismatchError(ServiceError):
    """A batched result differed from its sequential evaluation.

    Raised only in verification mode — batched and sequential evaluation
    are bit-identical by construction, so this firing means a selector
    broke purity (mutated state or depended on evaluation order).
    """


class ServiceTimeoutError(ServiceError):
    """A service request ran out of time.

    Raised to the client when :meth:`SelectionService.select` times out
    (the request is cancelled and its admission slot released), and set
    on a request's future when the shard supervisor rescued it from a
    dead or wedged worker after its retry budget was exhausted.
    """


class QuarantinedSpecError(ServiceError):
    """The spec's structural key is quarantined on this graph.

    A spec whose evaluation failed ``quarantine_threshold`` consecutive
    times trips a per-``(graph, cache key)`` circuit breaker: further
    requests fail fast with this error instead of burning a worker on a
    known-poison query, until a half-open probe succeeds after the
    cooldown.
    """


class InjectedServiceFaultError(ServiceError):
    """A deterministic service chaos fault fired (see service.faults).

    Always *transient*: the worker treats it as retryable, so a bounded
    retry budget heals every finite fault schedule.
    """


# ---------------------------------------------------------------------------
# Measurement substrates
# ---------------------------------------------------------------------------


class MeasurementError(ReproError):
    """Generic measurement-system error."""


class ScorePError(MeasurementError):
    """Score-P substrate error."""


class FilterFormatError(ScorePError):
    """Malformed Score-P filter file."""


class TalpError(MeasurementError):
    """TALP/DLB substrate error."""


class MpiNotInitializedError(TalpError):
    """A TALP region operation happened before ``MPI_Init``.

    The paper (section VI-B) observes that regions entered before
    ``MPI_Init`` cannot be registered and are silently dropped by
    DynCaPI; the raw DLB API reports this condition as an error.
    """


class SimMpiError(ReproError):
    """Simulated-MPI misuse (rank out of range, mismatched collective...)."""


# ---------------------------------------------------------------------------
# Execution engine
# ---------------------------------------------------------------------------


class ExecutionError(ReproError):
    """The virtual-clock execution engine hit an inconsistent state."""


# ---------------------------------------------------------------------------
# Multi-rank fault tolerance
# ---------------------------------------------------------------------------


class RankExecutionError(ReproError):
    """One rank's execution attempt failed under supervision.

    Carries the failing rank id so supervisors and health reports can
    attribute the failure without parsing the message.  Subclasses
    discriminate the failure mode (crash vs. deadline overrun).  The
    exception survives the multiprocessing pickle boundary with the
    rank attribute intact (``__reduce__``).
    """

    def __init__(self, message: str, rank: "int | None" = None):
        super().__init__(message)
        self.rank = rank

    def __reduce__(self):
        return (type(self), (self.args[0] if self.args else "", self.rank))


class RankFailedError(RankExecutionError):
    """A rank attempt raised, died, or returned a corrupt payload."""


class RankTimeoutError(RankExecutionError):
    """A rank attempt overran its per-rank deadline (hung worker)."""


class InjectedFaultError(RankFailedError):
    """A deterministic chaos-injection fault fired (see multirank.faults)."""


class DegradedResultError(ReproError):
    """Ranks were lost and the degradation policy forbids partial results.

    Raised by the multi-rank reducer path when supervision exhausted its
    retries on one or more ranks and the caller ran with
    ``degraded="forbid"`` (the default).  ``missing_ranks`` names the
    ranks that produced no result.
    """

    def __init__(self, message: str, missing_ranks: "tuple[int, ...]" = ()):
        super().__init__(message)
        self.missing_ranks = tuple(missing_ranks)

    def __reduce__(self):
        return (
            type(self),
            (self.args[0] if self.args else "", self.missing_ranks),
        )
