"""Error taxonomy for the library.

The verifier communicates rejection via :class:`AuditReject`, which carries a
:class:`RejectReason` code identifying which check failed.  The reason codes
mirror the checks in Figures 3, 5, 6, 12, and 13 of the paper, so tests can
assert not merely *that* a corrupt execution is rejected but *why*.
"""

from __future__ import annotations

import enum


class ReproError(Exception):
    """Base class for all library errors."""


class WeblangError(ReproError):
    """Raised for weblang compile-time or runtime faults (not audit logic)."""


class SqlError(ReproError):
    """Raised for SQL parse or execution faults (not audit logic)."""


class RejectReason(enum.Enum):
    """Why the verifier rejected a trace+reports pair.

    Members are grouped by the audit stage that raises them.
    """

    # Trace pre-checks (Section 3, "balanced" trace).
    TRACE_UNBALANCED = "trace_unbalanced"
    DUPLICATE_REQUEST_ID = "duplicate_request_id"

    # CheckLogs (Figure 5, lines 28-42).
    LOG_UNKNOWN_RID = "log_unknown_rid"
    LOG_BAD_OPNUM = "log_bad_opnum"
    LOG_DUPLICATE_OP = "log_duplicate_op"
    LOG_MISSING_OP = "log_missing_op"

    # AddStateEdges (Figure 5, line 54).
    LOG_OPNUM_NOT_INCREASING = "log_opnum_not_increasing"

    # CycleDetect (Figure 5, lines 11-12).
    ORDERING_CYCLE = "ordering_cycle"

    # CheckOp (Figure 12, lines 10-15).
    OP_NOT_IN_OPMAP = "op_not_in_opmap"
    OP_MISMATCH = "op_mismatch"

    # SimOp (Figure 12, line 22).
    NO_PRIOR_WRITE = "no_prior_write"

    # ReExec2 (Figure 12).
    GROUP_DIVERGED = "group_diverged"
    OP_COUNT_TOO_LOW = "op_count_too_low"
    OUTPUT_MISMATCH = "output_mismatch"

    # OOOExec (Figure 13).
    UNEXPECTED_EVENT = "unexpected_event"

    # Control-flow grouping reports (Section 3.1).
    GROUP_UNKNOWN_RID = "group_unknown_rid"

    # Non-determinism report plausibility (Section 4.6).
    NONDET_IMPLAUSIBLE = "nondet_implausible"
    NONDET_MISSING = "nondet_missing"

    # Versioned-storage build (Section 4.5).
    VERSIONED_BUILD_FAILED = "versioned_build_failed"

    # External-request verification (the §5.5 extension).
    EXTERNAL_MISMATCH = "external_mismatch"


class AuditReject(ReproError):
    """The verifier's REJECT outcome.

    Audit code raises this internally; the top-level entry points catch it
    and convert it into an :class:`repro.core.verifier.AuditResult`, so users
    of the public API never see the exception.
    """

    def __init__(self, reason: RejectReason, detail: str = ""):
        self.reason = reason
        self.detail = detail
        message = reason.value if not detail else f"{reason.value}: {detail}"
        super().__init__(message)


class AuditInfrastructureError(ReproError):
    """The audit could not finish for a reason outside the audited
    inputs, e.g. a live session's audit process died mid-stream.

    Never a verdict: the bundle was neither accepted nor rejected, and
    callers must report an error (``repro audit`` exits 2).
    """


class DivergenceError(ReproError):
    """Control flow diverged inside a SIMD-on-demand group (Section 3.1).

    In strict mode the re-execution driver converts this into
    ``AuditReject(GROUP_DIVERGED)``; in resilient mode it falls back to
    re-executing the group's requests individually.
    """

    def __init__(self, detail: str = ""):
        self.detail = detail
        super().__init__(detail or "control flow diverged within group")


class MultivalueFallback(ReproError):
    """The accelerated interpreter hit a case it does not support in SIMD
    mode (e.g. an unsupported mixed-type multivalue, Section 4.3) and asks
    the driver to retry the group's requests one at a time.

    This mirrors acc-PHP's "retries, by separately re-executing the requests
    in sequence" behaviour; it is *not* a verdict about the executor.
    """

    def __init__(self, detail: str = ""):
        self.detail = detail
        super().__init__(detail or "unsupported multivalue operation")
