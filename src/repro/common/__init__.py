"""Shared primitives: error types, control-flow digests, id helpers.

These are used by every other subpackage; nothing here depends on the
rest of the library.
"""

from repro.common.errors import (
    AuditInfrastructureError,
    AuditReject,
    DivergenceError,
    RejectReason,
    ReproError,
    WeblangError,
    SqlError,
)
from repro.common.digest import FlowDigest

__all__ = [
    "AuditInfrastructureError",
    "AuditReject",
    "DivergenceError",
    "FlowDigest",
    "RejectReason",
    "ReproError",
    "SqlError",
    "WeblangError",
]
