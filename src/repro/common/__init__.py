"""Shared primitives used by every other Fides subpackage.

This package deliberately has no dependency on any other ``repro``
subpackage: it holds the value types (timestamps, identifiers), the
canonical byte encoding used for hashing and signing, configuration
objects, and the exception hierarchy.
"""

from repro.common.encoding import canonical_encode
from repro.common.errors import (
    AuditError,
    ConfigurationError,
    FidesError,
    ProtocolError,
    SignatureError,
    StorageError,
    ValidationError,
)
from repro.common.timestamps import Timestamp, TimestampGenerator
from repro.common.types import ClientId, ItemId, ServerId, TxnId
from repro.common.config import SystemConfig

__all__ = [
    "AuditError",
    "ClientId",
    "ConfigurationError",
    "FidesError",
    "ItemId",
    "ProtocolError",
    "ServerId",
    "SignatureError",
    "StorageError",
    "SystemConfig",
    "Timestamp",
    "TimestampGenerator",
    "TxnId",
    "ValidationError",
    "canonical_encode",
]
