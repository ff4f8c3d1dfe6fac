"""Auditing: offline detection of malicious failures (Sections 3.3, 4.5, 5).

Fides is a fault-*detection* system: any failure -- incorrect reads,
corrupted datastores, isolation violations, atomicity violations, tampered or
truncated logs -- is detected during an offline audit, together with the
precise point in the transaction history where it occurred and the
misbehaving server it is irrefutably linked to.
"""

from repro.audit.violations import Violation, ViolationType
from repro.audit.report import AuditReport
from repro.audit.auditor import Auditor

__all__ = ["AuditReport", "Auditor", "Violation", "ViolationType"]
