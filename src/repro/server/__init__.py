"""Database servers: execution layer, commitment layer, and fault injection.

A Fides database server has four components (Figure 3 of the paper): an
execution layer, a commitment layer, a datastore, and a tamper-proof log.
:class:`~repro.server.server.DatabaseServer` wires them together;
:mod:`repro.server.faults` is the one vocabulary for the malicious
behaviours the evaluation and the audit tests inject.
"""

from repro.server.execution import ExecutionLayer
from repro.server.commitment import CommitmentLayer
from repro.server.server import DatabaseServer
from repro.server.faults import FAULT_KINDS, FaultPlan, FaultPolicy

__all__ = [
    "CommitmentLayer",
    "DatabaseServer",
    "ExecutionLayer",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultPolicy",
]
