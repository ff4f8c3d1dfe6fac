"""Read and write operations issued by clients.

Clients interact with the data "via transactions consisting of read and write
operations" (Section 3.1).  Operations are what the workload generator
produces and what a :class:`~repro.client.session.TransactionSession` turns
into per-server read/write requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.common.types import ItemId, Value
from repro.common.wire import ANY, STR, tag, wire_form


@wire_form(tag("op", "read"), ("item_id", STR))
@dataclass(frozen=True, slots=True)
class ReadOp:
    """Read the current value of ``item_id``."""

    item_id: ItemId

    @property
    def is_read(self) -> bool:
        return True


@wire_form(tag("op", "write"), ("item_id", STR), ("value", ANY))
@dataclass(frozen=True, slots=True)
class WriteOp:
    """Write ``value`` to ``item_id``."""

    item_id: ItemId
    value: Value

    @property
    def is_read(self) -> bool:
        return False


Operation = Union[ReadOp, WriteOp]
