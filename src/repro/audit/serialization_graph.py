"""Serialization graphs over logged transactions.

Lemma 3 states that verifying serializability "is equivalent to verifying
that no cycle exists in the Serialization Graph of the transactions being
audited."  The auditor builds that graph from the read/write sets recorded in
the log: there is an edge ``Ti -> Tj`` whenever ``Tj`` performed a
conflicting access (read-write, write-write, or write-read on the same item)
after ``Ti``, i.e. with a larger commit timestamp.  A committed history is
serializable iff the graph is acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.txn.transaction import Transaction


@dataclass
class SerializationGraph:
    """Directed conflict graph over a set of committed transactions."""

    _edges: Dict[str, Set[str]] = field(default_factory=dict)
    _transactions: Dict[str, Transaction] = field(default_factory=dict)

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_transactions(cls, transactions: Sequence[Transaction]) -> "SerializationGraph":
        """Build the graph from a list of committed transactions.

        Edges run from the transaction with the smaller commit timestamp to
        the one with the larger timestamp whenever they conflict; a
        well-formed timestamp-ordered history therefore never has a cycle.
        Violations are detected by feeding the graph the *effective* order
        implied by the recorded read/write sets (see the auditor).
        """
        graph = cls()
        for txn in transactions:
            graph.add_transaction(txn)
        ordered = sorted(transactions, key=lambda t: t.commit_ts)
        for i, earlier in enumerate(ordered):
            for later in ordered[i + 1 :]:
                if cls._conflicts(earlier, later):
                    graph.add_edge(earlier.txn_id, later.txn_id)
        return graph

    @staticmethod
    def _conflicts(earlier: Transaction, later: Transaction) -> bool:
        e_reads, e_writes = earlier.items_read(), earlier.items_written()
        l_reads, l_writes = later.items_read(), later.items_written()
        return bool((e_writes & l_reads) or (e_writes & l_writes) or (e_reads & l_writes))

    def add_transaction(self, txn: Transaction) -> None:
        self._transactions[txn.txn_id] = txn
        self._edges.setdefault(txn.txn_id, set())

    def add_edge(self, from_txn: str, to_txn: str) -> None:
        self._edges.setdefault(from_txn, set()).add(to_txn)
        self._edges.setdefault(to_txn, set())

    # -- queries -------------------------------------------------------------------

    def find_cycle(self) -> Optional[List[str]]:
        """Return one cycle (as a list of txn ids) or None if the graph is acyclic.

        A depth-first walk in sorted order on its own stack, not the
        interpreter's: a history whose conflicts form one chain is as deep as
        it is long.
        """
        finished: Set[str] = set()
        for root in sorted(self._edges):
            if root in finished:
                continue
            path: List[str] = [root]
            on_path: Set[str] = {root}
            #: Per node on ``path``, its children not looked at yet.
            unvisited = [iter(sorted(self._edges[root]))]
            while path:
                for child in unvisited[-1]:
                    if child in finished:
                        continue
                    if child in on_path:
                        return path[path.index(child):] + [child]
                    path.append(child)
                    on_path.add(child)
                    unvisited.append(iter(sorted(self._edges.get(child, ()))))
                    break
                else:
                    unvisited.pop()
                    done = path.pop()
                    on_path.discard(done)
                    finished.add(done)
        return None
