#!/usr/bin/env python3
"""Banking on untrusted servers: the paper's Figure 10 / Figure 11 scenarios.

A small bank keeps customer accounts on rented third-party servers.  Two
malicious behaviours from Section 5 of the paper are injected and then exposed
by the offline audit:

* **Scenario 1 (incorrect reads)** -- the server storing account ``x`` replays
  a stale balance to a later withdrawal, effectively double-spending.
* **Scenario 3 (data corruption)** -- the server storing account ``y``
  silently corrupts the stored balance after a commit.

The audit pins each anomaly to the exact block in the transaction history and
to the exact server responsible -- the two detection goals of Section 3.3.

Run with::

    python examples/banking_audit.py
"""

from __future__ import annotations

from repro.api import FaultPlan, FidesSystem, SystemConfig
from repro.txn.operations import ReadOp, WriteOp


def main() -> None:
    config = SystemConfig(
        num_servers=3,
        items_per_shard=50,
        txns_per_block=1,
        ops_per_txn=4,
        message_signing="hash",
    )
    system = FidesSystem(config)

    account_x = system.shard_map.items_of("s1")[0]   # stored on server s1
    account_y = system.shard_map.items_of("s2")[0]   # stored on server s2

    print("== setting up accounts ==")
    outcome = system.run_transaction([WriteOp(account_x, 1000), WriteOp(account_y, 500)])
    print(f"fund accounts: {outcome.status} (x=1000 on s1, y=500 on s2)")

    print("\n== T1: withdraw $100 from both accounts (honest) ==")
    outcome = system.run_transaction(
        [ReadOp(account_x), ReadOp(account_y), WriteOp(account_x, 900), WriteOp(account_y, 400)]
    )
    print(f"T1: {outcome.status} in block {outcome.block_height}")

    print("\n== server s1 turns malicious: replays the stale $1000 balance ==")
    system.inject_fault(
        "s1", [FaultPlan("read-corruption", "s1", params={"item": account_x, "value": 1000})]
    )

    print("== T2: another withdrawal, fooled by the stale read ==")
    client = system.client(1)
    session = client.begin()
    stale_balance = client.read(session, account_x)
    client.write(session, account_x, stale_balance - 100)
    outcome = client.commit(session)
    print(f"T2 read x={stale_balance} (should have been 900), {outcome.status} "
          f"in block {outcome.block_height}")

    print("\n== server s2 silently corrupts account y in its datastore ==")
    system.server("s2").store.corrupt(account_y, 999_999)

    print("\n== offline audit ==")
    report = system.audit()
    print(report.summary())

    print("\n== conclusions ==")
    assert not report.ok
    for violation in report.violations:
        print(f"  * {violation.kind.value} at block {violation.block_height} "
              f"-> misbehaving server(s): {', '.join(violation.culprits)}")
    print(f"  first anomaly in history at block {report.first_violation_height()}; "
          "everything after it is suspect (Theorem 1).")


if __name__ == "__main__":
    main()
