"""One audit checks each distinct co-sign once, and only within that audit.

``Auditor.check_logs`` verifies every server's log copy through
:func:`repro.ledger.log.verify_copies`, which shares co-sign verdicts between
copies under the whole input of ``cosi_verify``: signing digest, challenge,
response and signer ids.  These tests pin the key (a block hash does not bind
the signer ids), hold the shared verdicts to each copy verified alone, and
check that a second audit starts from scratch.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.crypto.cosi as cosi_module
import repro.ledger.log as log_module
from repro.api import FidesSystem, ScaledFidesSystem, SystemConfig, sharded_sequencer
from repro.audit.report import AuditReport
from repro.audit.violations import ViolationType
from repro.common.errors import AuditError
from repro.crypto.cosi import cosi_verify
from repro.ledger.block import Block
from repro.ledger.log import TransactionLog
from repro.net.latency import ConstantLatency
from repro.workload.ycsb import YcsbWorkload


def fresh_copy(log: TransactionLog) -> TransactionLog:
    """The copy as an auditor reads it: every block decoded anew from its bytes."""
    return TransactionLog(
        [Block.from_bytes(block.wire_bytes()) for block in log],
        base_height=log.base_height,
        base_hash=log.base_hash,
    )


def drop_signer(block: Block) -> Block:
    return replace(block, cosign=replace(block.cosign, signer_ids=block.cosign.signer_ids[1:]))


def change_response(block: Block) -> Block:
    return replace(block, cosign=replace(block.cosign, response=block.cosign.response + 1))


def edit_write(block: Block) -> Block:
    """One write value changed; the co-sign is the original one."""
    for index, txn in enumerate(block.transactions):
        if txn.write_set:
            entry = replace(txn.write_set[0], new_value="__edited__")
            edited = replace(txn, write_set=(entry,) + tuple(txn.write_set[1:]))
            transactions = list(block.transactions)
            transactions[index] = edited
            return replace(block, transactions=tuple(transactions))
    return block


class TestTheKeyIsTheWholeInput:
    """A memo keyed on ``block_hash()`` or on the body digest fails here."""

    @pytest.mark.parametrize("server", ["s0", "s2"])
    @pytest.mark.parametrize(
        "forge, kind",
        [
            (drop_signer, ViolationType.INVALID_COSIGN),
            (change_response, ViolationType.INVALID_COSIGN),
            (edit_write, ViolationType.LOG_TAMPERED),
        ],
        ids=["drop-signer", "change-response", "edit-write"],
    )
    def test_a_forged_copy_fails_alone(self, small_system, run_history, server, forge, kind):
        run_history(small_system)
        log = small_system.server(server).log
        honest = log[2]
        forged = forge(honest)
        assert forged != honest
        if forge is drop_signer:
            # The hash pointer covers challenge || response, not the signer ids.
            assert forged.block_hash() == honest.block_hash()
            assert forged.body_digest() == honest.body_digest()
        log.tamper_replace(2, forged)

        report = small_system.audit()
        assert not report.ok
        found = report.violations_of(kind)
        assert [(v.culprits, v.block_height) for v in found] == [((server,), 2)]
        assert report.culprit_servers() == (server,)
        assert report.log_results[server].first_invalid_height == 2
        for other in small_system.server_ids:
            if other != server:
                assert report.log_results[other].valid


# -- three sets of honest copies ---------------------------------------------------------


def _config(num_servers: int, txns_per_block: int, seed: int) -> SystemConfig:
    return SystemConfig(
        num_servers=num_servers,
        items_per_shard=40,
        txns_per_block=txns_per_block,
        ops_per_txn=2,
        multi_versioned=True,
        message_signing="hash",
        seed=seed,
    )


def _commit(system, count: int, seed: int) -> None:
    workload = YcsbWorkload(
        item_ids=system.shard_map.all_items(), ops_per_txn=2, conflict_free_window=0, seed=seed
    )
    assert system.run_workload(workload.generate(count)).committed


def _honest(system, checkpoints=None):
    logs = {sid: server.log.copy() for sid, server in system.servers.items()}
    return system, logs, checkpoints or {}


@pytest.fixture(scope="module")
def honest_sets():
    """``name -> (system, {server: log}, {server: checkpoint})``."""
    scaled = ScaledFidesSystem(
        _config(8, 4, 17), latency=ConstantLatency(0.0002), sequencer=sharded_sequencer(2)
    )
    _commit(scaled, 16, 5)
    classic = FidesSystem(_config(3, 1, 7), latency=ConstantLatency(0.0002))
    _commit(classic, 5, 51)
    truncated = FidesSystem(_config(3, 1, 9), latency=ConstantLatency(0.0002))
    _commit(truncated, 3, 52)
    truncated.create_checkpoint()
    _commit(truncated, 3, 53)
    assert all(len(server.log) == 3 for server in truncated.servers.values())
    return {
        "scaled": _honest(scaled),
        "classic": _honest(classic),
        "checkpointed": _honest(
            truncated,
            {sid: server.latest_checkpoint for sid, server in truncated.servers.items()},
        ),
    }


TAMPERS = ("drop-signer", "swap-cosigns", "edit-write", "reorder", "truncate")


def tamper(log: TransactionLog, kind: str, i: int, j: int) -> None:
    if not len(log):
        return
    i, j = i % len(log), j % len(log)
    if kind == "drop-signer":
        log.tamper_replace(i, drop_signer(log[i]))
    elif kind == "swap-cosigns":
        first, second = log[i], log[j]
        log.tamper_replace(i, first.with_cosign(second.cosign))
        log.tamper_replace(j, second.with_cosign(first.cosign))
    elif kind == "edit-write":
        log.tamper_replace(i, edit_write(log[i]))
    elif kind == "reorder":
        first, second = log[i], log[j]
        log.tamper_replace(i, second)
        log.tamper_replace(j, first)
    else:
        log.truncate(i)


def check(system, logs, checkpoints):
    """``(per-copy results, violations, reference server, raised)`` of one check_logs."""
    report = AuditReport()
    auditor = system.auditor()
    auditor.collected_checkpoints = checkpoints
    try:
        auditor.check_logs(logs, report)
    except AuditError:
        return report.log_results, report.violations, None, True
    return report.log_results, report.violations, report.reference_log_server, False


class TestSharedVerdictsMatchEachCopyAlone:
    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(sorted(("scaled", "classic", "checkpointed"))),
        tampers=st.lists(
            st.one_of(
                st.none(),
                st.tuples(
                    st.sampled_from(TAMPERS), st.integers(0, 31), st.integers(0, 31)
                ),
            ),
            min_size=8,
            max_size=8,
        ),
    )
    def test_differential(self, honest_sets, name, tampers):
        system, honest, checkpoints = honest_sets[name]
        logs = {}
        for server, spec in zip(sorted(honest), tampers):
            logs[server] = fresh_copy(honest[server])
            if spec is not None:
                tamper(logs[server], *spec)
        keys = system.network.public_key_directory()

        results, violations, reference, raised = check(system, logs, checkpoints)
        assert results == {
            server: fresh_copy(log).verify(
                keys, system.server_ids, checkpoint=checkpoints.get(server)
            )
            for server, log in logs.items()
        }
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                log_module,
                "_cosign_holds",
                lambda cosign, digest, keys, verdicts: cosi_verify(cosign, digest, keys),
            )
            unshared = check(system, {s: fresh_copy(log) for s, log in logs.items()}, checkpoints)
        assert (results, violations, reference, raised) == unshared


class TestEachAuditStartsCold:
    def test_two_audits_do_the_same_group_arithmetic(self, honest_sets, monkeypatch):
        system, honest, _ = honest_sets["scaled"]
        assert len(honest) == 8 and len({log.head_hash for log in honest.values()}) == 1
        calls = []
        real = cosi_module.fused_multiply_sum
        monkeypatch.setattr(
            cosi_module, "fused_multiply_sum", lambda *args: calls.append(args) or real(*args)
        )
        counts = []
        for _ in range(2):
            logs = {server: fresh_copy(log) for server, log in honest.items()}
            distinct = {
                (block.signing_digest(), block.cosign)
                for log in logs.values()
                for block in log
            }
            before = len(calls)
            report = system.auditor().run_audit(logs=logs)
            assert report.ok and report.blocks_audited == len(honest["s0"])
            counts.append(len(calls) - before)
            assert counts[-1] == len(distinct)
        assert counts[0] == counts[1] > 0
