"""Golden same-seed fingerprints: behaviour pinned *across commits*.

The determinism suites (``tests/sim/test_determinism.py``,
``tests/obs/test_trace_determinism.py``) compare two runs of the same code,
so a refactor that changes behaviour consistently passes them.  The literal
constants below were recorded once, before the ordering / harness collapse,
from fixed-seed :class:`~repro.sim.context.FixedCompute` runs; a refactor
that claims "behaviour unchanged" must reproduce every one of them
untouched.  Refresh them only for an *intended* protocol or timing-model
change, by running this file as a script (it prints the new table).

Each scenario runs two ``run_workload`` calls on one system -- the
``*-failover`` ones crash and depose a leader in between (2PC: up front,
because a non-empty 2PC log carries no co-signs to recover from) -- and
records:

- ``stream``: SHA-256 over the ordered stream -- per block its global height,
  block hash, group members and ordering shards (scaled), or the
  coordinator's log block hashes (classic);
- ``anchors``: SHA-256 over the epoch-anchor chain's hashes (``""`` = none);
- ``makespan`` / ``messages`` / ``bytes``: the virtual makespan and the
  network's message and byte counters;
- ``trace``: the tracer's span fingerprint;
- ``audit``: the full offline audit's verdict (2PC: the refusal's name).

The ``*-fails`` scenarios pin the round's failure exits instead: between the
two workloads one classic TFCommit round fails -- a non-leader cohort crashes
at ``vote``, a cohort refuses a faked root at ``challenge``, or a bad Schnorr
response ends the round in ``culprits`` -- and the row also records
``pending``, every server's ``pending_round_count()`` right after that round
(a failed round must leave no armed round state behind).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import (
    FidesSystem,
    ScaledFidesSystem,
    SystemConfig,
    sharded_sequencer,
    single_sequencer,
)
from repro.common.errors import AuditError
from repro.net.latency import lan_latency
from repro.obs import Observability
from repro.server.faults import FaultPlan
from repro.sim.context import FixedCompute
from repro.txn.operations import WriteOp
from repro.workload.ycsb import PartitionedWorkload, YcsbWorkload

SEED = 2020

#: The one-shot crash every fault row uses: the first ``vote`` observation.
AT_VOTE = {"kind": "phase", "phases": ["vote"]}


def _inject(system, server_id: str, *plans: FaultPlan) -> None:
    """``server_id`` runs ``plans`` from now on (none: it is honest again)."""
    system.inject_fault(server_id, plans)


def _config(num_servers: int) -> SystemConfig:
    return SystemConfig(
        num_servers=num_servers,
        items_per_shard=40,
        txns_per_block=2,
        ops_per_txn=2,
        multi_versioned=False,
        message_signing="hash",
        seed=SEED,
    )


def _classic(protocol: str):
    obs = Observability(tracing=True)
    system = FidesSystem(
        _config(4),
        protocol=protocol,
        latency=lan_latency(seed=SEED),
        compute_model=FixedCompute(0.001),
        obs=obs,
    )
    workload = YcsbWorkload(
        item_ids=system.shard_map.all_items(),
        ops_per_txn=2,
        conflict_free_window=2,
        seed=SEED,
    )
    return system, obs, workload


def _scaled(sequencer, locality: float, group_size: int = 2):
    obs = Observability(tracing=True)
    system = ScaledFidesSystem(
        _config(8),
        latency=lan_latency(seed=SEED),
        compute_model=FixedCompute(0.001),
        obs=obs,
        sequencer=sequencer,
    )
    server_ids = list(system.config.server_ids)
    partitions = [
        [
            item
            for sid in server_ids[start : start + group_size]
            for item in system.shard_map.items_of(sid)
        ]
        for start in range(0, len(server_ids), group_size)
    ]
    workload = PartitionedWorkload(
        partitions=partitions,
        ops_per_txn=2,
        locality=locality,
        conflict_free_window=2,
        seed=SEED,
    )
    return system, obs, workload


def _strand_and_fail_over(system) -> None:
    """Between the two workloads: the leader crashes mid-round (the round
    stays armed on its cohorts), recovers, is handed one more transaction
    (a partial batch left in its queue) and is then deposed."""
    leader, peer = system.config.server_ids[:2]
    mine, theirs = system.shard_map.items_of(leader), system.shard_map.items_of(peer)
    _inject(system, leader, FaultPlan("crash", leader, AT_VOTE))
    for index in range(system.config.txns_per_block):
        system.run_transaction([WriteOp(mine[index], index), WriteOp(theirs[index], index)])
    assert leader in system.crashed_servers()
    system.recover_server(leader)
    assert system.run_transaction([WriteOp(mine[5], 5), WriteOp(theirs[5], 5)]).pending
    outcome = system.fail_over(leader)
    assert outcome.stalled_rounds


def _fail_one_round(system, plan, expect) -> dict:
    """Between the two workloads: ``plan.target`` misbehaves for exactly one
    round, which fails the way ``expect`` (a predicate over its
    :class:`BlockCommitResult`) says; the server is then healed (recovered
    if it crashed) so the second workload runs on an honest cluster.
    Returns every server's ``pending_round_count()`` right after it."""
    leader, peer = system.config.server_ids[:2]
    mine, theirs = system.shard_map.items_of(leader), system.shard_map.items_of(peer)
    server_id = plan.target
    _inject(system, server_id, plan)
    for index in range(system.config.txns_per_block):
        system.run_transaction([WriteOp(mine[index], index), WriteOp(theirs[index], index)])
    result = system.coordinator.results[-1]
    assert result.status == "failed" and expect(result), result
    if server_id in system.crashed_servers():
        system.recover_server(server_id)
    else:
        _inject(system, server_id)
    return {
        server_id: server.commitment.pending_round_count()
        for server_id, server in system.servers.items()
    }


#: Scenarios that run :func:`_fail_one_round` before the second workload:
#: ``name -> (the fault plan, what the failed result must show)``.
FAILED_ROUNDS = {
    "classic-tfcommit-cohort-crash-fails": lambda: (
        FaultPlan("crash", "s2", AT_VOTE),
        lambda result: [r.server_id for r in result.refusals if r.unreachable]
        == ["s2"],
    ),
    "classic-tfcommit-fake-root-fails": lambda: (
        FaultPlan("fake-root", "s0", params={"victim": "s1"}),
        lambda result: any("different root" in r.reason for r in result.refusals),
    ),
    "classic-tfcommit-bad-cosi-fails": lambda: (
        FaultPlan("corrupt-response", "s2"),
        lambda result: result.culprits == ["s2"],
    ),
}


SCENARIOS = {
    "classic-tfcommit": lambda: _classic("tfcommit"),
    "classic-2pc": lambda: _classic("2pc"),
    "single-0": lambda: _scaled(single_sequencer(0), 0.8),
    "single-2": lambda: _scaled(single_sequencer(2), 0.8),
    "sharded-4": lambda: _scaled(sharded_sequencer(4), 0.8),
    # Single-server groups, four per lane: the only shape where a lane holds
    # other groups' blocks long enough for the capacity drain to matter.
    "sharded-2-cap2": lambda: _scaled(sharded_sequencer(2, epoch_max_blocks=2), 0.9, 1),
    "sharded-2-cap32": lambda: _scaled(sharded_sequencer(2), 0.9, 1),
    "sharded-1": lambda: _scaled(sharded_sequencer(1), 0.8),
    "sharded-3-local": lambda: _scaled(sharded_sequencer(3), 1.0),
}

#: Scenarios that run :func:`_strand_and_fail_over`, and before which of the
#: two workloads (the base scenario is the name minus ``-failover``).
FAILOVER_BEFORE_WORKLOAD = {
    "classic-tfcommit-failover": 1,
    "classic-2pc-failover": 0,
    "single-0-failover": 1,
    "sharded-4-failover": 1,
}
SCENARIOS.update(
    {name: SCENARIOS[name[: -len("-failover")]] for name in FAILOVER_BEFORE_WORKLOAD}
)
SCENARIOS.update({name: SCENARIOS["classic-tfcommit"] for name in FAILED_ROUNDS})


def fingerprint(name: str) -> dict:
    system, obs, workload = SCENARIOS[name]()
    pending = {}
    for index, requests in enumerate((14, 10)):
        if FAILOVER_BEFORE_WORKLOAD.get(name) == index:
            _strand_and_fail_over(system)
        if name in FAILED_ROUNDS and index == 1:
            pending = {"pending": _fail_one_round(system, *FAILED_ROUNDS[name]())}
        system.run_workload(workload.generate(requests), num_clients=2)
    stream = hashlib.sha256()
    anchors = hashlib.sha256()
    ordering = getattr(system, "ordering", None)
    if ordering is not None:
        for ordered in ordering.ordered_blocks:
            stream.update(
                repr(
                    (
                        ordered.global_height,
                        ordered.block_hash.hex(),
                        sorted(ordered.group.members),
                        tuple(ordered.shards),
                    )
                ).encode()
            )
        anchor_chain = list(getattr(ordering, "epoch_anchors", ()))
    else:
        for block in system.servers[system.config.server_ids[0]].log:
            stream.update(block.block_hash())
        anchor_chain = []
    for anchor in anchor_chain:
        anchors.update(anchor.anchor_hash())
    return {
        **pending,
        "stream": stream.hexdigest(),
        "anchors": anchors.hexdigest() if anchor_chain else "",
        "makespan": repr(system.sim.makespan),
        "messages": obs.metrics.counter_value("net.messages"),
        "bytes": obs.metrics.counter_value("net.bytes_total"),
        "trace": obs.tracer.fingerprint(),
        "audit": _audit_verdict(system),
    }


def _audit_verdict(system):
    """``True``/``False``, or the error name when no copy is auditable (2PC
    blocks carry no co-sign, so the auditor has no verifiable reference)."""
    try:
        return system.audit().ok
    except AuditError as exc:
        return type(exc).__name__


#: Recorded at the commit that defined the wall-clock benchmark (PR 11).  The
#: ``sharded-*`` rows' ``messages``, ``bytes``, ``makespan`` and ``trace`` were
#: re-recorded when the ordering service stopped broadcasting epoch anchors to
#: the servers: fewer deliveries, so fewer draws from the latency RNG.
GOLDEN = {'classic-2pc': {'anchors': '',
                 'audit': 'AuditError',
                 'bytes': 252121.0,
                 'makespan': '0.06019295655926519',
                 'messages': 259.0,
                 'stream': '7f555b521e335c192ca50128b208b67134847a47f50b1d45f30a8c51f84f3b3a',
                 'trace': 'b0e2e14764389432f1056cea91b8fbd11cf7f6e32deb76f82cda28bc4f9b7ce7'},
 'classic-tfcommit': {'anchors': '',
                      'audit': True,
                      'bytes': 352945.0,
                      'makespan': '0.09511470841588471',
                      'messages': 307.0,
                      'stream': '5a1eb9adc91fb174ee4f98f1694b64ed796e344a68734222ac9ac6a354399821',
                      'trace': '5a3e5e2668fe93c0f628ede2cef220707a89958cd0808e4315b56e62adaf11a1'},
 'sharded-1': {'anchors': '473357a76396716fdb1e97bbacabaf6c7252e5eb672a120176fb0ab54fe0db24',
               'audit': True,
               'bytes': 358408.0,
               'makespan': '0.04820893510708895',
               'messages': 356.0,
               'stream': '20e1cb1cf8da0230a87c5b2e5ad3e4c9beb98119e479b6054d58faeddb223864',
               'trace': '513bb46113f4cb54ebbf958aabd2ce6b0f5cf13019f04dfc2e474addcbbdb840'},
 'sharded-2-cap2': {'anchors': '1ae1fe1f4245df45b5cb1cc1e93bd6fcf0ec3c482b327ed614c081c9f17780a1',
                    'audit': True,
                    'bytes': 309779.0,
                    'makespan': '0.03014853307889177',
                    'messages': 322.0,
                    'stream': '0534ac1a6471d14ecd6afd48183137a2fb4a21a53ec349f71e5dbb2f79ea8186',
                    'trace': 'bed9ee936d573606399ab8151914c66fa3c678c8908f5de6ae13918beea45231'},
 'sharded-2-cap32': {'anchors': '1ae1fe1f4245df45b5cb1cc1e93bd6fcf0ec3c482b327ed614c081c9f17780a1',
                     'audit': True,
                     'bytes': 309779.0,
                     'makespan': '0.030335037773250414',
                     'messages': 322.0,
                     'stream': '694675386be5b67895bb9c8c32224825040ecba91a8468f29b0d85f8033e50c1',
                     'trace': '690f454778fc1df27a43b11e72388eb29b5649b030d7c81070ea1e898261e19c'},
 'sharded-3-local': {'anchors': 'f4fc52a86155d8e60d90ddaf6a345607d5ec074fae46df7eede3927259fe7a15',
                     'audit': True,
                     'bytes': 317069.0,
                     'makespan': '0.03553680233970475',
                     'messages': 318.0,
                     'stream': '1fd1d572800b704546650df5be8d442842b5404e00e62fbcd62768fdcd3a98c4',
                     'trace': 'd0c887921928686ad214103e1c093a0b4bf35980b9f6961acab78c10880e5384'},
 'sharded-4': {'anchors': '7fe045072c386eafa2558fbe00c9ef6e3e62a86cebac2d33ee5061b6a3be4158',
               'audit': True,
               'bytes': 358408.0,
               'makespan': '0.040012312329368534',
               'messages': 356.0,
               'stream': '4082203c6297cc46c2cd46bc624b4eaf69856d67f4142727322b1f6f2b108277',
               'trace': 'b10fb464a3f2dadfaa6b9f42e14de1f99ce5906f25bd8c18043a5ee37a558a5f'},
 'single-0': {'anchors': '',
              'audit': True,
              'bytes': 358408.0,
              'makespan': '0.04805887517591532',
              'messages': 356.0,
              'stream': 'b1493b921b047d89e709080e9ca93918b01a6652841f0ff7e30544207e951af6',
              'trace': '3fc664eb19ddb4592ce5987f91001d800e45a65854d354b3714c8ef44a860313'},
 'single-2': {'anchors': '',
              'audit': True,
              'bytes': 357823.0,
              'makespan': '0.04607369384638363',
              'messages': 356.0,
              'stream': 'b9f82588310e82020f3d04b4b19b81551bd4429bb8493aa3f65b73532f92983b',
              'trace': '2f503f75f28507f1c3c16ad8af76f6653671097d79a3cf20b792f0ceb83187d0'}}


#: The failover rows, recorded at PR 12 (before the two system classes merged);
#: ``trace`` re-recorded at PR 16, when the file's faults became plans (the plan
#: executor emits an ``inject:<kind>`` instant the legacy classes never did);
#: ``sharded-4-failover`` re-recorded with the other ``sharded-*`` rows above.
GOLDEN.update(
{'classic-2pc-failover': {'anchors': '',
                          'audit': 'AuditError',
                          'bytes': 290337.0,
                          'makespan': '0.1',
                          'messages': 316.0,
                          'stream': '7214e7cd408c89464a8f5e5786a474e373da7bda0628cb8d1a87b8dd6099b5c1',
                          'trace': '1a6d60718cef3016577e0a16d6b63688147b780837d4a64e8a13e92b3d9bcb78'},
 'classic-tfcommit-failover': {'anchors': '',
                               'audit': True,
                               'bytes': 401071.0,
                               'makespan': '0.15542289124187453',
                               'messages': 366.0,
                               'stream': '23f9666e33671a21eb45784187bac3857c6620afe2331009d1b6d1de08c50eb7',
                               'trace': '6da0c48125a4edfe898fcd256e102c59aa6933d23db12234854cf557d703b545'},
 'sharded-4-failover': {'anchors': 'cee66a81258f3b8e1be8dcf83944563c01278e500adfe10c44a8468988fb8f7e',
                        'audit': True,
                        'bytes': 396677.0,
                        'makespan': '0.11979551105896681',
                        'messages': 408.0,
                        'stream': 'd8b0234cbc5e97a6a4fb865ca55d670abb48a15d39eeffe452c92e2a54d98db1',
                        'trace': 'faee4fc9610354405c2e60c7e06cf994eb14386a514e33345287fb718a15344c'},
 'single-0-failover': {'anchors': '',
                       'audit': True,
                       'bytes': 396677.0,
                       'makespan': '0.12194220730371404',
                       'messages': 408.0,
                       'stream': '4eb3b790057e614ab9704f5e37d45d84b1f02031668d6edd64fde3e21aeb6e57',
                       'trace': '1b75c83fb472bfed582e0e98401b5ea59e0b6e4b9fa7420f140265094655946b'}}
)


#: The failure-exit rows, recorded at PR 14 (before the round became one
#: object with a declared lifecycle); ``trace`` re-recorded at PR 16, as above.
GOLDEN.update(
{'classic-tfcommit-bad-cosi-fails': {'anchors': '',
                                     'audit': True,
                                     'bytes': 372630.0,
                                     'makespan': '0.10182183190232984',
                                     'messages': 343.0,
                                     'pending': {'s0': 0, 's1': 0, 's2': 0, 's3': 0},
                                     'stream': '35fca0482aab61d818639edd67ec0b849b74568a0126fc1b024178db5ed94ef9',
                                     'trace': '3156528512de25c31a8436cd18e45f10ffc53a2bf4d671fcc18f99747b8e60fb'},
 'classic-tfcommit-cohort-crash-fails': {'anchors': '',
                                         'audit': True,
                                         'bytes': 367575.0,
                                         'makespan': '0.14538471245000104',
                                         'messages': 341.0,
                                         'pending': {'s0': 0, 's1': 0, 's2': 0, 's3': 0},
                                         'stream': '35fca0482aab61d818639edd67ec0b849b74568a0126fc1b024178db5ed94ef9',
                                         'trace': 'a0b14d7399b715984dd90b6aa0270a14afedd2751dc1c844d7e12e39cdfe7b48'},
 'classic-tfcommit-fake-root-fails': {'anchors': '',
                                      'audit': True,
                                      'bytes': 372630.0,
                                      'makespan': '0.10082183190232984',
                                      'messages': 343.0,
                                      'pending': {'s0': 0, 's1': 0, 's2': 0, 's3': 0},
                                      'stream': '35fca0482aab61d818639edd67ec0b849b74568a0126fc1b024178db5ed94ef9',
                                      'trace': '5d1e6b25c2e8bd412afee1d56cead875e1ecf2e65abd6a6d53254b83ba26e0ac'}}
)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fingerprint_matches_the_recorded_constant(name):
    assert fingerprint(name) == GOLDEN[name]


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: fingerprint(name) for name in sorted(SCENARIOS)}, width=100)
