"""Tests for the serialization graph (Lemma 3 support)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.serialization_graph import SerializationGraph
from repro.common.timestamps import Timestamp
from repro.txn.transaction import ReadSetEntry, Transaction, WriteSetEntry


def edges_of(graph):
    """Every edge of ``graph`` as a ``(from, to)`` pair."""
    return {(a, b) for a, targets in graph._edges.items() for b in targets}


def make_txn(txn_id, counter, reads=(), writes=(), client="c0"):
    zero = Timestamp.zero()
    return Transaction(
        txn_id=txn_id,
        client_id=client,
        commit_ts=Timestamp(counter, client),
        read_set=[ReadSetEntry(i, 0, zero, zero) for i in reads],
        write_set=[WriteSetEntry(i, 1) for i in writes],
    )


class TestSerializationGraph:
    def test_conflicting_transactions_get_an_edge(self):
        t1 = make_txn("t1", 1, writes=["x"])
        t2 = make_txn("t2", 2, reads=["x"])
        graph = SerializationGraph.from_transactions([t1, t2])
        assert ("t1", "t2") in edges_of(graph)
        assert graph.find_cycle() is None

    def test_independent_transactions_have_no_edges(self):
        t1 = make_txn("t1", 1, writes=["x"])
        t2 = make_txn("t2", 2, writes=["y"])
        graph = SerializationGraph.from_transactions([t1, t2])
        assert edges_of(graph) == set()

    def test_timestamp_ordered_history_is_acyclic(self):
        txns = [make_txn(f"t{i}", i + 1, reads=["x"], writes=["x"]) for i in range(5)]
        graph = SerializationGraph.from_transactions(txns)
        assert graph.find_cycle() is None

    def test_manual_cycle_detected(self):
        graph = SerializationGraph()
        for name in ("a", "b", "c"):
            graph.add_transaction(make_txn(name, 1))
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        graph.add_edge("c", "a")
        cycle = graph.find_cycle()
        assert cycle is not None
        assert set(cycle) >= {"a", "b", "c"}

    def test_self_loop_detected(self):
        graph = SerializationGraph()
        graph.add_transaction(make_txn("a", 1))
        graph.add_edge("a", "a")
        assert graph.find_cycle() == ["a", "a"]

    @staticmethod
    def conflict_chain(length):
        """``length`` transactions whose conflicts form one chain: deeper than
        the interpreter's recursion limit, which a recursive walk ran into."""
        names = [f"t{i:04d}" for i in range(length)]
        graph = SerializationGraph()
        for earlier, later in zip(names, names[1:]):
            graph.add_edge(earlier, later)
        return names, graph

    def test_a_long_conflict_chain_is_acyclic(self):
        _, graph = self.conflict_chain(1200)
        assert graph.find_cycle() is None

    def test_a_long_conflict_chain_closed_into_a_cycle_is_reported(self):
        names, graph = self.conflict_chain(1200)
        graph.add_edge(names[-1], names[0])
        assert graph.find_cycle() == names + [names[0]]

    def test_reports_the_cycle_a_recursive_walk_in_sorted_order_finds(self):
        import random

        def recursive_cycle(edges):
            visiting, finished, path = set(), set(), []

            def dfs(node):
                visiting.add(node)
                path.append(node)
                for child in sorted(edges.get(node, ())):
                    if child in finished:
                        continue
                    if child in visiting:
                        return path[path.index(child):] + [child]
                    found = dfs(child)
                    if found:
                        return found
                visiting.discard(node)
                finished.add(node)
                path.pop()
                return None

            for node in sorted(edges):
                if node not in finished:
                    cycle = dfs(node)
                    if cycle:
                        return cycle
            return None

        rng = random.Random(22)
        cyclic = 0
        for _ in range(200):
            nodes = [f"n{i}" for i in range(rng.randint(1, 9))]
            edges = {node: set() for node in nodes}
            for _ in range(rng.randint(0, 14)):
                edges[rng.choice(nodes)].add(rng.choice(nodes))
            graph = SerializationGraph()
            for node, children in edges.items():
                graph.add_transaction(make_txn(node, 1))
                for child in children:
                    graph.add_edge(node, child)
            expected = recursive_cycle(edges)
            assert graph.find_cycle() == expected
            cyclic += expected is not None
        assert 20 < cyclic < 180  # both verdicts are exercised

    def test_node_and_edge_counts(self):
        t1 = make_txn("t1", 1, writes=["x"])
        t2 = make_txn("t2", 2, reads=["x"], writes=["y"])
        t3 = make_txn("t3", 3, reads=["y"])
        graph = SerializationGraph.from_transactions([t1, t2, t3])
        assert set(graph._edges) == {"t1", "t2", "t3"}
        assert edges_of(graph) == {("t1", "t2"), ("t2", "t3")}


#: A small history: ids repeat (a@1 -> b@2 -> a@3 is the one way to a cycle)
#: and commit timestamps tie.
_histories = st.lists(
    st.tuples(
        st.sampled_from("abcd"),
        st.integers(0, 3),
        st.sampled_from(["c0", "c1"]),
        st.sets(st.sampled_from("xyz")),
        st.sets(st.sampled_from("xyz")),
    ),
    max_size=7,
)


def _reference_edges(history):
    """Every ordered pair of positions, taken on its own: an edge from the one
    that commits first -- the earlier in the list on a tie -- to the other,
    whenever the two touch an item and at least one of them writes it."""
    edges = set()
    for i, (id_i, ts_i, reads_i, writes_i) in enumerate(history):
        for j, (id_j, ts_j, reads_j, writes_j) in enumerate(history):
            first = ts_i < ts_j or (ts_i == ts_j and i < j)
            if first and (writes_i & (reads_j | writes_j) or reads_i & writes_j):
                edges.add((id_i, id_j))
    return edges


def _reaches_itself(nodes, edges):
    reach = {node: {b for a, b in edges if a == node} for node in nodes}
    changed = True
    while changed:
        changed = False
        for node in nodes:
            grown = reach[node].union(*(reach[other] for other in reach[node]))
            if grown != reach[node]:
                reach[node], changed = grown, True
    return any(node in reach[node] for node in nodes)


class TestFromTransactionsAgainstAllPairs:
    """Pins ``from_transactions`` -- its edges, and the cycle ``find_cycle``
    reports on them -- to a brute-force reference over every pair."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_histories)
    def test_edges_and_cycle_match_the_reference(self, raw):
        txns = [
            make_txn(txn_id, counter, sorted(reads), sorted(writes), client)
            for txn_id, counter, client, reads, writes in raw
        ]
        history = [
            (t.txn_id, t.commit_ts, t.items_read(), t.items_written()) for t in txns
        ]
        graph = SerializationGraph.from_transactions(txns)

        nodes = {t.txn_id for t in txns}
        edges = _reference_edges(history)
        assert set(graph._edges) == nodes
        assert edges_of(graph) == edges

        cycle = graph.find_cycle()
        assert (cycle is not None) == _reaches_itself(nodes, edges)
        if cycle is not None:
            assert cycle[0] == cycle[-1] and len(set(cycle)) == len(cycle) - 1
            assert all(step in edges for step in zip(cycle, cycle[1:]))
        if len(nodes) == len(txns):  # edges follow commit order: no repeated id, no cycle
            assert cycle is None

    def test_a_repeated_id_closes_a_cycle(self):
        txns = [
            make_txn("a", 1, writes=["x"]),
            make_txn("b", 2, reads=["x"], writes=["y"]),
            make_txn("a", 3, reads=["y"]),
        ]
        assert SerializationGraph.from_transactions(txns).find_cycle() == ["a", "b", "a"]

    def test_equal_commit_timestamps_keep_the_order_given(self):
        first, second = make_txn("p", 1, writes=["x"]), make_txn("q", 1, writes=["x"])
        assert edges_of(SerializationGraph.from_transactions([first, second])) == {("p", "q")}
        assert edges_of(SerializationGraph.from_transactions([second, first])) == {("q", "p")}
