"""Differential fuzz: resumed Yen rankings equal from-scratch Yen.

The routing table keeps each entry's Yen state (accepted paths,
candidate heap, ``pushed`` set) so a dead-path replacement costs one Yen
iteration.  Yen over a fixed topology is prefix-stable, so this must
not change a single path.  Three oracles pin it:

* a :class:`RoutingTable` whose rankings restart from scratch on every
  call, driven through the same interleaving of ``lookup``,
  ``replace_path``, ``apply_events`` (opens and closes) and ``refresh``
  as the resuming table — every entry, cursor, replacement and source
  layer must agree after every step;
* ``yen_k_shortest_paths`` with a shared :class:`YenRanking` against
  fresh runs, for growing, shrinking and repeated ``k``;
* networkx's ``shortest_simple_paths`` for validity, simplicity and the
  multiset of hop counts of the first ``k`` paths.

Topologies are seeded Barabási–Albert and Erdős–Rényi graphs (one above
``BIDIRECTIONAL_MIN_NODES``, so the bidirectional spur kernel runs too)
and the bundled 96-node Lightning snapshot.
"""

from __future__ import annotations

import random

import pytest

from repro.core.routing_table import RoutingTable
from repro.network.dynamics import ChannelEvent, ChannelEventType
from repro.network.graph import ChannelGraph
from repro.network.paths import (
    YenRanking,
    is_simple_path,
    yen_k_shortest_paths,
)
from repro.network.topology import (
    barabasi_albert_edges,
    build_channel_graph,
    uniform_sampler,
)
from repro.scenarios.catalog import LIGHTNING_SNAPSHOT_JSON
from repro.scenarios.loaders import load_snapshot_json


class FromScratchTable(RoutingTable):
    """The routing table with every ranking recomputed from scratch."""

    def _ranked_paths(self, sender, receiver, topology, k, entry):
        if k <= 0:
            return []
        first = self._first_path(sender, receiver, topology)
        if first is None:
            return []
        return yen_k_shortest_paths(
            topology, sender, receiver, k, first=first
        )


class ParentRuleTable(FromScratchTable):
    """The table before rankings were resumed: the cursor always grows.

    ``replace_path`` re-ranks from scratch and advances ``yen_cursor``
    by one on every replacement, exhausted ranking or not.
    """

    def replace_path(self, sender, receiver, dead_path, topology):
        entry = self._entries.get((sender, receiver))
        if entry is None or dead_path not in entry.paths:
            return None
        ranked = self._ranked_paths(
            sender, receiver, topology, entry.yen_cursor + 1, entry
        )
        existing = {tuple(path) for path in entry.paths}
        replacement = next(
            (c for c in ranked[entry.yen_cursor:] if tuple(c) not in existing),
            None,
        )
        entry.yen_cursor = max(entry.yen_cursor + 1, len(ranked))
        index = entry.paths.index(dead_path)
        if replacement is None:
            del entry.paths[index]
        else:
            entry.paths[index] = replacement
        return replacement


def _erdos_renyi_edges(rng: random.Random, n: int, degree: float):
    p = degree / (n - 1)
    return [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]


def _graph(kind: str, seed: int) -> ChannelGraph:
    rng = random.Random(seed)
    if kind == "lightning":
        return load_snapshot_json(LIGHTNING_SNAPSHOT_JSON)
    if kind == "ba":
        edges = barabasi_albert_edges(60, 2, rng)
    elif kind == "ba-large":
        edges = barabasi_albert_edges(150, 2, rng)
    else:
        edges = _erdos_renyi_edges(rng, 50, 3.5)
    graph = build_channel_graph(edges, uniform_sampler(10.0, 20.0), rng)
    for node in range(50):
        graph.add_node(node)  # ER may leave isolated nodes out
    return graph


def _churn_batch(rng: random.Random, graph: ChannelGraph, size: int):
    """Apply ``size`` random opens/closes to ``graph``; return the events."""
    events = []
    for _ in range(size):
        if rng.random() < 0.5:
            a, b = rng.sample(graph.nodes, 2)
            if graph.has_channel(a, b):
                continue
            graph.add_channel(a, b, 10.0, 10.0)
            events.append(
                ChannelEvent(0.0, ChannelEventType.OPEN, a, b, 10.0, 10.0)
            )
        else:
            channel = rng.choice(list(graph.channels()))
            graph.remove_channel(channel.a, channel.b)
            events.append(
                ChannelEvent(0.0, ChannelEventType.CLOSE, channel.a, channel.b)
            )
    return events


def _state(table: RoutingTable):
    return (
        [
            (pair, entry.paths, entry.yen_cursor)
            for pair, entry in table._entries.items()
        ],
        list(table._source_layers),
    )


GRAPHS = ["ba", "er", "ba-large", "lightning"]


@pytest.mark.parametrize("kind", GRAPHS)
@pytest.mark.parametrize("seed", range(3))
def test_table_resumed_matches_from_scratch(kind, seed):
    rng = random.Random(1_000 * seed + len(kind))
    graph = _graph(kind, seed)
    resumed = RoutingTable(m=3)
    scratch = FromScratchTable(m=3)
    for table in (resumed, scratch):
        # A small layer cache forces evictions, so a ranking's first
        # path can come from a rebuilt tree rather than a re-stamped one.
        table.MAX_SOURCE_LAYERS = 4
    nodes = graph.nodes
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(8)]
    topology = graph.compact()
    replacements = 0
    for _step in range(160):
        roll = rng.random()
        if roll < 0.3:
            sender, receiver = rng.choice(pairs)
            a = resumed.lookup(sender, receiver, topology)
            b = scratch.lookup(sender, receiver, topology)
            assert a.paths == b.paths
        elif roll < 0.9:
            live = [
                (pair, entry)
                for pair, entry in scratch._entries.items()
                if entry.paths
            ]
            if not live:
                continue
            (sender, receiver), entry = rng.choice(live)
            dead = rng.choice(entry.paths)
            got = resumed.replace_path(sender, receiver, dead, topology)
            want = scratch.replace_path(sender, receiver, dead, topology)
            assert got == want
            replacements += got is not None
        elif roll < 0.93:
            events = _churn_batch(rng, graph, rng.randint(1, 3))
            topology = graph.compact()
            assert resumed.apply_events(events, topology) == (
                scratch.apply_events(events, topology)
            )
            # No ranking outlives the batch: recomputed entries rank on
            # the new snapshot, survivors drop theirs.
            assert all(
                entry.ranking is None or entry.ranking._adjacency is topology
                for entry in resumed._entries.values()
            )
        elif roll < 0.96:
            # Evict every layer: the next first path comes from a fresh
            # BFS, which may break ties unlike a re-stamped tree.
            resumed.invalidate_structural_cache()
            scratch.invalidate_structural_cache()
        else:
            resumed.refresh(topology)
            scratch.refresh(topology)
        assert _state(resumed) == _state(scratch)
    assert replacements > 20


def test_table_drops_every_ranking_on_maintenance(grid_graph):
    table = RoutingTable(m=2)
    topology = grid_graph.compact()
    for receiver in (2, 6, 8):
        entry = table.lookup(0, receiver, topology)
        table.replace_path(0, receiver, entry.paths[0], topology)
    assert all(e.ranking is not None for e in table._entries.values())
    # An empty batch keeps every entry and layer, but no ranking may
    # outlive the call: each pins the snapshot it was built on.
    table.apply_events([], topology)
    assert all(e.ranking is None for e in table._entries.values())
    table.lookup(0, 2, topology)
    entry = table._entries[(0, 8)]
    table.replace_path(0, 8, entry.paths[0], topology)
    table.refresh(topology)
    assert all(
        e.ranking is None or e.ranking._adjacency is topology
        for e in table._entries.values()
    )


def test_cursor_clamps_to_an_exhausted_ranking(line_graph):
    line_graph.add_channel(0, 2, 100.0, 100.0)  # exactly two 0->3 paths
    table = RoutingTable(m=1)
    topology = line_graph.compact()
    entry = table.lookup(0, 3, topology)
    assert entry.paths == [[0, 2, 3]]
    assert table.replace_path(0, 3, [0, 2, 3], topology) == [0, 1, 2, 3]
    assert entry.yen_cursor == 2
    assert table.replace_path(0, 3, [0, 1, 2, 3], topology) is None
    assert entry.paths == []
    assert entry.ranking.exhausted
    assert entry.yen_cursor == 2  # the ranking's length, not 3


def test_cursor_never_moves_back_under_churn():
    """A survivor keeps its cursor when churn shrinks its ranking.

    The cursor stops at an exhausted ranking, where the old rule kept
    counting; on a fixed topology both offer nothing more.  Under churn
    they part: after an open grows the ranking, the table offers ranks
    from its own cursor, and the old rule from further down.
    """
    graph = ChannelGraph()
    for a, b in [(0, 1), (0, 2), (0, 3), (1, 9), (2, 9), (3, 4), (4, 9), (2, 3)]:
        graph.add_channel(a, b, 10.0, 10.0)
    a, b, c = [0, 1, 9], [0, 2, 9], [0, 3, 4, 9]
    d, e = [0, 3, 2, 9], [0, 2, 3, 4, 9]
    topology = graph.compact()
    assert yen_k_shortest_paths(topology, 0, 9, 9) == [a, b, c, d, e]
    table, parent = RoutingTable(m=3), ParentRuleTable(m=3)
    entry = table.lookup(0, 9, topology)
    old = parent.lookup(0, 9, topology)
    for dead, want in [(c, d), (d, e), (e, None)]:
        assert table.replace_path(0, 9, dead, topology) == want
        assert parent.replace_path(0, 9, dead, topology) == want
    assert entry.paths == old.paths == [a, b]
    assert (entry.yen_cursor, old.yen_cursor) == (5, 6)

    # Closing 2-3 kills d and e, off the cached paths and the BFS tree:
    # the entry survives with a three-path ranking under its cursor.
    graph.remove_channel(2, 3)
    close = [ChannelEvent(0.0, ChannelEventType.CLOSE, 2, 3)]
    topology = graph.compact()
    assert table.apply_events(close, topology) == (0, 0)
    assert parent.apply_events(close, topology) == (0, 0)
    assert table._entries[(0, 9)] is entry
    assert yen_k_shortest_paths(topology, 0, 9, 9) == [a, b, c]
    assert table.replace_path(0, 9, b, topology) is None
    assert parent.replace_path(0, 9, b, topology) is None
    assert (entry.yen_cursor, old.yen_cursor) == (5, 7)

    # Opens between nodes of one BFS level keep the entry too; the
    # ranking grows to nine paths and the two rules part.
    opens = []
    for x, y in [(2, 3), (1, 2)]:
        graph.add_channel(x, y, 10.0, 10.0)
        opens.append(ChannelEvent(0.0, ChannelEventType.OPEN, x, y, 10.0, 10.0))
    topology = graph.compact()
    assert table.apply_events(opens, topology) == (0, 0)
    assert parent.apply_events(opens, topology) == (0, 0)
    assert table._entries[(0, 9)] is entry
    ranked = yen_k_shortest_paths(topology, 0, 9, 9)
    assert len(ranked) == 9
    assert table.replace_path(0, 9, a, topology) == ranked[5] == d
    assert parent.replace_path(0, 9, a, topology) == ranked[7]
    assert (entry.yen_cursor, old.yen_cursor) == (6, 8)


@pytest.mark.parametrize("kind", GRAPHS)
@pytest.mark.parametrize("seed", range(3))
def test_shared_ranking_matches_fresh_runs(kind, seed):
    rng = random.Random(7_000 * seed + len(kind))
    topology = _graph(kind, seed).compact()
    nodes = list(topology)
    ranking = YenRanking()
    for _ in range(6):
        source, target = rng.sample(nodes, 2)
        # Growing, repeated and shrinking k, then a jump.
        for k in (1, 2, 2, 5, 3, 9, 14):
            assert yen_k_shortest_paths(
                topology, source, target, k, resume=ranking
            ) == yen_k_shortest_paths(topology, source, target, k)
    # So is the first path: another fewest-hop path restarts the
    # ranking, which then leads with it.
    for _ in range(20):
        source, target = rng.sample(nodes, 2)
        ranked = yen_k_shortest_paths(topology, source, target, 4)
        if len(ranked) > 1 and len(ranked[1]) == len(ranked[0]):
            break
    else:
        pytest.fail("no pair with two fewest-hop paths")
    for first in (ranked[0], ranked[1], ranked[0]):
        got = yen_k_shortest_paths(
            topology, source, target, 4, first=first, resume=ranking
        )
        assert got[0] == first
        assert got == yen_k_shortest_paths(
            topology, source, target, 4, first=first
        )
    # A predicate is part of the binding: the ranking restarts for it.
    source, target = rng.sample(nodes, 2)
    avoid = rng.choice(nodes)

    def edge_ok(u, v):
        return v != avoid or v == target

    for k in (2, 6):
        assert yen_k_shortest_paths(
            topology, source, target, k, edge_ok=edge_ok, resume=ranking
        ) == yen_k_shortest_paths(topology, source, target, k, edge_ok=edge_ok)


@pytest.mark.parametrize("kind", GRAPHS)
@pytest.mark.parametrize("seed", range(3))
def test_ranking_agrees_with_networkx(kind, seed):
    nx = pytest.importorskip("networkx")
    rng = random.Random(9_000 * seed + len(kind))
    topology = _graph(kind, seed).compact()
    reference = nx.DiGraph()
    reference.add_nodes_from(topology)
    for node in topology:
        reference.add_edges_from((node, other) for other in topology[node])
    k = 10
    for _ in range(5):
        source, target = rng.sample(list(topology), 2)
        ranking = YenRanking()
        paths = [
            yen_k_shortest_paths(topology, source, target, j, resume=ranking)
            for j in range(1, k + 1)
        ][-1]
        try:
            expected = []
            for path in nx.shortest_simple_paths(reference, source, target):
                expected.append(path)
                if len(expected) == k:
                    break
        except nx.NetworkXNoPath:
            expected = []
        assert len(paths) == len(expected)
        assert len({tuple(path) for path in paths}) == len(paths)
        for path in paths:
            assert path[0] == source and path[-1] == target
            assert is_simple_path(path)
            assert all(v in topology[u] for u, v in zip(path, path[1:]))
        assert sorted(map(len, paths)) == sorted(map(len, expected))
