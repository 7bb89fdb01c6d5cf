"""Differential fuzz: the early-exit serial kernels are exact.

Below ``BIDIRECTIONAL_MIN_NODES`` the ``banned`` (Yen spur search) and
``residual`` (Algorithm 1) kernels exit early (``docs/ARCHITECTURE.md``,
"The CompactTopology contract").  They must still return exactly the
path of a plain FIFO sweep.  The
oracle is the generic :meth:`CompactTopology.shortest_path_idx`, which
has no early exit and takes the same constraints as a ``slot_ok``
predicate plus the same ``blocked`` bytearray.

Inputs are seeded graphs under 128 nodes: plain mappings with shuffled
rows, repeated neighbours (parallel slots) and self-loops, directed
mappings, and delta-derived snapshots of a churned
:class:`ChannelGraph`.  Queries cover blocked sources and
destinations, banned direct edges and stamped residuals, under both
kernel backends.
"""

from __future__ import annotations

import random

import pytest

from repro.network.compact import (
    CompactTopology,
    get_default_backend,
    numpy_available,
    set_default_backend,
)
from repro.network.topology import (
    barabasi_albert_edges,
    build_channel_graph,
    uniform_sampler,
)

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])
EPS = 1e-9
FLOW_EPOCH = 7


def _mapping(
    rng: random.Random, n: int, directed: bool, messy: bool
) -> dict[int, list[int]]:
    """A random ``node -> neighbors`` mapping with shuffled rows.

    ``messy`` sprinkles repeated neighbours and self-loops in.
    """
    p = rng.uniform(1.5, 6.0) / n
    adjacency: dict[int, list[int]] = {u: [] for u in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adjacency[u].append(v)
                if not directed or rng.random() < 0.5:
                    adjacency[v].append(u)
    if messy:
        for u in range(n):
            row = adjacency[u]
            if row and rng.random() < 0.3:
                row.append(rng.choice(row))
            if rng.random() < 0.1:
                row.append(u)
    for row in adjacency.values():
        rng.shuffle(row)
    return adjacency


def _churned_snapshot(
    rng: random.Random, n: int, backend: str
) -> CompactTopology:
    """A delta-derived snapshot: tombstoned and arena slots in the rows."""
    graph = build_channel_graph(
        barabasi_albert_edges(n, 2, rng), uniform_sampler(1.0, 2.0), rng
    )
    previous = get_default_backend()
    set_default_backend(backend)
    try:
        graph.compact()
        for _ in range(n // 2):
            if rng.random() < 0.5:
                a, b = rng.sample(graph.nodes, 2)
                if not graph.has_channel(a, b):
                    graph.add_channel(a, b, 1.0, 1.0)
            else:
                channel = rng.choice(list(graph.channels()))
                graph.remove_channel(channel.a, channel.b)
        snapshot = graph.compact()
    finally:
        set_default_backend(previous)
    assert snapshot.backend == backend
    return snapshot


def _topologies(seed: int, backend: str) -> list[CompactTopology]:
    rng = random.Random(seed)
    out = []
    for directed, messy in ((False, False), (False, True), (True, True)):
        n = rng.randrange(2, 128)
        out.append(
            CompactTopology.from_adjacency(
                _mapping(rng, n, directed, messy), backend=backend
            )
        )
    out.append(_churned_snapshot(rng, rng.randrange(8, 128), backend))
    return out


def _queries(rng: random.Random, ct: CompactTopology, count: int):
    """Random ``(src, dst)`` pairs, a few of them ``src == dst``."""
    n = ct.num_nodes
    for _ in range(count):
        src = rng.randrange(n)
        dst = src if rng.random() < 0.05 else rng.randrange(n)
        yield src, dst


def _banned_and_blocked(rng: random.Random, ct: CompactTopology, src, dst):
    n = ct.num_nodes
    rows = ct.neighbor_idx
    banned = {
        u * n + v
        for u in range(n)
        for v in rows[u]
        if rng.random() < 0.15
    }
    if rng.random() < 0.4:
        banned.add(src * n + dst)  # the direct edge, if there is one
    blocked = None
    if rng.random() < 0.8:
        blocked = bytearray(
            1 if rng.random() < 0.15 else 0 for _ in range(n)
        )
        if rng.random() < 0.3:
            blocked[src] = 1  # exempt: the search starts there anyway
        if rng.random() < 0.1:
            blocked[dst] = 1
    return banned, blocked


def _stamped_residuals(rng: random.Random, ct: CompactTopology):
    slots = ct.num_slots
    stamp = [FLOW_EPOCH if rng.random() < 0.5 else 0 for _ in range(slots)]
    residual = [
        rng.choice((0.0, EPS / 2, EPS, 0.5, 3.0)) for _ in range(slots)
    ]
    return residual, stamp


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(12))
def test_banned_kernel_matches_generic_sweep(seed, backend):
    rng = random.Random(31_000 + seed)
    for ct in _topologies(seed, backend):
        n = ct.num_nodes
        assert n < CompactTopology.BIDIRECTIONAL_MIN_NODES
        tail = ct.slot_tail
        heads = ct.indices
        for src, dst in _queries(rng, ct, 40):
            banned, blocked = _banned_and_blocked(rng, ct, src, dst)
            got = ct.shortest_path_banned(src, dst, banned, blocked)
            want = ct.shortest_path_idx(
                src,
                dst,
                slot_ok=lambda s: tail[s] * n + heads[s] not in banned,
                blocked=blocked,
            )
            assert got == (None if want is None else want[0]), (src, dst)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(12))
def test_residual_kernel_matches_generic_sweep(seed, backend):
    rng = random.Random(47_000 + seed)
    for ct in _topologies(seed, backend):
        for src, dst in _queries(rng, ct, 40):
            residual, stamp = _stamped_residuals(rng, ct)
            got = ct.shortest_path_residual(
                src, dst, residual, stamp, FLOW_EPOCH, EPS
            )
            want = ct.shortest_path_idx(
                src,
                dst,
                slot_ok=lambda s: not (
                    stamp[s] == FLOW_EPOCH and residual[s] <= EPS
                ),
            )
            assert got == want, (src, dst)


def test_two_hop_answers_follow_row_order():
    # 0's row lists 3 before 1; both reach 4 in two hops, so the sweep
    # (and the early exit) takes 3.  Banning 0->3 moves it to 1.
    ct = CompactTopology.from_adjacency(
        {0: [2, 3, 1], 1: [4], 2: [], 3: [4], 4: []}
    )
    assert ct.shortest_path_banned(0, 4, set()) == [0, 3, 4]
    assert ct.shortest_path_banned(0, 4, {0 * 5 + 3}) == [0, 1, 4]
    blocked = bytearray(5)
    blocked[1] = blocked[3] = 1
    assert ct.shortest_path_banned(0, 4, set(), blocked) is None


def test_parallel_slots_clear_the_simple_flag():
    simple = CompactTopology.from_adjacency({0: [1, 0], 1: [0]})
    assert simple.is_simple  # a self-loop is one slot, not a parallel one
    parallel = CompactTopology.from_adjacency({0: [1, 1], 1: [0]})
    assert not parallel.is_simple
    # The slot map names the second 0->1 slot.  It is saturated and
    # the first is not, so the sweep reaches 1 over the first slot.
    residual = [5.0, 0.0, 5.0]
    stamp = [FLOW_EPOCH] * 3
    assert parallel.shortest_path_residual(
        0, 1, residual, stamp, FLOW_EPOCH, EPS
    ) == ([0, 1], [0])
    # The banned kernel judges edges by node pair, so parallel slots
    # need no gate there.
    assert parallel.shortest_path_banned(0, 1, set()) == [0, 1]
    assert parallel.shortest_path_banned(0, 1, {0 * 2 + 1}) is None
