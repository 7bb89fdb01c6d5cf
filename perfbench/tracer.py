"""Span tracer and layer wrappers for the benchmark's traced run.

Nothing under ``src/`` knows about tracing.  :func:`instrument` wraps the
layers' public functions at the module bindings their callers look them
up through (``repro.core.flash.find_elephant_paths``,
``RoutingTable.replace_path``, ...) and returns a :class:`Patches` whose
``restore()`` puts every original back, so untraced and traced sets run
in one process.

A span records a name, start and end (``perf_counter_ns``), its parent
span and the payment id it serves.  Spans nest strictly (the library is
single-threaded and every wrapper closes its span in ``finally``), so a
span's self time is its duration minus the durations of its direct
children, which never goes below zero.  Spans live in flat arrays and
are written out once, when the run ends.  Hot paths that only need a
count (spur searches, lookups, event scheduling) are counted without a
span to keep the overhead low.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    """In-memory span store plus named counters for one traced set."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.payment = array("q")
        self.self_ns = array("q")
        #: Open spans: ``[span index, summed child duration]``.
        self._stack: list[list[int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: Payment id stamped on spans opened while a route call runs.
        self.payment_id = -1
        #: Routing-table entries seen by lookups, for ``table.yen_cursor.max``.
        self.table_entries: dict[tuple, object] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> None:
        self._stack.append([len(self.start), 0])
        self.name.append(name_id)
        self.parent.append(self._stack[-2][0] if len(self._stack) > 1 else -1)
        self.payment.append(self.payment_id)
        self.end.append(0)
        self.self_ns.append(0)
        self.start.append(perf_counter_ns())

    def close(self) -> None:
        now = perf_counter_ns()
        index, children = self._stack.pop()
        duration = now - self.start[index]
        self.end[index] = now
        self.self_ns[index] = duration - children
        if self._stack:
            self._stack[-1][1] += duration

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(result, args)`` then counts."""
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counted(self, fn, after):
        """``fn`` with ``after(result, args)`` run on each call, no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result, args)
            return result

        return wrapper

    # ---------------------------------------------------------- summaries

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, total seconds, self seconds)``."""
        calls: dict[int, int] = defaultdict(int)
        total: dict[int, int] = defaultdict(int)
        own: dict[int, int] = defaultdict(int)
        for i, name_id in enumerate(self.name):
            calls[name_id] += 1
            total[name_id] += self.end[i] - self.start[i]
            own[name_id] += self.self_ns[i]
        return {
            self.names[k]: (calls[k], total[k] / 1e9, own[k] / 1e9)
            for k in calls
        }

    def durations_ms(self, name: str) -> list[float]:
        """Per-call wall times of every span called ``name``, in ms."""
        if name not in self._name_ids:
            return []
        wanted = self._name_ids[name]
        return [
            (self.end[i] - self.start[i]) / 1e6
            for i, name_id in enumerate(self.name)
            if name_id == wanted
        ]

    def top_level_s(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.parent[i] < 0
        ) / 1e9

    def min_self_ns(self) -> int:
        return min(self.self_ns, default=0)

    def write(self, path) -> None:
        """Write every span as one CSV row (times in ns from the first)."""
        origin = self.start[0] if self.start else 0
        with open(path, "w", encoding="utf-8") as out:
            out.write("index,name,start_ns,end_ns,self_ns,parent,payment\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i] - origin},"
                    f"{self.end[i] - origin},{self.self_ns[i]},"
                    f"{self.parent[i]},{self.payment[i]}\n"
                )


class Patches:
    """Attribute replacements that ``restore()`` undoes in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr = make(current)``; classmethods stay classmethods."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def instrument(tracer: Tracer) -> Patches:
    """Wrap every traced layer; the caller must ``restore()`` the result."""
    import repro.baselines.shortest_path as shortest_path
    import repro.baselines.speedymurmurs as speedymurmurs
    import repro.core.flash as flash
    import repro.core.routing_table as routing_table
    import repro.network.compact as compact
    import repro.network.dynamics as dynamics
    import repro.network.view as view
    import repro.protocol.events as events
    import repro.scenarios.catalog as catalog
    import repro.sim.concurrent as concurrent
    import repro.sim.metrics as metrics

    counts = tracer.counts
    patches = Patches()

    def add(key, amount=1):
        counts[key] += amount

    # -- traces: list generators (set-up) and the lightning stream (routing)
    def count_list(result, args):
        add("traces.txns", len(result))

    for attr in ("generate_ripple_workload", "generate_mixed_workload"):
        patches.replace(
            catalog, attr, lambda fn: tracer.span("traces.stream", fn, count_list)
        )
    stream_id = tracer.name_id("traces.stream")

    class TracedStream:
        def __init__(self, iterator) -> None:
            self._iterator = iterator

        def __iter__(self):
            return self

        def __next__(self):
            tracer.open(stream_id)
            try:
                transaction = next(self._iterator)
            finally:
                tracer.close()
            add("traces.txns")
            return transaction

    patches.replace(
        catalog,
        "stream_lightning_workload",
        lambda fn: functools.wraps(fn)(
            lambda *args, **kwargs: TracedStream(iter(fn(*args, **kwargs)))
        ),
    )

    # -- compact topology builds (a snapshot passed in is returned as
    # is, not built) and Yen's spur searches
    def build_span(fn):
        traced = tracer.span("compact.build", fn)

        @functools.wraps(fn)
        def from_adjacency(cls, adjacency, *args, **kwargs):
            if isinstance(adjacency, cls):
                return fn(cls, adjacency, *args, **kwargs)
            return traced(cls, adjacency, *args, **kwargs)

        return from_adjacency

    patches.replace(compact.CompactTopology, "from_adjacency", build_span)
    patches.replace(
        compact.CompactTopology,
        "shortest_path_banned",
        lambda fn: tracer.counted(fn, lambda r, a: add("paths.spur_searches")),
    )

    # -- path algorithms, at the bindings the routers call them through
    patches.replace(
        routing_table, "yen_k_shortest_paths",
        lambda fn: tracer.span("paths.yen", fn),
    )
    for module, attr in (
        (routing_table, "bfs_tree_parents"),
        (speedymurmurs, "bfs_tree_parents"),
        (shortest_path, "bfs_shortest_path"),
    ):
        patches.replace(module, attr, lambda fn: tracer.span("paths.bfs", fn))

    # -- the mice routing table
    def before_lookup(fn):
        @functools.wraps(fn)
        def lookup(table, sender, receiver, *args, **kwargs):
            hit = (sender, receiver) in table
            entry = fn(table, sender, receiver, *args, **kwargs)
            add("table.lookups")
            add("table.hits", hit)
            tracer.table_entries[(id(table), sender, receiver)] = entry
            return entry

        return lookup

    table_cls = routing_table.RoutingTable
    patches.replace(table_cls, "lookup", before_lookup)
    patches.replace(
        table_cls, "replace_path", lambda fn: tracer.span("table.replace", fn)
    )
    patches.replace(
        table_cls, "apply_events",
        lambda fn: tracer.span("table.apply_events", fn),
    )

    # -- Flash's elephant and mice paths
    def count_maxflow(result, args):
        add("maxflow.satisfied", result.satisfied)

    def count_mice(result, args):
        add("mice.dead_paths", len(result.dead_paths))

    patches.replace(
        flash, "find_elephant_paths",
        lambda fn: tracer.span("maxflow", fn, count_maxflow),
    )
    patches.replace(flash, "split_payment", lambda fn: tracer.span("fee_opt", fn))
    patches.replace(
        flash, "route_mice_payment", lambda fn: tracer.span("mice", fn, count_mice)
    )

    # -- balance reservations through the network view
    def count_reserve(result, args):
        add("view.reserve.failed", not result)

    for owner, attr in (
        (view.PaymentSession, "try_reserve"),
        (view.NetworkView, "try_execute"),
        (concurrent.ConcurrentNetworkView, "try_execute"),
    ):
        patches.replace(
            owner, attr, lambda fn: tracer.span("view.reserve", fn, count_reserve)
        )

    # -- churn application, the event queue and the streaming metrics
    patches.replace(
        dynamics.GossipSchedule,
        "advance_to",
        lambda fn: tracer.counted(
            fn, lambda applied, a: add("dynamics.events_applied", applied)
        ),
    )

    def count_schedule(result, args):
        add("events.scheduled")
        pending = args[0].pending()
        if pending > counts["events.max_pending"]:
            counts["events.max_pending"] = pending

    patches.replace(
        events.EventQueue, "schedule",
        lambda fn: tracer.counted(fn, count_schedule),
    )
    patches.replace(
        metrics.StreamingMetricsAccumulator,
        "observe",
        lambda fn: tracer.span("metrics.observe", fn),
    )
    return patches


def instrument_router(tracer: Tracer, router, key: str) -> None:
    """Span the router's own entry points (instance attributes).

    ``functools.wraps`` keeps the original signature visible, so the
    gossip schedule still sees whether the hook accepts ``events``.
    """
    route = router.route
    route_id = tracer.name_id(f"route.{key}")

    @functools.wraps(route)
    def traced_route(transaction):
        tracer.payment_id = transaction.txid
        tracer.open(route_id)
        try:
            return route(transaction)
        finally:
            tracer.close()
            tracer.payment_id = -1

    router.route = traced_route
    router.on_topology_update = tracer.span(
        "dynamics.gossip", router.on_topology_update
    )
