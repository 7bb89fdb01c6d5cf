#!/usr/bin/env python3
"""The repository benchmark: registered scenarios driven end to end.

Run from the repository root::

    python3 perfbench/run.py --workload ripple-paper --seed 1 --seconds 10 --trace 0

Each workload replays a registered scenario through the public entry
points ``repro run`` uses (``Scenario.factory``, the router factories of
``repro.sim.factories``, and ``run_simulation`` /
``run_dynamic_simulation`` / ``run_concurrent_simulation``).  It is a
closed loop: one process, one scheme at a time, serial, on the default
python kernel backend.  Replication ``i`` of a run at ``--seed S`` is
exactly run ``i`` of ``repro run <scenario> --runs R --seed S
--transactions N``, so every routing-quality number can be checked
against the CLI (``--parity``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
timed set once untraced and once traced and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads, metrics and their rationale.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import statistics
import sys
import tempfile
import traceback
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracer import Tracer, instrument, instrument_router

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

#: Display name (the factory key ``repro run`` uses) -> metric suffix.
SCHEMES = {
    "Flash": "flash",
    "Spider": "spider",
    "SpeedyMurmurs": "speedymurmurs",
    "Shortest Path": "shortest_path",
}
ALL_SCHEMES = tuple(SCHEMES)

#: Relative float slack of the output checks (share of network funds).
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Config:
    """``repro run <scenario> --runs replications --transactions payments``."""

    scenario: str
    payments: int
    replications: int
    schemes: tuple[str, ...]
    #: Payments of the single replication ``--tiny`` runs (self-test).
    tiny_payments: int

    def sized(self, tiny: bool) -> "Config":
        if not tiny:
            return self
        return Config(
            self.scenario, self.tiny_payments, 1, self.schemes, self.tiny_payments
        )


@dataclass(frozen=True)
class Workload:
    """A timed configuration plus, for single-scheme workloads, an untimed
    quality configuration that reports the other schemes' quality."""

    timed: Config
    quality: Config | None = None
    #: Whether total channel funds must be conserved (no churn).
    conserves_funds: bool = True


WORKLOADS = {
    # Figs 6a/7a: all four paper schemes, static sequential engine.
    "ripple-paper": Workload(
        Config("ripple-default", 250, 24, ALL_SCHEMES, tiny_payments=20),
    ),
    # Flash alone through the concurrent engine on streamed slices;
    # the routing table's replace_path -> Yen dominates.
    "lightning-day-flash": Workload(
        Config("lightning-day", 100, 60, ("Flash",), tiny_payments=20),
        Config(
            "lightning-day",
            100,
            60,
            ("Spider", "SpeedyMurmurs", "Shortest Path"),
            tiny_payments=20,
        ),
    ),
    # Shortest Path at trace scale: no routing table, Yen or maxflow;
    # stream generation, event queue, holds and streaming metrics.
    "lightning-day-sp": Workload(
        Config("lightning-day", 10_000, 8, ("Shortest Path",), tiny_payments=200),
        Config(
            "lightning-day",
            100,
            40,
            ("Flash", "Spider", "SpeedyMurmurs"),
            tiny_payments=20,
        ),
    ),
    # 10k-node churn: the routing table is written (apply_events, BFS).
    "scale-churn": Workload(
        Config("scale-churn", 40, 8, ALL_SCHEMES, tiny_payments=5),
        conserves_funds=False,
    ),
}


@dataclass
class SchemeRun:
    """One scheme's engine call in one replication."""

    payments: int
    setup_s: float = 0.0
    routing_s: float = 0.0
    ok: bool = True
    quality: dict[str, float] = field(default_factory=dict)


@dataclass
class Replication:
    build_s: float
    runs: dict[str, SchemeRun]
    #: Everything the replication did, output checks included.
    wall_s: float = 0.0

    @property
    def setup_s(self) -> float:
        return self.build_s + sum(run.setup_s for run in self.runs.values())

    @property
    def routing_s(self) -> float:
        return sum(run.routing_s for run in self.runs.values())

    @property
    def payments(self) -> int:
        return sum(run.payments for run in self.runs.values())


class Failures:
    """Payments whose engine call raised or failed an output check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, run: SchemeRun) -> None:
        self.attempted += run.payments
        if not run.ok:
            self.failed += run.payments

    def note(self, message: str) -> None:
        self.messages.append(message)
        print(f"check failed: {message}", file=sys.stderr)


# ---------------------------------------------------------------- running


def output_checks(
    name: str,
    result,
    working,
    payments: int,
    funds_before: float | None,
    failures: Failures,
) -> bool:
    """The per-scheme output checks every timed run makes.

    Holds and balances are float sums, so "zero" and "conserved" allow
    rounding of ``TOLERANCE`` times the network's funds (a release
    leaves e.g. 4e-15 held where the hold placed 1e2).
    """
    ok = True
    if int(result.transactions) != payments:
        failures.note(f"{name}: {result.transactions} records for {payments} payments")
        ok = False
    funds = working.network_funds()
    slack = TOLERANCE * funds
    for channel in working.channels():
        for src, dst in ((channel.a, channel.b), (channel.b, channel.a)):
            if channel.balance(src, dst) < -slack:
                failures.note(f"{name}: negative balance on {src}->{dst}")
                return False
    held = working.total_held()
    if abs(held) > slack:
        failures.note(f"{name}: {held} still held after the run")
        ok = False
    if funds_before is not None:
        if abs(funds - funds_before) > TOLERANCE * funds_before:
            failures.note(f"{name}: funds {funds_before} -> {funds}")
            ok = False
    return ok


def quality_of(result, payments: int) -> dict[str, float]:
    return {
        "success_ratio": result.success_ratio,
        "success_volume": result.success_volume / result.attempted_volume,
        "probes_per_txn": result.probe_messages / payments,
        # The raw values ``repro run`` stores, for the parity check.
        "raw_success_volume": result.success_volume,
        "raw_probe_messages": float(result.probe_messages),
    }


def replicate(
    config: Config,
    seed: int,
    index: int,
    conserves_funds: bool,
    failures: Failures,
    tracer=None,
) -> Replication:
    """Run ``index`` of ``repro run`` for every scheme of ``config``.

    Seeds follow ``repro.sim.runner``: the scenario RNG is
    ``seed + 1_000_003 * index`` and each scheme's router RNG adds
    ``7_919 * index`` plus a salt from the scheme name.  Each scheme
    routes on its own copy of the built graph (``copy_graph=False``
    hands the engine that copy), so the output checks can inspect it.
    """
    from repro.network.dynamics import run_dynamic_simulation
    from repro.scenarios import get_scenario
    from repro.sim.concurrent import ConcurrencyConfig, run_concurrent_simulation
    from repro.sim.engine import run_simulation
    from repro.sim.factories import paper_benchmark_factories
    from repro.sim.runner import resolve_engine

    span = _spanner(tracer)
    replication_started = perf_counter()
    scenario = get_scenario(config.scenario)
    engine, engine_params = resolve_engine(config.scenario, None, None)
    factory = scenario.factory(workload_overrides={"transactions": config.payments})
    factories = paper_benchmark_factories()

    started = perf_counter()
    with span("scenarios.build"):
        built = factory(random.Random(seed + 1_000_003 * index))
    build_s = perf_counter() - started
    if len(built) == 2:
        (graph, workload), events = built, None
    elif len(built) == 3:
        graph, workload, events = built
    else:
        raise ValueError(f"{config.scenario}: fault plans are not benchmarked")
    funds_before = graph.network_funds() if conserves_funds else None

    runs: dict[str, SchemeRun] = {}
    for name in config.schemes:
        run = runs[name] = SchemeRun(payments=config.payments)
        started = perf_counter()
        with span("setup.graph_copy"):
            working = graph.copy()
        run.setup_s = perf_counter() - started
        salt = zlib.crc32(name.encode("utf-8")) % 7_919
        rng = random.Random(seed + 7_919 * index + salt)
        built_router: list = []

        def build_router(view, routed, router_rng, _name=name):
            started = perf_counter()
            with span("setup.router"):
                router = factories[_name](view, routed, router_rng)
                if tracer is not None:
                    instrument_router(tracer, router, SCHEMES[_name])
            built_router.append((router, view, perf_counter() - started))
            return router

        started = perf_counter()
        try:
            with span("sim.engine"):
                if engine == "concurrent":
                    result = run_concurrent_simulation(
                        working,
                        build_router,
                        workload,
                        rng=rng,
                        config=ConcurrencyConfig.from_params(engine_params),
                        events=events,
                        copy_graph=False,
                    )
                elif events or graph.fee_controller is not None:
                    result = run_dynamic_simulation(
                        working,
                        build_router,
                        workload,
                        events or [],
                        rng=rng,
                        copy_graph=False,
                    )
                else:
                    result = run_simulation(
                        working, build_router, workload, rng=rng, copy_graph=False
                    )
        except Exception:
            traceback.print_exc()
            failures.note(f"{config.scenario}/{name}: engine raised")
            run.ok = False
            failures.record(run)
            continue
        elapsed = perf_counter() - started
        router, view, construction_s = built_router[0]
        run.setup_s += construction_s
        run.routing_s = elapsed - construction_s
        with span("bench.checks"):
            run.ok = output_checks(
                f"{config.scenario}/{name}",
                result,
                working,
                config.payments,
                funds_before,
                failures,
            )
            run.quality = quality_of(result, config.payments)
        failures.record(run)
        if tracer is not None:
            counts = tracer.counts
            counts["view.probe_messages"] += view.counters.probe_messages
            counts["view.payment_messages"] += view.counters.payment_messages
            counts["sim.retries"] += result.retries_total
            counts["sim.timeouts"] += result.timeout_failures
            counts["flash.elephants"] += getattr(router, "elephant_count", 0)
            counts["flash.mice"] += getattr(router, "mice_count", 0)
    return Replication(build_s, runs, perf_counter() - replication_started)


def _spanner(tracer):
    """``span(name)`` context managers, or no-ops when not tracing."""
    if tracer is None:
        return lambda name: contextlib.nullcontext()

    @contextlib.contextmanager
    def span(name):
        tracer.open(tracer.name_id(name))
        try:
            yield
        finally:
            tracer.close()

    return span


def run_set(
    config: Config,
    seed: int,
    conserves_funds: bool,
    failures: Failures,
    tracer=None,
) -> list[Replication]:
    return [
        replicate(config, seed, index, conserves_funds, failures, tracer)
        for index in range(config.replications)
    ]


def timed_samples(
    config: Config,
    seed: int,
    conserves_funds: bool,
    failures: Failures,
    seconds: float,
) -> list[list[Replication]]:
    """Replications round-robin until ``seconds`` have passed.

    Returns every replication's samples, in the order they ran.  The
    first pass always completes; after it, a replication starts only if
    the one just finished, run again, would still end in time.
    """
    samples: list[list[Replication]] = [[] for _ in range(config.replications)]
    started = perf_counter()
    count = 0
    while True:
        index = count % config.replications
        replication = replicate(config, seed, index, conserves_funds, failures)
        samples[index].append(replication)
        count += 1
        elapsed = perf_counter() - started
        if count >= config.replications and elapsed + replication.wall_s > seconds:
            return samples


# ---------------------------------------------------------------- metrics


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _spread(values) -> float:
    """Interquartile range as a share of the median (0 below 4 values)."""
    values = list(values)
    if len(values) < 4:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def quality_table(*sets: list[Replication]) -> dict[str, dict[str, list[float]]]:
    """``scheme -> quality name -> per-replication values``."""
    table: dict[str, dict[str, list[float]]] = {}
    for replications in sets:
        for replication in replications:
            for name, run in replication.runs.items():
                for key, value in run.quality.items():
                    table.setdefault(name, {}).setdefault(key, []).append(value)
    return table


def same_quality(first: list[Replication], second: list[Replication]) -> bool:
    return [
        {name: run.quality for name, run in rep.runs.items()} for rep in first
    ] == [{name: run.quality for name, run in rep.runs.items()} for rep in second]


def median_routing_s(samples: list[Replication]) -> float:
    """One replication's routing time: each scheme's median over the
    replication's samples, summed over schemes."""
    return sum(
        _median(sample.runs[name].routing_s for sample in samples)
        for name in samples[0].runs
    )


def throughput(samples: list[list[Replication]]) -> float:
    """Payments routed over routing seconds, summed over replications."""
    payments = sum(replication[0].payments for replication in samples)
    seconds = sum(median_routing_s(replication) for replication in samples)
    return payments / seconds if seconds > 0 else 0.0


def end_to_end(
    samples: list[list[Replication]], quality: dict, peak_rss_mb: float
) -> dict[str, tuple[float, str]]:
    every = [sample for replication in samples for sample in replication]
    metrics = {
        "txn_per_s": (throughput(samples), "payments/s"),
        "setup_s": (_median(sample.setup_s for sample in every), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    for name, key in SCHEMES.items():
        metrics[f"success_ratio.{key}"] = (
            _median(quality.get(name, {}).get("success_ratio", ())),
            "ratio",
        )
    metrics["probes_per_txn.spider"] = (
        _median(quality.get("Spider", {}).get("probes_per_txn", ())),
        "msgs/payment",
    )
    return metrics


def per_layer(
    tracer,
    traced: list[Replication],
    untraced: list[Replication],
    quality: dict,
) -> dict[str, tuple[float, str]]:
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return float(totals.get(name, (0, 0.0, 0.0))[0])

    def seconds(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics: dict[str, tuple[float, str]] = {
        "traces.stream_s": (seconds("traces.stream"), "s"),
        "traces.txns": (counts["traces.txns"], "count"),
        "scenarios.build_s": (seconds("scenarios.build"), "s"),
        "setup.graph_copy.s": (seconds("setup.graph_copy"), "s"),
        "setup.router.s": (seconds("setup.router"), "s"),
        "compact.builds": (calls("compact.build"), "count"),
        "compact.build_s": (seconds("compact.build"), "s"),
    }
    for layer in (
        "paths.yen",
        "table.replace",
        "table.apply_events",
        "paths.bfs",
        "dynamics.gossip",
        "maxflow",
        "fee_opt",
        "mice",
    ):
        metrics[f"{layer}.calls"] = (calls(layer), "count")
        metrics[f"{layer}.s"] = (seconds(layer), "s")
    attempts = calls("view.reserve")
    metrics.update(
        {
            "paths.spur_searches": (counts["paths.spur_searches"], "count"),
            "table.lookups": (counts["table.lookups"], "count"),
            "table.hit_ratio": (
                ratio(counts["table.hits"], counts["table.lookups"]),
                "ratio",
            ),
            "table.yen_cursor.max": (
                float(
                    max(
                        (e.yen_cursor for e in tracer.table_entries.values()),
                        default=0,
                    )
                ),
                "count",
            ),
            "dynamics.events_applied": (counts["dynamics.events_applied"], "count"),
            "maxflow.satisfied_ratio": (
                ratio(counts["maxflow.satisfied"], calls("maxflow")),
                "ratio",
            ),
            "mice.dead_paths": (counts["mice.dead_paths"], "count"),
            "flash.elephants": (counts["flash.elephants"], "count"),
            "flash.mice": (counts["flash.mice"], "count"),
            "view.reserve.attempts": (attempts, "count"),
            "view.reserve.failed": (counts["view.reserve.failed"], "count"),
            "view.reserve.ok_ratio": (
                ratio(attempts - counts["view.reserve.failed"], attempts),
                "ratio",
            ),
            "view.probe_messages": (counts["view.probe_messages"], "count"),
            "view.payment_messages": (counts["view.payment_messages"], "count"),
            "events.scheduled": (counts["events.scheduled"], "count"),
            "events.max_pending": (counts["events.max_pending"], "count"),
            "sim.retries": (counts["sim.retries"], "count"),
            "sim.timeouts": (counts["sim.timeouts"], "count"),
            "metrics.observe.s": (seconds("metrics.observe"), "s"),
            "sim.engine_self_s": (
                totals.get("sim.engine", (0, 0.0, 0.0))[2],
                "s",
            ),
        }
    )
    for name, key in SCHEMES.items():
        durations = tracer.durations_ms(f"route.{key}")
        metrics[f"route.{key}.calls"] = (float(len(durations)), "count")
        metrics[f"route.{key}.s"] = (seconds(f"route.{key}"), "s")
        metrics[f"route.{key}.p50_ms"] = (_median(durations), "ms")
        # The 99th percentile needs ten samples beyond it.
        metrics[f"route.{key}.p99_ms"] = (
            statistics.quantiles(durations, n=100)[98]
            if len(durations) >= 1000
            else 0.0,
            "ms",
        )
        metrics[f"success_volume.{key}"] = (
            _median(quality.get(name, {}).get("success_volume", ())),
            "ratio",
        )
    metrics["probes_per_txn.flash"] = (
        _median(quality.get("Flash", {}).get("probes_per_txn", ())),
        "msgs/payment",
    )
    metrics["trace.unattributed_s"] = (
        sum(rep.wall_s for rep in traced) - tracer.top_level_s(),
        "s",
    )
    # Paired per replication (same inputs), so the untraced set's cold
    # start (first imports, first builds) does not count as overhead.
    metrics["trace.overhead"] = (
        _median(t.wall_s / u.wall_s for t, u in zip(traced, untraced)),
        "ratio",
    )
    return metrics


# ------------------------------------------------------------- provenance


def git_commit() -> str:
    """The checkout's commit read from ``.git`` (``unknown`` without one)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(
    args, workload: Workload, tiny: bool, samples: list[list[Replication]]
) -> dict:
    """Where and how the run was made, with the spread of its samples:
    the interquartile range, as a share of the median, of the
    replications' throughputs and of all set-up times."""
    from repro.eval.store import machine_provenance
    from repro.network.compact import get_default_backend

    configs = [workload.timed] + ([workload.quality] if workload.quality else [])
    return {
        **machine_provenance(),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": get_default_backend(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "configs": [
            {
                "scenario": c.sized(tiny).scenario,
                "payments": c.sized(tiny).payments,
                "replications": c.sized(tiny).replications,
                "schemes": list(c.schemes),
            }
            for c in configs
        ],
        "samples_per_replication": [len(replication) for replication in samples],
        "spread": {
            "txn_per_s": _spread(throughput([r]) for r in samples),
            "setup_s": _spread(s.setup_s for r in samples for s in r),
        },
    }


# ---------------------------------------------------------------- parity


def parity(workload: Workload, seed: int, tiny: bool) -> int:
    """Compare every replication's quality with ``repro run``'s records."""
    from repro.cli import main as repro_main

    failures = Failures()
    mismatches = 0
    OUT_DIR.mkdir(exist_ok=True)
    configs = [workload.timed] + ([workload.quality] if workload.quality else [])
    for config in configs:
        config = config.sized(tiny)
        ours = run_set(config, seed, workload.conserves_funds, failures)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as out:
            argv = [
                "run",
                config.scenario,
                "--runs",
                str(config.replications),
                "--seed",
                str(seed),
                "--transactions",
                str(config.payments),
                "--out",
                out,
            ]
            for name in config.schemes:
                argv += ["--scheme", name]
            with contextlib.redirect_stdout(sys.stderr):
                code = repro_main(argv)
            if code != 0:
                print(f"repro run exited {code}", file=sys.stderr)
                return 1
            records = [
                json.loads(line)
                for line in (Path(out) / "records.jsonl").read_text().splitlines()
            ]
        for record in records:
            run = ours[record["run_index"]].runs[record["scheme"]]
            stored = record["metrics"]
            expected = {
                "success_ratio": stored["success_ratio"],
                "raw_success_volume": stored["success_volume"],
                "raw_probe_messages": stored["probe_messages"],
            }
            got = {key: run.quality[key] for key in expected}
            if got != expected or stored["transactions"] != config.payments:
                mismatches += 1
                print(
                    f"parity mismatch {config.scenario} run "
                    f"{record['run_index']} {record['scheme']}: "
                    f"benchmark {got} vs repro run {expected}",
                    file=sys.stderr,
                )
        if len(records) != config.replications * len(config.schemes):
            mismatches += 1
            print(f"repro run wrote {len(records)} records", file=sys.stderr)
    print(
        json.dumps(
            {
                "parity": mismatches == 0 and failures.failed == 0,
                "mismatches": mismatches,
                "checked_payments": failures.attempted,
            }
        )
    )
    return 0 if mismatches == 0 and failures.failed == 0 else 1


# ------------------------------------------------------------------- main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds",
        type=float,
        default=30.0,
        help="sample the timed replications until the run has taken this "
        "long (every replication at least once)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="one replication of a few payments per configuration (self-test)",
    )
    parser.add_argument(
        "--parity",
        action="store_true",
        help="check every replication against `repro run` and exit",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.network.compact import set_default_backend

    set_default_backend("python")
    # Modules the engines and the LP split import lazily on first use:
    # loading them up front keeps that one-off cost out of the first
    # replication and peak_rss_mb independent of whether any elephant
    # reaches the fee optimizer.
    import repro.scenarios  # noqa: F401
    import repro.sim.concurrent  # noqa: F401
    import repro.sim.factories  # noqa: F401
    import scipy.optimize  # noqa: F401
    workload = WORKLOADS[args.workload]
    timed = workload.timed.sized(args.tiny)
    if args.parity:
        return parity(workload, args.seed, args.tiny)

    failures = Failures()
    # Untimed work runs first, so that lazy set-up and the first
    # allocations of a scenario's size are done before timing starts:
    # the quality-only set, or else one tiny replication of the timed
    # configuration.
    companions: list[Replication] = []
    if workload.quality is not None:
        companions = run_set(
            workload.quality.sized(args.tiny),
            args.seed,
            workload.conserves_funds,
            failures,
        )
    elif not args.tiny:
        run_set(
            workload.timed.sized(True), args.seed, workload.conserves_funds, failures
        )
    if args.trace:
        untraced = run_set(timed, args.seed, workload.conserves_funds, failures)
        tracer = Tracer()
        patches = instrument(tracer)
        try:
            traced = run_set(
                timed, args.seed, workload.conserves_funds, failures, tracer
            )
        finally:
            patches.restore()
        if not same_quality(untraced, traced):
            failures.note("traced and untraced quality differ")
        samples = [[replication] for replication in untraced]
    else:
        samples = timed_samples(
            timed,
            args.seed,
            workload.conserves_funds,
            failures,
            args.seconds - (perf_counter() - started),
        )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    first = [replication[0] for replication in samples]
    for replication in samples:
        if not same_quality(replication[:1] * len(replication), replication):
            failures.note("quality differs between samples of a replication")
    quality = quality_table(first, companions)

    if args.trace:
        metrics = per_layer(tracer, traced, untraced, quality)
        if tracer.min_self_ns() < 0:
            failures.note("a span's self time is negative")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
    else:
        metrics = end_to_end(samples, quality, peak_rss_mb)
    print(
        "provenance "
        + json.dumps(provenance(args, workload, args.tiny, samples))
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not failures.messages and failures.failed == 0,
                "attempted": failures.attempted,
                "failed": failures.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
