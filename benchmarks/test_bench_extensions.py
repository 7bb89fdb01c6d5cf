"""Extension benchmarks: features beyond the paper's core evaluation.

* **E1 — rebalancing** (Revive [22], §6 related work): periodic cycle
  rebalancing lifts success ratio after the network saturates
  one-directionally (the §4.2 failure mode).
* **E2 — streaming threshold**: an online mice-quantile estimator tracks
  the paper's offline-workload threshold closely enough that Flash's
  performance is preserved without any historical trace.
* **E3 — churn robustness**: Flash keeps routing while channels open and
  close under gossip delay (§3.1's dynamic-topology assumption).
"""

import random

from _common import once, save_result

from repro.eval import BENCH_RIPPLE
from repro.eval.scenarios import build_scenario
from repro.extensions.rebalance import Rebalancer
from repro.network.dynamics import ChurnModel, run_dynamic_simulation
from repro.sim import format_table
from repro.sim.engine import run_simulation
from repro.sim.factories import (
    flash_factory,
    flash_streaming_factory,
    shortest_path_factory,
)
from repro.traces.generators import generate_ripple_workload


def _saturated_network(seed: int):
    rng = random.Random(seed)
    graph, _ = build_scenario(BENCH_RIPPLE)(rng)
    drain = generate_ripple_workload(rng, graph.nodes, 600)
    run_simulation(graph, shortest_path_factory(), drain, copy_graph=False)
    probe_load = generate_ripple_workload(rng, graph.nodes, 200)
    return graph, probe_load


def test_extension_rebalancing(benchmark):
    def run():
        graph, load = _saturated_network(seed=13)
        before = run_simulation(graph, shortest_path_factory(), load)
        rebalanced = graph.copy()
        report = Rebalancer(
            rebalanced, random.Random(1), skew_threshold=0.5
        ).run(passes=5, max_cycles=300)
        after = run_simulation(rebalanced, shortest_path_factory(), load)
        return before, after, report

    before, after, report = once(benchmark, run)
    body = format_table(
        ["state", "succ. ratio (%)", "succ. volume"],
        [
            ["saturated", f"{100 * before.success_ratio:.1f}",
             f"{before.success_volume:.4g}"],
            [f"rebalanced ({report.cycles_executed} cycles)",
             f"{100 * after.success_ratio:.1f}",
             f"{after.success_volume:.4g}"],
        ],
    )
    assert report.cycles_executed > 0
    assert after.success_ratio >= before.success_ratio
    save_result("ext_rebalance", "E1 - Revive-style rebalancing", body)


def test_extension_streaming_threshold(benchmark):
    def run():
        rng = random.Random(17)
        graph, workload = build_scenario(BENCH_RIPPLE.with_scale(10.0))(rng)
        offline = run_simulation(
            graph, flash_factory(), workload, rng=random.Random(2)
        )
        online = run_simulation(
            graph, flash_streaming_factory(), workload, rng=random.Random(2)
        )
        return offline, online

    offline, online = once(benchmark, run)
    body = format_table(
        ["classifier", "succ. ratio (%)", "succ. volume", "probe msgs"],
        [
            ["offline threshold (paper)", f"{100 * offline.success_ratio:.1f}",
             f"{offline.success_volume:.4g}", offline.probe_messages],
            ["streaming quantile (ext)", f"{100 * online.success_ratio:.1f}",
             f"{online.success_volume:.4g}", online.probe_messages],
        ],
    )
    # The online estimator must preserve Flash's delivery performance.
    assert online.success_volume >= 0.8 * offline.success_volume
    assert online.success_ratio >= offline.success_ratio - 0.1
    save_result("ext_streaming", "E2 - streaming threshold", body)


def test_extension_churn(benchmark):
    def run():
        rng = random.Random(19)
        graph, workload = build_scenario(BENCH_RIPPLE.with_scale(10.0))(rng)
        static = run_simulation(
            graph, flash_factory(), workload, rng=random.Random(3)
        )
        churn = ChurnModel(
            graph,
            random.Random(4),
            opens_per_hour=240,
            closes_per_hour=240,
        )
        events = churn.generate(workload[-1].time)
        dynamic = run_dynamic_simulation(
            graph,
            flash_factory(),
            workload,
            events,
            rng=random.Random(3),
            gossip_period=600.0,
        )
        return static, dynamic, len(events)

    static, dynamic, n_events = once(benchmark, run)
    body = format_table(
        ["topology", "succ. ratio (%)", "succ. volume"],
        [
            ["static", f"{100 * static.success_ratio:.1f}",
             f"{static.success_volume:.4g}"],
            [f"churning ({n_events} events)",
             f"{100 * dynamic.success_ratio:.1f}",
             f"{dynamic.success_volume:.4g}"],
        ],
    )
    assert n_events > 0
    # Flash degrades gracefully: most payments still deliver under churn.
    assert dynamic.success_ratio >= 0.7 * static.success_ratio
    save_result("ext_churn", "E3 - routing under channel churn", body)
