"""Ablations A1-A3: k sweep, mice path order, path-finding comparison.

These validate design choices the paper asserts but does not plot:
§3.2's "k between 20 and 30 provides good performance", §3.3's random
path order, and the Fig 5 discussion of why modified Edmonds-Karp beats
simple/edge-disjoint shortest paths.
"""

from _common import once, save_result

from repro.eval import (
    BENCH_RIPPLE,
    ablation_k_sweep,
    ablation_mice_order,
    ablation_path_finding,
)


def test_ablation_k_sweep(benchmark):
    result = once(
        benchmark,
        lambda: ablation_k_sweep(
            BENCH_RIPPLE, k_values=(1, 5, 20), runs=2, seed=9
        ),
    )
    volumes = {k: result.series[k].success_volume for k in result.k_values}
    # More paths help elephants; k=20 dominates k=1.
    assert volumes[20] > volumes[1]
    # Probing grows with k.
    probes = {k: result.series[k].probe_messages for k in result.k_values}
    assert probes[20] >= probes[1]
    save_result("ablation_k", "A1 - elephant path budget k", result.format())


def test_ablation_mice_order(benchmark):
    result = once(
        benchmark, lambda: ablation_mice_order(BENCH_RIPPLE, runs=2, seed=10)
    )
    # Random order must not lose to fixed order (it load-balances).
    assert (
        result.random_order.success_volume
        >= 0.9 * result.fixed_order.success_volume
    )
    save_result("ablation_order", "A2 - mice path order", result.format())


def test_ablation_path_finding(benchmark):
    result = once(
        benchmark,
        lambda: ablation_path_finding(BENCH_RIPPLE, num_pairs=20, seed=11),
    )
    # The oracle upper-bounds everything.
    assert result.exact_flow >= result.modified_ek_flow - 1e-6
    assert result.exact_flow >= result.edge_disjoint_flow - 1e-6
    # Modified EK is capped at k paths, so it cannot reach the oracle's
    # unbounded-path max-flow; what matters (Fig 5) is that it discovers
    # substantially more usable capacity than edge-disjoint shortest paths
    # at the same k, with bounded probing.
    assert result.modified_ek_flow >= 1.5 * result.edge_disjoint_flow
    assert result.modified_ek_flow >= 0.2 * result.exact_flow
    save_result("ablation_paths", "A3 - path finding strategies", result.format())
