"""Fig 13: testbed evaluation on the 100-node Watts-Strogatz network.

Same protocol as Fig 12 at twice the network size (paper: Flash +34.4%
success volume vs Spider; ~19% lower delay; ~26% lower mice delay).
Bench scale: 2,000 transactions.
"""

from _common import once, save_result

from repro.eval import testbed_figure as run_testbed_figure


def test_fig13_testbed_100(benchmark):
    result = once(
        benchmark,
        lambda: run_testbed_figure(n_nodes=100, n_transactions=2_000, seed=8),
    )
    for i in range(len(result.intervals)):
        flash = result.table["Flash"][i]
        spider = result.table["Spider"][i]
        sp = result.table["SP"][i]
        assert flash["success_volume"] > spider["success_volume"]
        assert flash["success_volume"] > sp["success_volume"]
        assert flash["success_ratio"] > sp["success_ratio"]
        assert flash["norm_mice_delay"] < spider["norm_mice_delay"]
        assert flash["norm_delay"] < 1.25 * spider["norm_delay"]
    save_result("fig13", "Fig 13 - testbed, 100 nodes", result.format())
