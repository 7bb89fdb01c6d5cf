"""Fig 7: success ratio and volume vs number of transactions (load).

Paper (1,000-6,000 txns at capacity scale 10): ratios degrade with load;
Flash's success-volume lead grows (up to 2.6x Spider, 4.7x SP, 6.6x
SpeedyMurmurs).  Bench scale: 150-node graphs, 150-600 transactions.
"""

from _common import once, save_result

from repro.eval import BENCH_LIGHTNING, BENCH_RIPPLE, fig7_load_sweep

COUNTS = (150, 300, 600)


def _check_shape(result):
    volumes = result.metric_series("success_volume")
    for flash, spider in zip(volumes["Flash"], volumes["Spider"]):
        assert flash > spider
    # Success ratio does not improve as the network saturates.
    flash_ratio = result.metric_series("success_ratio")["Flash"]
    assert flash_ratio[-1] <= flash_ratio[0] + 0.05


def test_fig7_ripple(benchmark):
    result = once(
        benchmark,
        lambda: fig7_load_sweep(
            BENCH_RIPPLE, transaction_counts=COUNTS, runs=2, seed=2
        ),
    )
    _check_shape(result)
    save_result("fig07_ripple", "Fig 7a/7b - Ripple load sweep", result.format())


def test_fig7_lightning(benchmark):
    result = once(
        benchmark,
        lambda: fig7_load_sweep(
            BENCH_LIGHTNING, transaction_counts=COUNTS, runs=2, seed=2
        ),
    )
    _check_shape(result)
    save_result(
        "fig07_lightning", "Fig 7c/7d - Lightning load sweep", result.format()
    )
