"""Fig 6: success ratio and volume vs channel capacity scale factor.

Paper (scale 1-60, 2,000 txns): Flash ~20% better success ratio than the
static schemes, similar ratio to Spider, and up to 2.3x Spider / 4.5x SP /
5x SpeedyMurmurs on success volume.  Bench scale: 150-node graphs, 300
transactions, 2 runs, scales {1, 10, 30, 60}.
"""

from _common import once, save_result

from repro.eval import BENCH_LIGHTNING, BENCH_RIPPLE, fig6_capacity_sweep

SCALES = (1, 10, 30, 60)


def _check_shape(result):
    volumes = result.metric_series("success_volume")
    flash_volume = volumes["Flash"]
    # Flash never loses meaningfully (the curves converge once capacity
    # saturates and everything succeeds, so allow a 5% tie band)...
    for scheme, series in volumes.items():
        for flash, other in zip(flash_volume, series):
            assert flash >= 0.95 * other, (scheme, flash, other)
    # ...and wins strictly at the mid-capacity operating point (scale 10,
    # the setting of Figs 7-11), especially against the static schemes.
    mid = SCALES.index(10)
    assert flash_volume[mid] > volumes["Spider"][mid]
    assert flash_volume[mid] > 1.5 * volumes["Shortest Path"][mid]
    assert flash_volume[mid] > 1.5 * volumes["SpeedyMurmurs"][mid]
    # More capacity helps everyone: monotone-ish ratio trend for Flash.
    flash_ratio = result.metric_series("success_ratio")["Flash"]
    assert flash_ratio[-1] >= flash_ratio[0]


def test_fig6_ripple(benchmark):
    result = once(
        benchmark,
        lambda: fig6_capacity_sweep(
            BENCH_RIPPLE, scale_factors=SCALES, runs=2, seed=1
        ),
    )
    _check_shape(result)
    save_result(
        "fig06_ripple", "Fig 6a/6b - Ripple capacity sweep", result.format()
    )


def test_fig6_lightning(benchmark):
    result = once(
        benchmark,
        lambda: fig6_capacity_sweep(
            BENCH_LIGHTNING, scale_factors=SCALES, runs=2, seed=1
        ),
    )
    _check_shape(result)
    save_result(
        "fig06_lightning",
        "Fig 6c/6d - Lightning capacity sweep",
        result.format(),
    )
