"""Fig 3: payment size CDFs for the Ripple and Bitcoin traces.

Paper: Ripple median $4.8, top decile > $1,740 carrying 94.5% of volume;
Bitcoin median 1.293e6 sat, top decile > 8.9e7 sat carrying 94.7%.
"""

from _common import once, save_result

from repro.eval import fig3_size_cdfs


def test_fig3_size_distributions(benchmark):
    result = once(benchmark, lambda: fig3_size_cdfs(n_samples=40_000, seed=0))
    # Headline shape: heavy tail carrying ~95% of volume in the top decile.
    assert 0.90 < result.ripple.top_decile_volume_share < 0.99
    assert 0.90 < result.bitcoin.top_decile_volume_share < 0.995
    # Medians land on the paper's values (sampling tolerance).
    assert 3.0 < result.ripple.median < 7.5
    assert 0.8e6 < result.bitcoin.median < 2.0e6
    # The top decile is orders of magnitude above the median.
    assert result.ripple.p90 > 50 * result.ripple.median
    assert result.bitcoin.p90 > 10 * result.bitcoin.median
    save_result("fig03", "Fig 3 - payment size distributions", result.format())
