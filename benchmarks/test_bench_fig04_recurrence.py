"""Fig 4: recurrence of transactions in 24-hour windows.

Paper: median 86% of a day's transactions are recurring (Fig 4a); an
average user's top-5 receivers take >= 70% of its payments (Fig 4b).
Paper scale is 1,306 days; the bench analyzes 60 synthetic days.
"""

from _common import once, save_result

from repro.eval import fig4_recurrence


def test_fig4_recurrence(benchmark):
    result = once(
        benchmark,
        lambda: fig4_recurrence(
            days=60, transactions_per_day=1_000, n_nodes=500, seed=0
        ),
    )
    # Fig 4a: most transactions recur within the day (paper median: 86%).
    assert result.median_recurring_fraction > 0.70
    # Fig 4b: a user's top-5 receivers dominate (paper: >= 70%).
    assert result.median_top5_share > 0.70
    assert result.days >= 59
    save_result("fig04", "Fig 4 - recurring transactions", result.format())
