"""Figure 3: classification of servers into lifespan/pattern classes.

Paper reference values (random sample of tens of thousands of servers,
four regions, one month): 42.1% short-lived, 53.5% long-lived stable,
0.2% long-lived with a daily or weekly pattern, 4.2% long-lived without a
pattern; 53.7% of servers expected to be predictable.
"""

from bench_utils import print_table
from repro.features.classification import classify_frame

PAPER_PERCENTAGES = {
    "short_lived": 42.1,
    "stable": 53.5,
    "daily_or_weekly": 0.2,
    "no_pattern": 4.2,
}


def test_fig3_server_classification(benchmark, four_region_fleet):
    result = benchmark.pedantic(
        classify_frame, args=(four_region_fleet,), rounds=1, iterations=1
    )

    measured = result.percentages()
    measured_pattern = measured["daily"] + measured["weekly"]
    rows = [
        ["short-lived", PAPER_PERCENTAGES["short_lived"], measured["short_lived"]],
        ["long-lived stable", PAPER_PERCENTAGES["stable"], measured["stable"]],
        ["daily or weekly pattern", PAPER_PERCENTAGES["daily_or_weekly"], measured_pattern],
        ["no pattern", PAPER_PERCENTAGES["no_pattern"], measured["no_pattern"]],
        ["expected predictable", 53.7, result.predictable_percentage()],
    ]
    print_table(
        "Figure 3: server classification (% of servers)",
        ["class", "paper", "measured"],
        rows,
    )

    # Shape assertions: the mix must reproduce the paper's ordering --
    # stable and short-lived dominate, pattern-only servers are rare,
    # pattern-free servers are a small minority.
    assert measured["stable"] > 35.0
    assert measured["short_lived"] > 25.0
    assert measured_pattern < 5.0
    assert measured["no_pattern"] < 15.0
    assert result.predictable_percentage() > 40.0
