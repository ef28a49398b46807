import statistics

import pytest

from stats import TAIL_MIN_BEYOND, percentile, quartiles, tail_supported


def test_percentile_matches_inclusive_quantiles():
    samples = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6, 5.3]
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    for pct in (10, 50, 90):
        assert percentile(samples, pct) == pytest.approx(cuts[pct - 1])


def test_quartiles_match_statistics():
    samples = [float(x) for x in range(1, 12)]
    assert quartiles(samples) == tuple(
        statistics.quantiles(samples, n=4, method="inclusive"))


@pytest.mark.parametrize(
    "count, supported",
    [(100, True), (99, True), (90, False), (50, False), (14, False)],
)
def test_tail_needs_ten_samples_beyond_it(count, supported):
    samples = [float(x) for x in range(1, count + 1)]
    beyond = sum(1 for x in samples if x > percentile(samples, 90))
    assert tail_supported(samples, 90) is supported
    assert (beyond >= TAIL_MIN_BEYOND) is supported


def test_ties_at_the_tail_are_not_beyond_it():
    assert not tail_supported([1.0] * 500, 90)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 100)
