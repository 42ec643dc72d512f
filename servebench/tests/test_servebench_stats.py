"""Percentiles refuse thin tails; the breakdown band sits on the median."""

import pytest

from servebench.stats import TooFewSamples, around_median, median, percentile


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(1, 1001)), 99) == 990  # exactly ten beyond
    with pytest.raises(TooFewSamples):
        percentile(list(range(1, 1000)), 99)  # nine beyond
    assert percentile(list(range(1, 101)), 90) == 90
    with pytest.raises(TooFewSamples):
        percentile(list(range(1, 100)), 90)


def test_percentile_counts_samples_beyond_the_rank():
    values = [5.0] * 99 + [100.0] * 12  # rank 100 of 111: the first 100.0
    assert percentile(values, 90) == 100.0
    with pytest.raises(TooFewSamples):
        percentile([1.0] * 19, 50)


def test_percentile_rejects_out_of_range_q():
    with pytest.raises(ValueError):
        percentile([1.0] * 100, 100)


def test_median_and_band():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5
    values = [float(v) for v in range(100)]
    band = around_median(values)
    assert len(band) == 20
    assert sorted(values[i] for i in band) == [float(v) for v in range(40, 60)]
    assert around_median([7.0]) == [0]
    assert around_median([]) == []
