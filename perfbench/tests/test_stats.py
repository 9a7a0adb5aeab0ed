"""The tail percentile: the highest one with >= 10 samples beyond it."""

from run import nearest_rank, tail_percentile


def test_hundred_samples_stop_at_p90():
    samples = [float(i) for i in range(100, 0, -1)]
    assert nearest_rank(samples, 95.0) == (95, 95.0)  # only 5 beyond
    assert tail_percentile(samples) == (90.0, 90.0)


def test_thousand_samples_reach_p99():
    samples = list(range(1, 1001))
    assert tail_percentile(samples) == (99.0, 990)


def test_too_few_samples_have_no_tail():
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile(list(range(1, 21))) == (50.0, 10)


def test_beyond_counts_strictly_greater_ranks():
    # 40 samples: p75 is rank 30 (10 beyond), p90 rank 36 (4 beyond).
    assert tail_percentile(list(range(1, 41))) == (75.0, 30)
