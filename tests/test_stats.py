import pytest

from volstream.stats import Stats, describe


def test_describe_by_hand():
    # sorted 1 2 3 4 5; nearest rank ceil(q * 5 / 100): p50 -> 3rd, p95 and
    # p99 -> 5th; jitter over the given order: (4 + 3 + 2 + 1) / 4
    assert describe([5, 1, 4, 2, 3]) == Stats(mean_ns=3.0, p50_ns=3, p95_ns=5, p99_ns=5,
                                              min_ns=1, max_ns=5, jitter_ns=2.5)


def test_describe_one_value_has_no_jitter():
    assert describe([7]) == Stats(7.0, 7, 7, 7, 7, 7, 0.0)


def test_describe_empty_sample_raises():
    with pytest.raises(ValueError):
        describe([])
