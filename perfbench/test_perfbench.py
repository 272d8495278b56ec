"""Tests of the benchmark's own arithmetic; they need neither the package nor a clock.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import pytest

from metrics import percentile, relative_spread, rep_steps_per_s, tail, tail_percentile
from spans import Tracer


class FakeClock:
    """Nanosecond clock that advances only when told to."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.advance(5)

    def middle():
        clock.advance(10)
        traced_leaf()
        traced_leaf()
        clock.advance(1)

    def outer():
        clock.advance(100)
        traced_middle()
        clock.advance(7)

    traced_leaf = tracer.span("leaf", leaf)
    traced_middle = tracer.span("middle", middle)
    tracer.span("outer", outer)()

    assert tracer.totals("leaf") == (2, 10, 10)
    assert tracer.totals("middle") == (1, 21, 11)
    # The grandchildren count in the middle span, not again in the outer one.
    assert tracer.totals("outer") == (1, 128, 107)


def test_self_time_closes_a_span_that_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def failing():
        clock.advance(3)
        raise ValueError

    traced = tracer.span("failing", failing)

    def outer():
        clock.advance(2)
        with pytest.raises(ValueError):
            traced()

    tracer.span("outer", outer)()
    assert tracer.totals("failing") == (1, 3, 3)
    assert tracer.totals("outer") == (1, 5, 2)


def test_spans_sum_over_scopes_and_observe_results():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    seen = []
    traced = tracer.span("f", lambda x: clock.advance(x) or x,
                         observe=lambda args, result, ns: seen.append((args, result, ns)))
    tracer.set_scope("a")
    traced(4)
    tracer.set_scope("b")
    traced(6)
    assert tracer.totals("f", "a") == (1, 4, 4)
    assert tracer.totals("f") == (2, 10, 10)
    assert seen == [((4,), 4, 4), ((6,), 6, 6)]
    assert tracer.count_signature()["calls"] == {"a|f": 1, "b|f": 1}


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_value_is_nearest_rank_with_ten_beyond():
    values = list(range(1, 101))
    assert tail(values) == (90.0, 90.0)
    assert sum(v > 90 for v in values) == 10
    assert percentile(values, 50.0) == 50.0


def test_tail_falls_back_to_the_maximum_for_small_samples():
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_rep_steps_per_s():
    assert rep_steps_per_s([(2, 5000)] * 25, 10.0) == 25000.0
    assert rep_steps_per_s([(2, 5000), (1, 100)], 0.5) == 20200.0
    with pytest.raises(ValueError):
        rep_steps_per_s([(1, 1)], 0.0)


def test_relative_spread_uses_statistics_quartiles():
    # statistics.quantiles([1..5], n=4) is [1.5, 3.0, 4.5].
    assert relative_spread([1, 2, 3, 4, 5]) == pytest.approx(3.0 / 3.0)
    assert relative_spread([10.0] * 4) == 0.0
