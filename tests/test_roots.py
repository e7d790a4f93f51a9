import math

from cheeger.roots import bisect


def test_positive_value_moves_lo():
    assert bisect(lambda x: 1.0, 0.0, 1.0, 0.5) == (0.5, 1.0)
    assert bisect(lambda x: -1.0, 0.0, 1.0, 0.5) == (0.0, 0.5)
    # zero and NaN both count as "not positive"
    assert bisect(lambda x: 0.0, 0.0, 1.0, 0.5) == (0.0, 0.5)
    assert bisect(lambda x: math.nan, 0.0, 1.0, 0.5) == (0.0, 0.5)


def test_stops_at_width():
    calls = []

    def f(x):
        calls.append(x)
        return 2.0 - x * x

    lo, hi = bisect(f, 0.0, 2.0, 2.0 / 2 ** 30)
    assert len(calls) == 30
    assert hi - lo == 2.0 / 2 ** 30
    assert lo < math.sqrt(2.0) <= hi
    assert bisect(f, 0.0, 2.0, 2.0) == (0.0, 2.0)
    assert len(calls) == 30  # a bracket already at width is not evaluated


def test_zero_width_ends_on_adjacent_floats():
    calls = []

    def f(x):
        calls.append(x)
        return math.cos(x)

    lo, hi = bisect(f, 0.0, 3.0, 0.0)
    assert hi == math.nextafter(lo, math.inf)
    assert math.cos(lo) > 0.0 >= math.cos(hi)  # the sign change, to an ulp
    assert len(calls) < 64
