import math

from cheeger.roots import bisect


def never(lo, hi, mid, val):
    return False


def test_positive_value_moves_lo():
    lo, hi, last, n = bisect(lambda x: 1.0, 0.0, 1.0, never, max_iter=1)
    assert (lo, hi, last, n) == (0.5, 1.0, 0.5, 1)
    lo, hi, last, n = bisect(lambda x: -1.0, 0.0, 1.0, never, max_iter=1)
    assert (lo, hi, last, n) == (0.0, 0.5, 0.5, 1)
    # zero and NaN both count as "not positive"
    assert bisect(lambda x: 0.0, 0.0, 1.0, never, max_iter=1)[:2] == (0.0, 0.5)
    assert bisect(lambda x: math.nan, 0.0, 1.0, never,
                  max_iter=1)[:2] == (0.0, 0.5)


def test_max_iter_caps_evaluations():
    calls = []

    def f(x):
        calls.append(x)
        return 2.0 - x * x

    lo, hi, _, n = bisect(f, 0.0, 2.0, never, max_iter=30)
    assert n == len(calls) == 30
    assert hi - lo == 2.0 / 2 ** 30
    assert lo < math.sqrt(2.0) <= hi
    assert bisect(f, 0.0, 2.0, never, max_iter=0)[3] == 0


def test_done_sees_updated_bracket():
    seen = []

    def done(lo, hi, mid, val):
        seen.append((lo, hi, mid, val))
        return len(seen) == 3

    lo, hi, last, n = bisect(lambda x: 0.3 - x, 0.0, 1.0, done)
    assert n == 3
    assert seen == [(0.0, 0.5, 0.5, 0.3 - 0.5),
                    (0.25, 0.5, 0.25, 0.3 - 0.25),
                    (0.25, 0.375, 0.375, 0.3 - 0.375)]
    assert (lo, hi) == (0.25, 0.375)


def test_last_is_last_midpoint():
    lo, hi, last, n = bisect(lambda x: math.cos(x), 0.0, 3.0,
                             lambda lo, hi, mid, val: hi - lo <= 1e-12)
    assert last in (lo, hi)
    assert abs(last - 0.5 * math.pi) <= 1e-12
    assert n == math.ceil(math.log2(3.0 / 1e-12))
