import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_ab.py"
_SPEC = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_ab)
verdict = bench_ab.verdict

# ten parent runs with q1-q3 = 1.0225-1.0675, median 1.045
PARENT = [1.00 + 0.01 * i for i in range(10)]


def scaled(samples, factor):
    return [factor * v for v in samples]


class TestVerdict:
    def test_identical_runs_are_the_same(self):
        assert verdict([7.0] * 10, [7.0] * 10, True, None) == ("same", 0)

    @pytest.mark.parametrize("bound", [0.25, None])
    def test_lower_is_better_gain(self, bound):
        assert verdict(PARENT, scaled(PARENT, 0.8), True, bound) == \
            ("gain", 10)

    @pytest.mark.parametrize("bound", [0.25, None])
    def test_higher_is_better_gain(self, bound):
        assert verdict(PARENT, scaled(PARENT, 1.2), False, bound) == \
            ("gain", 10)

    def test_direction_decides_gain_or_worse(self):
        # the same samples are a gain one way and worse the other
        change = scaled(PARENT, 1.5)
        assert verdict(PARENT, change, False, 0.25) == ("gain", 10)
        assert verdict(PARENT, change, True, 0.25) == ("worse", 0)
        change = scaled(PARENT, 0.5)
        assert verdict(PARENT, change, True, 0.25) == ("gain", 10)
        assert verdict(PARENT, change, False, 0.25) == ("worse", 0)

    def test_nine_wins_of_ten_are_enough(self):
        change = scaled(PARENT, 0.8)
        change[0] = PARENT[0] + 1.0
        assert verdict(PARENT, change, True, 0.25) == ("gain", 9)

    def test_eight_wins_of_ten_are_not(self):
        change = scaled(PARENT, 0.8)
        change[0] = change[1] = 5.0
        assert verdict(PARENT, change, True, 0.25) == ("no worse", 8)

    def test_all_wins_within_the_parents_spread_are_not_a_gain(self):
        # the median moves by 0.03, less than the parent's q3 - q1 of 0.045
        change = [v - 0.03 for v in PARENT]
        assert verdict(PARENT, change, True, 0.25) == ("no worse", 10)

    def test_worse_by_more_than_the_bound(self):
        assert verdict(PARENT, scaled(PARENT, 1.3), True, 0.25)[0] == \
            "worse"
        assert verdict(PARENT, scaled(PARENT, 1.2), True, 0.25)[0] == \
            "no worse"

    def test_parent_spread_wider_than_the_bound_is_unresolved(self):
        change = [v + 0.001 for v in PARENT]
        assert verdict(PARENT, change, True, 0.01) == ("unresolved", 0)

    def test_clean_separation_resolves_a_wide_spread(self):
        # every change run beats every parent run, but the medians differ
        # by 0.01, less than the parent's q3 - q1 of 0.175
        parent = [1.0] * 6 + [1.1, 1.2, 1.3, 1.4]
        assert verdict(parent, [0.99] * 10, True, 0.01) == ("no worse", 10)

    def test_no_bound_and_no_gain(self):
        change = [v + 0.001 for v in PARENT]
        assert verdict(PARENT, change, True, None) == ("-", 0)
