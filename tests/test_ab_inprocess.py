"""scripts/ab_inprocess.py's gain rule: the change faster in at least 9 of
every 10 paired rounds, and the gap between the medians larger than the
parent's quartile gap."""

import importlib.util
import pathlib
import statistics

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "ab_inprocess.py"
_spec = importlib.util.spec_from_file_location("ab_inprocess", SCRIPT)
ab_inprocess = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_inprocess)

# ten rounds whose quartiles (statistics.quantiles, exclusive) are 10.0 and 11.125
PARENT = [10.0, 11.0, 10.5, 9.5, 12.0, 10.0, 11.5, 10.0, 11.0, 10.5]


def test_parent_fixture_quartile_gap():
    q1, _, q3 = statistics.quantiles(PARENT, n=4)
    assert (q1, q3) == (10.0, 11.125)


def test_rule_holds_when_nine_of_ten_rounds_win_by_more_than_the_quartile_gap():
    change = [p - 2.0 for p in PARENT]
    change[4] = 13.0  # one round lost
    won, gap, spread, holds = ab_inprocess.gain_rule(PARENT, change)
    assert (won, spread, holds) == (9, 1.125, True)
    assert gap == statistics.median(PARENT) - statistics.median(change) > spread


def test_rule_fails_with_eight_of_ten_rounds_won():
    change = [p - 2.0 for p in PARENT]
    change[4] = change[6] = 13.0
    won, _, _, holds = ab_inprocess.gain_rule(PARENT, change)
    assert (won, holds) == (8, False)


@pytest.mark.parametrize("shift,holds", [(1.0, False), (1.125, False), (1.5, True)])
def test_rule_needs_a_median_gap_above_the_quartile_gap(shift, holds):
    change = [p - shift for p in PARENT]  # every round won
    won, gap, spread, rule = ab_inprocess.gain_rule(PARENT, change)
    assert (won, gap, spread, rule) == (10, shift, 1.125, holds)


def test_a_tie_is_not_a_win():
    change = [p - 3.0 for p in PARENT]
    change[0] = PARENT[0]
    assert ab_inprocess.gain_rule(PARENT, change)[0] == 9


@pytest.mark.parametrize("won,holds", [(18, True), (17, False)])
def test_rule_scales_to_more_rounds(won, holds):
    parent = PARENT * 2
    change = [p - 3.0 if i < won else p + 1.0 for i, p in enumerate(parent)]
    assert ab_inprocess.gain_rule(parent, change)[::3] == (won, holds)


def test_unpaired_rounds_are_refused():
    with pytest.raises(ValueError):
        ab_inprocess.gain_rule(PARENT, PARENT[:-1])
