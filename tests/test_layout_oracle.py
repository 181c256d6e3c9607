"""``assign_positions`` against the event-by-event placement in ``layout_oracle``.

Over seeded random cases and four gains, either both place every event
on the same floats, or both refuse with the same error naming ``a``.
"""

import pytest

import layout_oracle
import seqgen
from tangled_string import LayoutParams, TangleParams, assign_positions, from_plain, tangle

GAINS = (1.0, 0.5, -0.5, 2.0)


def check(seq, result, a):
    """Compare one placement; returns whether both refused."""
    try:
        expected = layout_oracle.assign_positions(result, a)
    except ValueError as refusal:
        with pytest.raises(ValueError) as raised:
            assign_positions(seq, result, LayoutParams(a=a))
        assert str(raised.value) == str(refusal)
        assert f"a={a}" in str(refusal)
        return True
    layout = assign_positions(seq, result, LayoutParams(a=a))
    assert [layout.points[gid] for gid in layout.group_ids] == expected
    return False


def test_random_cases_agree_with_the_oracle():
    for seed in range(300):
        seq, params = seqgen.random_case(seed)
        result = tangle(seq, params)
        for a in GAINS:
            check(seq, result, a)


def test_a_growing_walk_is_refused_by_both():
    # with |a| > 1 each step of a run of fresh tokens is a times the last one
    seq = from_plain(f"t{i}" for i in range(3000))
    result = tangle(seq, TangleParams(1, "plain"))
    assert check(seq, result, 2.0)
    assert not check(seq, result, 0.5)
