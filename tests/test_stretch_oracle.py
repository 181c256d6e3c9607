"""``stretch`` against the all-pairs relaxation in ``stretch_oracle``.

The package's ``stretch`` leaves out the push between groups 10 units
(``_CUTOFF``) apart or more and sums the remaining forces in the oracle's
order.  So a step from a layout whose unlinked groups are all closer than
the cutoff is byte-identical to the oracle's.  Otherwise each left-out
push is at most ``_REPULSION / _CUTOFF**2`` (0.0025) in each coordinate,
and a group moves by ``stretch_step`` times its force, so one step puts a
group at most ``stretch_step * 0.0025`` per left-out pair from where the
oracle puts it.  The steps are compared one at a time from the same
layout, because over several steps the two runs drift apart through the
springs, which the bound does not cover.
"""

import dataclasses
import math

from hypothesis import given, settings, strategies as st

import stretch_oracle
from tangled_string import (
    BASKET,
    PLAIN,
    LayoutParams,
    LayoutResult,
    TangleParams,
    assign_positions,
    from_baskets,
    from_plain,
    stretch,
    tangle,
)
from tangled_string.layout import _CUTOFF, _REPULSION

DEMO = ["1", "2", "3", "2", "3", "4", "3", "4", "5", "6", "2", "5", "6", "7"]
PER_PAIR = _REPULSION / _CUTOFF**2  # the largest push a left-out pair would give
ROUNDING = 1e-9  # relative: the same sums rounded with terms left out


def unlinked_pairs(layout):
    """Each unlinked pair of groups, with the distance between them."""
    ids, points = layout.group_ids, layout.points
    linked = {(min(a, b), max(a, b)) for a, b in zip(ids, ids[1:])}
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            if (a, b) not in linked:
                yield a, b, math.dist(points[a], points[b])


def check_step(layout, params):
    """One step of ``stretch`` against one of the oracle; returns the former."""
    one = dataclasses.replace(params, stretch_iterations=1)
    relaxed, expected = stretch(layout, one), stretch_oracle.stretch(layout, one)
    assert relaxed.shared_position_groups == expected.shared_position_groups
    assert relaxed.group_ids == expected.group_ids
    ids = layout.group_ids
    for pinned in (ids[0], ids[-1]):
        assert relaxed.points[pinned] == expected.points[pinned] == layout.points[pinned]

    cut = [0] * len(layout.shared_position_groups)
    for a, b, dist in unlinked_pairs(layout):
        if dist >= _CUTOFF:
            cut[a] += 1
            cut[b] += 1
    if not any(cut):
        assert relaxed == expected
        return relaxed
    scale = 1.0 + max(abs(c) for point in layout.points for c in point)
    for gid, (got_point, want_point) in enumerate(zip(relaxed.points, expected.points)):
        bound = params.stretch_step * cut[gid] * PER_PAIR + ROUNDING * scale
        for got, want in zip(got_point, want_point):
            assert abs(got - want) <= bound
    return relaxed


def demo_layout():
    seq = from_plain(DEMO)
    return assign_positions(seq, tangle(seq, TangleParams(6, PLAIN)))


def test_demo_equals_the_oracle_byte_for_byte():
    layout = demo_layout()
    step = LayoutParams(stretch_iterations=1)
    relaxed = layout
    for iterations in range(1, 61):
        # the premise: no unlinked pair reaches the cutoff on the way
        assert all(dist < _CUTOFF for _, _, dist in unlinked_pairs(relaxed))
        relaxed = stretch_oracle.stretch(relaxed, step)
        if iterations in (1, 5, 30, 60):
            params = LayoutParams(stretch_iterations=iterations)
            assert stretch(layout, params) == stretch_oracle.stretch(layout, params) == relaxed


def test_groups_beyond_the_cutoff_do_not_repel():
    # four groups 12 units apart on a line; the pull of the two springs on
    # group 1 cancels, so only the all-pairs push from group 3 moves it
    layout = LayoutResult(
        tuple((12.0 * i, 0.0) for i in range(4)), ((0,), (1,), (2,), (3,)), (0, 1, 2, 3)
    )
    params = LayoutParams(stretch_iterations=1)
    assert stretch(layout, params).points[1] == (12.0, 0.0)
    assert stretch_oracle.stretch(layout, params).points[1][0] < 12.0
    check_step(layout, params)


@st.composite
def layouts(draw):
    alphabet = draw(st.integers(2, 12))
    tokens = draw(st.lists(st.integers(0, alphabet - 1).map(str), min_size=2, max_size=50))
    # a run of fresh tokens walks the string past the cutoff
    walk = [f"w{k}" for k in range(draw(st.integers(0, 24)))]
    tokens = tokens + walk if draw(st.booleans()) else walk + tokens
    baskets, i = [], 0
    while i < len(tokens):
        size = draw(st.integers(1, 3))
        baskets.append(tokens[i : i + size])
        i += size
    seq = from_baskets(baskets)
    window = draw(st.integers(1, 8))
    result = tangle(seq, TangleParams(window, draw(st.sampled_from([PLAIN, BASKET]))))
    params = LayoutParams(
        a=draw(st.sampled_from([1.0, 0.5, -0.5])),
        stretch_iterations=draw(st.integers(1, 4)),
        stretch_step=draw(st.sampled_from([0.05, 0.2])),
    )
    return assign_positions(seq, result, params), params


@settings(deadline=None, max_examples=200)
@given(layouts())
def test_each_step_agrees_with_the_oracle(case):
    layout, params = case
    for _ in range(params.stretch_iterations):
        layout = check_step(layout, params)
