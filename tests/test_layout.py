"""Placement rules and the string-relaxation pass."""

import math

import pytest

from tangled_string import (
    LayoutParams,
    LayoutResult,
    emit_json,
    TangleParams,
    assign_positions,
    from_plain,
    stretch,
    tangle,
)

DEMO = ["1", "2", "3", "2", "3", "4", "3", "4", "5", "6", "2", "5", "6", "7"]


def demo_layout(window=6, params=None):
    seq = from_plain(DEMO)
    result = tangle(seq, TangleParams(window, "plain"))
    return seq, result, assign_positions(seq, result, params)


def point(layout, i):
    """Where event i sits: on its group's point."""
    return layout.points[layout.group_ids[i]]


def test_bootstrap_positions():
    seq = from_plain(["a", "b", "c"])
    layout = assign_positions(seq, tangle(seq, TangleParams(1, "plain")))
    assert point(layout, 0) == (0.0, 0.0)
    assert point(layout, 1) == (1.0, 0.0)
    assert point(layout, 2) == (2.0, 0.0)


def test_matched_events_share_exact_coordinates():
    _, result, layout = demo_layout()
    for match in result.matches:
        assert point(layout, match.later) == point(layout, match.earlier)
    assert point(layout, 3) == point(layout, 1) == (1.0, 0.0)
    assert point(layout, 6) == point(layout, 2) == (2.0, 0.0)


def test_demo_extrapolation_walks_the_line():
    _, _, layout = demo_layout()
    assert point(layout, 13) == (6.0, 0.0)
    assert all(y == 0.0 for _, y in layout.points)


def test_repeated_token_collapses_to_origin():
    seq = from_plain(["1", "1"])
    layout = assign_positions(seq, tangle(seq, TangleParams(1, "plain")))
    assert point(layout, 0) == point(layout, 1) == (0.0, 0.0)


def test_degenerate_extension_turns_fifteen_degrees():
    seq = from_plain(["1", "1", "2"])
    layout = assign_positions(seq, tangle(seq, TangleParams(1, "plain")))
    dx, dy = point(layout, 2)
    assert math.hypot(dx, dy) == pytest.approx(1.0)
    assert math.degrees(math.atan2(dy, dx)) == pytest.approx(15.0)


def test_extension_gain():
    seq = from_plain(["a", "b", "c"])
    layout = assign_positions(seq, tangle(seq, TangleParams(1, "plain")), LayoutParams(a=0.5))
    assert point(layout, 2) == (1.5, 0.0)


def test_shared_position_groups_are_match_components():
    _, _, layout = demo_layout()
    assert layout.shared_position_groups == (
        (0,),
        (1, 3),
        (2, 4, 6),
        (5, 7),
        (8, 11),
        (9, 12),
        (10,),
        (13,),
    )
    assert layout.shared_position_groups[layout.group_ids[4]] == (2, 4, 6)
    assert len(layout.group_ids) == len(DEMO)


def test_layout_rejects_foreign_sequence():
    seq = from_plain(DEMO)
    other = from_plain(["x", "y"])
    result = tangle(seq, TangleParams(6, "plain"))
    with pytest.raises(ValueError):
        assign_positions(other, result)


def test_stretch_zero_iterations_is_identity():
    _, _, layout = demo_layout()
    assert stretch(layout, LayoutParams(stretch_iterations=0)) is layout


def test_stretch_pins_endpoints_of_colinear_string():
    seq = from_plain(["a", "b", "c"])
    layout = assign_positions(seq, tangle(seq, TangleParams(1, "plain")))
    relaxed = stretch(layout, LayoutParams(stretch_iterations=40))
    assert point(relaxed, 0) == (0.0, 0.0)
    assert point(relaxed, 2) == (2.0, 0.0)


def test_stretch_preserves_shared_positions():
    _, _, layout = demo_layout()
    relaxed = stretch(layout, LayoutParams(stretch_iterations=30))
    assert relaxed.shared_position_groups == layout.shared_position_groups
    assert relaxed.group_ids == layout.group_ids
    # one point per group: the members of a group cannot come apart
    assert len(relaxed.points) == len(relaxed.shared_position_groups)


def test_stretch_keeps_pill_clusters_separated():
    seq, result, layout = demo_layout()
    relaxed = stretch(layout, LayoutParams(stretch_iterations=60))

    def centroid(pill):
        xs = [point(relaxed, i)[0] for i in pill.members]
        ys = [point(relaxed, i)[1] for i in pill.members]
        return (sum(xs) / len(xs), sum(ys) / len(ys))

    (ax, ay), (bx, by) = (centroid(p) for p in result.pills)
    separation = math.hypot(bx - ax, by - ay)
    steps = [
        math.dist(point(relaxed, i), point(relaxed, i + 1))
        for i in range(len(seq) - 1)
    ]
    assert separation >= sum(steps) / len(steps)


def test_stretch_is_deterministic():
    _, _, layout = demo_layout()
    params = LayoutParams(stretch_iterations=25)
    assert stretch(layout, params) == stretch(layout, params)


def test_layout_params_validation():
    for count in (-1, 2.5, True):
        with pytest.raises(ValueError, match="stretch_iterations must be an int >= 0"):
            LayoutParams(stretch_iterations=count)
    with pytest.raises(ValueError):
        LayoutParams(stretch_step=0.0)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            LayoutParams(a=value)
        with pytest.raises(ValueError):
            LayoutParams(stretch_step=value)


def test_growing_extension_is_refused_at_the_first_non_finite_position():
    # with |a| > 1 each unmatched step is a times the last one
    seq = from_plain(f"t{i}" for i in range(3000))
    result = tangle(seq, TangleParams(1, "plain"))
    with pytest.raises(ValueError, match="a=2.0"):
        assign_positions(seq, result, LayoutParams(a=2.0))


def test_oversized_stretch_step_is_refused():
    _, _, layout = demo_layout()
    params = LayoutParams(stretch_iterations=5, stretch_step=1e200)
    with pytest.raises(ValueError, match="stretch_step"):
        stretch(layout, params)


def test_stretch_refuses_a_non_finite_layout():
    # the grid cell of such a point is no integer
    for bad in (math.inf, math.nan):
        layout = LayoutResult(
            ((0.0, 0.0), (1.0, 0.0), (bad, 0.0), (3.0, 0.0)),
            ((0,), (1,), (2,), (3,)),
            (0, 1, 2, 3),
        )
        with pytest.raises(ValueError, match="non-finite position"):
            stretch(layout, LayoutParams(stretch_iterations=1))


def test_emit_json_never_writes_non_finite_numbers():
    _, result, layout = demo_layout()
    broken = LayoutResult(
        tuple((math.nan, 0.0) for _ in layout.points),
        layout.shared_position_groups,
        layout.group_ids,
    )
    with pytest.raises(ValueError):
        emit_json(result, broken)
