"""Core tangler behaviour, pinned with hand-traced expectations."""

import gc
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from tangled_string import (
    ENTRANCE,
    EXIT,
    ChangePoint,
    KeyEvent,
    Match,
    Pill,
    StabilityRecord,
    TangleParams,
    change_points,
    from_baskets,
    from_plain,
    key_pill_events,
    key_wire_events,
    sweep,
    tangle,
)
from tangled_string.tangler import _top_k
from naive_reference import naive_tangle
from seqgen import random_case

# 14-token demo string with two recurrence clusters separated by fresh tokens.
DEMO = ["1", "2", "3", "2", "3", "4", "3", "4", "5", "6", "2", "5", "6", "7"]


def plain_result(window):
    return tangle(from_plain(DEMO), TangleParams(window, "plain"))


def as_tuples(result):
    return [
        (p.first_event, p.last_event, p.entrance_event, p.exit_event)
        for p in result.pills
    ]


# ---------------------------------------------------------------- demo string


def test_merge_absorbing_two_pills_keeps_the_deepest_entrance():
    # "aa" and "bb" knot first; the x match then swallows both, and the
    # merged pill enters where its first match did, at event 1
    seq = from_plain(list("xaabbx"))
    result = tangle(seq, TangleParams(5, "plain"))
    assert result.pills == (Pill(0, 5, 1, 5),)
    assert as_tuples(result) == naive_tangle(seq, 5, "plain").pills



def test_two_pills_at_window_6():
    result = plain_result(6)
    assert as_tuples(result) == [(1, 7, 1, 7), (8, 12, 8, 12)]
    first, second = result.pills
    assert DEMO[first.entrance_event] == "2"
    assert DEMO[first.exit_event] == "4"
    assert first.span == 6
    assert second.span == 4
    assert result.wire_events == (0, 13)


def test_single_pill_at_window_7():
    result = plain_result(7)
    assert as_tuples(result) == [(1, 12, 1, 12)]
    assert result.wire_events == (0, 13)


def test_no_pills_at_window_1():
    result = plain_result(1)
    assert result.pills == ()
    assert result.wire_events == tuple(range(14))
    assert result.pill_weight == {}
    assert result.wire_weight == {}


def test_pill_weights_at_window_6():
    # event 2 collects both of its revisits (distances 2 and 4)
    assert dict(plain_result(6).pill_weight) == {1: 2, 2: 6, 5: 2, 8: 3, 9: 3}


def test_wire_weights_at_window_6():
    assert dict(plain_result(6).wire_weight) == {1: 6, 7: 6, 8: 4, 12: 4}


def test_match_list_at_window_6():
    expected = [(1, 3), (2, 4), (2, 6), (5, 7), (8, 11), (9, 12)]
    assert [(m.earlier, m.later) for m in plain_result(6).matches] == expected
    assert plain_result(6).matches[0] == Match(earlier=1, later=3)
    matches = plain_result(6).matches
    assert type(matches) is tuple
    assert all(type(m) is Match for m in matches)


CHANGE_POINT = ChangePoint(4, "a", ENTRANCE, 1, "2007-07-13")
RECORDS = [
    (Match(1, 3), "earlier later", (1, 3)),
    (Pill(3, 9, 4, 8), "first_event last_event entrance_event exit_event", (3, 9, 4, 8)),
    (CHANGE_POINT, "event_index token role basket_index time_label",
     (4, "a", ENTRANCE, 1, "2007-07-13")),
    (KeyEvent(4, "a", 5, 1), "event_index token weight rank role", (4, "a", 5, 1, None)),
    (StabilityRecord(CHANGE_POINT, 2, True), "change_point prefix_baskets stable",
     ((4, "a", ENTRANCE, 1, "2007-07-13"), 2, True)),
]


@pytest.mark.parametrize(
    "record, names, values", RECORDS, ids=[type(record).__name__ for record, _, _ in RECORDS]
)
def test_record_is_a_read_only_named_tuple(record, names, values):
    names = tuple(names.split())
    assert type(record)._fields == names
    assert record == values
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in names)
    assert repr(record) == f"{type(record).__name__}({fields})"
    with pytest.raises(AttributeError):
        setattr(record, names[0], 0)
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and type(copy) is type(record)


def test_window_5_gives_same_pills_as_window_6():
    # every revisit distance in the demo string is at most 5
    assert as_tuples(plain_result(5)) == as_tuples(plain_result(6))
    assert dict(plain_result(5).pill_weight) == dict(plain_result(6).pill_weight)


def test_window_7_adds_the_bridging_match():
    weights = dict(plain_result(7).pill_weight)
    assert weights == {1: 2, 2: 6, 3: 7, 5: 2, 8: 3, 9: 3}
    assert dict(plain_result(7).wire_weight) == {1: 11, 12: 11}


def test_results_saturate_once_window_reaches_9():
    # event 10 sits 9 places after the first occurrence of its token;
    # beyond that distance nothing new can enter any window
    base = plain_result(9)
    for window in (10, 11, 14, 25):
        wide = plain_result(window)
        assert as_tuples(wide) == as_tuples(base)
        assert dict(wide.pill_weight) == dict(base.pill_weight)
        assert [(m.earlier, m.later) for m in wide.matches] == [
            (m.earlier, m.later) for m in base.matches
        ]
    assert dict(plain_result(8).pill_weight) != dict(base.pill_weight)


def test_key_pill_events():
    result = plain_result(6)
    top = key_pill_events(result, 1)
    assert [(e.event_index, e.token, e.weight, e.rank) for e in top] == [(2, "3", 6, 1)]
    top3 = key_pill_events(result, 3)
    assert [e.event_index for e in top3] == [2, 8, 9]
    assert all(e.role is None for e in top3)


def test_key_wire_events_tie_break_prefers_earlier_event():
    result = plain_result(6)
    top2 = key_wire_events(result, 2)
    assert [(e.event_index, e.weight, e.role) for e in top2] == [
        (1, 6, ENTRANCE),
        (7, 6, EXIT),
    ]
    top4 = key_wire_events(result, 4)
    assert [e.event_index for e in top4] == [1, 7, 8, 12]
    assert key_pill_events(result, 50) == key_pill_events(result, 5)


def test_key_events_reject_bad_k():
    result = plain_result(6)
    with pytest.raises(ValueError):
        key_pill_events(result, 0)
    with pytest.raises(ValueError):
        key_wire_events(result, -1)
    with pytest.raises(ValueError, match="k must be an int >= 1, got 2.5"):
        key_pill_events(result, 2.5)


@settings(deadline=None, max_examples=200)
@given(
    weights=st.dictionaries(st.integers(0, 300), st.integers(0, 3), max_size=30),
    data=st.data(),
)
def test_top_k_is_the_head_of_the_full_ranking(weights, data):
    # few distinct weights, so most ranks are decided by the tie-break
    k = data.draw(st.integers(1, len(weights) + 2))
    ranked = sorted(weights.items(), key=lambda item: (-item[1], item[0]))
    assert _top_k(weights, k) == ranked[:k]
    with pytest.raises(ValueError):
        _top_k(weights, data.draw(st.integers(-2, 0)))


def test_change_points_window_6():
    records = change_points(plain_result(6))
    assert [(cp.event_index, cp.role, cp.token) for cp in records] == [
        (1, ENTRANCE, "2"),
        (7, EXIT, "4"),
        (8, ENTRANCE, "5"),
        (12, EXIT, "6"),
    ]
    assert [cp.basket_index for cp in records] == [1, 7, 8, 12]


def test_change_points_window_7():
    records = change_points(plain_result(7))
    assert [(cp.event_index, cp.role) for cp in records] == [
        (1, ENTRANCE),
        (12, EXIT),
    ]


@pytest.mark.parametrize("variant", ["plain", "basket"])
def test_change_points_come_in_basket_then_event_order(variant):
    for seed in range(100):
        seq, params = random_case(seed)
        records = change_points(tangle(seq, TangleParams(params.window_w, variant)))
        keys = [(cp.basket_index, cp.event_index) for cp in records]
        assert keys == sorted(keys), (seed, params.window_w, variant)


def test_sweep_pill_counts():
    results = sweep(from_plain(DEMO), [1, 6, 7], variant="plain")
    assert {w: len(r.pills) for w, r in results.items()} == {1: 0, 6: 2, 7: 1}


def test_sweep_collapses_duplicate_windows():
    seq = from_plain(DEMO)
    twice = sweep(seq, [5, 5], variant="plain")
    assert set(twice) == {5}
    assert twice[5] == sweep(seq, [5], variant="plain")[5]


def test_sweep_requires_windows():
    with pytest.raises(ValueError):
        sweep(from_plain(DEMO), [])


def test_params_validation():
    with pytest.raises(ValueError):
        TangleParams(0)
    with pytest.raises(ValueError):
        TangleParams(3, "weekly")
    for width in (2.5, True):
        with pytest.raises(ValueError, match="window_w must be an int >= 1"):
            TangleParams(width)


# -------------------------------------------------------------- basket window


def test_basket_variant_two_pills():
    seq = from_baskets([["A", "B"], ["C", "A"], ["D", "E"], ["B", "D"]])
    result = tangle(seq, TangleParams(2, "basket"))
    assert as_tuples(result) == [(0, 3, 0, 3), (4, 7, 4, 7)]
    assert dict(result.pill_weight) == {0: 3, 4: 3}
    assert dict(result.wire_weight) == {0: 3, 3: 3, 4: 3, 7: 3}
    assert result.wire_events == ()


def test_basket_match_pulls_in_whole_baskets():
    # the second basket's trailing event joins the pill even though the
    # match landed on its first event
    seq = from_baskets([["A", "B"], ["A", "C"]])
    result = tangle(seq, TangleParams(2, "basket"))
    assert as_tuples(result) == [(0, 3, 0, 2)]
    pill = result.pills[0]
    assert pill.exit_event < pill.last_event
    assert pill.span == 3
    assert dict(result.wire_weight) == {0: 3, 2: 3}
    assert result.wire_events == ()


def test_basket_window_1_sees_only_the_current_basket():
    seq = from_baskets([["A", "A", "B"]])
    result = tangle(seq, TangleParams(1, "basket"))
    assert as_tuples(result) == [(0, 2, 0, 1)]
    assert dict(result.pill_weight) == {0: 1}

    spread = from_baskets([["A"], ["B"], ["A"]])
    assert tangle(spread, TangleParams(2, "basket")).pills == ()
    assert as_tuples(tangle(spread, TangleParams(3, "basket"))) == [(0, 2, 0, 2)]


def test_plain_window_equals_basket_window_plus_one_on_single_item_baskets():
    seq = from_plain(DEMO)
    for window in range(1, 11):
        plain = tangle(seq, TangleParams(window, "plain"))
        basket = tangle(seq, TangleParams(window + 1, "basket"))
        assert as_tuples(plain) == as_tuples(basket)
        assert dict(plain.pill_weight) == dict(basket.pill_weight)
        assert plain.matches == basket.matches


# ------------------------------------------------------------------- plumbing


def test_tangle_is_deterministic():
    seq = from_plain(DEMO)
    params = TangleParams(6, "plain")
    assert tangle(seq, params) == tangle(seq, params)


def test_scan_creates_no_tracked_object_per_match():
    # one GC-tracked object per match makes full collections land inside
    # long scans; the match forest is one flat array
    rng = random.Random(42)
    seq = from_plain([str(rng.randrange(30)) for _ in range(200_000)])
    params = TangleParams(10, "plain")
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        result = tangle(seq, params)
        created = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    matched = len(result.earlier) - result.earlier.count(-1)
    assert matched > 50_000
    assert created < matched / 2, (created, matched)


def test_pill_lookup_by_event():
    result = plain_result(6)
    assert result.pill_of(3) is result.pills[0]
    assert result.pill_of(8) is result.pills[1]
    assert result.pill_of(0) is None
    assert result.pill_of(13) is None


def test_pill_membership_helpers():
    pill = plain_result(6).pills[0]
    assert list(pill.members) == [1, 2, 3, 4, 5, 6, 7]
    assert 4 in pill
    assert 0 not in pill
    # membership is the span's, not a tuple's: no field of this pill equals 5
    assert 5 in Pill(3, 9, 4, 8)


def test_matches_naive_reference_on_demo_string():
    seq = from_plain(DEMO)
    for window in range(1, 12):
        result = tangle(seq, TangleParams(window, "plain"))
        ref = naive_tangle(seq, window, "plain")
        assert as_tuples(result) == ref.pills
        assert list(result.wire_events) == ref.wire_events
        assert dict(result.pill_weight) == ref.pill_weight
        assert dict(result.wire_weight) == ref.wire_weight
        assert [(m.earlier, m.later) for m in result.matches] == ref.matches
