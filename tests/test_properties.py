"""Property-based checks: invariants and oracle agreement under shrinking."""

from hypothesis import given, settings, strategies as st

from tangled_string import BASKET, PLAIN, TangleParams, from_baskets, from_plain, tangle

from naive_reference import naive_tangle
from seqgen import check_all, check_saturation

DEMO = ["1", "2", "3", "2", "3", "4", "3", "4", "5", "6", "2", "5", "6", "7"]


@st.composite
def tangle_cases(draw):
    alphabet = draw(st.integers(min_value=2, max_value=12))
    tokens = draw(
        st.lists(st.integers(0, alphabet - 1), min_size=1, max_size=60).map(
            lambda xs: [str(x) for x in xs]
        )
    )
    baskets = []
    i = 0
    while i < len(tokens):
        size = draw(st.integers(1, 4))
        baskets.append(tokens[i : i + size])
        i += size
    window = draw(st.integers(1, 8))
    variant = draw(st.sampled_from([PLAIN, BASKET]))
    return from_baskets(baskets), TangleParams(window, variant)


@settings(deadline=None)
@given(tangle_cases())
def test_invariants_hold(case):
    seq, params = case
    check_all(seq, params)


@settings(deadline=None)
@given(tangle_cases())
def test_matches_production_equals_naive(case):
    seq, params = case
    result = tangle(seq, params)
    naive = naive_tangle(seq, params.window_w, params.variant)
    assert [(m.earlier, m.later) for m in result.matches] == naive.matches
    got_pills = [
        (p.first_event, p.last_event, p.entrance_event, p.exit_event)
        for p in result.pills
    ]
    assert got_pills == naive.pills
    assert result.pill_weight == naive.pill_weight
    assert result.wire_weight == naive.wire_weight
    assert list(result.wire_events) == naive.wire_events


@settings(deadline=None)
@given(tangle_cases())
def test_saturation_window_is_sufficient(case):
    seq, params = case
    check_saturation(seq, params.variant)


@settings(deadline=None)
@given(tangle_cases())
def test_plain_equals_basket_with_one_extra(case):
    # plain ignores baskets: W events back is W + 1 one-event baskets back
    seq, params = case
    window = params.window_w
    plain = tangle(seq, TangleParams(window, PLAIN))
    basket = tangle(from_plain(seq.tokens), TangleParams(window + 1, BASKET))
    assert plain.matches == basket.matches
    assert plain.pills == basket.pills
    assert plain.pill_weight == basket.pill_weight
    assert plain.wire_weight == basket.wire_weight
    assert plain.wire_events == basket.wire_events


def test_demo_saturates_at_nine():
    seq = from_plain(DEMO)
    reference = tangle(seq, TangleParams(9, PLAIN))
    for window in range(9, 41):
        wider = tangle(seq, TangleParams(window, PLAIN))
        assert wider.pills == reference.pills
        assert wider.matches == reference.matches
        assert wider.pill_weight == reference.pill_weight
    narrower = tangle(seq, TangleParams(8, PLAIN))
    # The lone pill already exists at W=8, but event 11 still matches the
    # nearer "2" at position 4 instead of the first one at position 2.
    assert narrower.pills == reference.pills
    assert narrower.matches != reference.matches
