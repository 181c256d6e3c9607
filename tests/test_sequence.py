"""Sequence model: construction, indexing, round trips, errors."""

import tracemalloc

import pytest

from tangled_string import (
    BasketSequence,
    EmptyBasketError,
    EmptySequenceError,
    from_baskets,
    from_plain,
)


def test_plain_construction():
    seq = from_plain([1, 2, 3, 2])
    assert len(seq) == 4
    assert seq.basket_count == 4
    assert seq.tokens[3] == "2"
    assert seq.basket_membership[3] == 3
    assert seq.time_labels == (None,) * 4


def test_basket_construction():
    seq = from_baskets([[6378, 8061], [1907, 6850]])
    assert len(seq) == 4
    assert seq.basket_count == 2
    assert seq.tokens == ("6378", "8061", "1907", "6850")
    assert seq.basket_membership == (0, 0, 1, 1)
    assert seq.basket_starts == (0, 2)


def test_flatten_and_regroup_round_trip():
    baskets = [["a", "b"], ["c"], ["a", "d", "e"]]
    seq = from_baskets(baskets, time_labels=["t0", "t1", "t2"])
    regrouped: dict[int, list[str]] = {}
    for token, basket in zip(seq.tokens, seq.basket_membership):
        regrouped.setdefault(basket, []).append(token)
    assert [regrouped[k] for k in sorted(regrouped)] == baskets
    assert list(seq.baskets()) == [
        ("a", "b"),
        ("c",),
        ("a", "d", "e"),
    ]


def test_time_labels_flow_to_events():
    seq = from_baskets([["x"], ["y", "x"]], time_labels=["2007-07-06", "2007-07-13"])
    labels = [seq.time_labels[basket] for basket in seq.basket_membership]
    assert labels == ["2007-07-06", "2007-07-13", "2007-07-13"]


def test_empty_sequence_is_rejected():
    with pytest.raises(EmptySequenceError):
        from_plain([])
    with pytest.raises(EmptySequenceError):
        from_baskets([])


def test_empty_basket_is_rejected_with_ordinal():
    with pytest.raises(EmptyBasketError) as err:
        from_baskets([[], [1907]])
    assert err.value.basket == 0


def test_empty_token_is_rejected():
    with pytest.raises(ValueError):
        from_plain(["a", ""])


def test_empty_token_error_names_its_basket():
    with pytest.raises(ValueError, match="empty token in basket 1"):
        from_baskets([["a"], ["b", ""]])


def test_plain_accepts_a_generator_of_any_tokens():
    seq = from_plain(t for t in [1, "b", 2.5])
    assert seq.tokens == ("1", "b", "2.5")
    assert tuple(seq.basket_starts) == (0, 1, 2)


def test_time_label_count_must_match():
    with pytest.raises(ValueError):
        from_baskets([["a"]], time_labels=["t0", "t1"])


def test_prefix():
    seq = from_baskets([["a", "b"], ["c"], ["d"]], time_labels=["t0", "t1", "t2"])
    head = seq.prefix(2)
    assert head.basket_count == 2
    assert head.tokens == ("a", "b", "c")
    assert head.time_labels == ("t0", "t1")
    assert seq.prefix(99) == seq
    with pytest.raises(EmptySequenceError):
        seq.prefix(0)


def test_equality_and_repr():
    a = from_plain(["x", "y"])
    b = from_plain(["x", "y"])
    assert a == b and hash(a) == hash(b)
    assert a != from_baskets([["x", "y"]])
    assert "events=2" in repr(a)


@pytest.mark.parametrize("tokens", [["x"], ["a", "b", "a"], [1, "b", 2.5, 1, None]])
def test_plain_equals_one_item_baskets(tokens):
    plain = from_plain(tokens)
    built = BasketSequence([t] for t in tokens)
    assert plain == built and hash(plain) == hash(built)
    assert plain.tokens == tuple(map(str, tokens))
    assert tuple(plain.basket_membership) == tuple(range(len(tokens)))
    assert list(plain.baskets()) == [(str(t),) for t in tokens]
    for k in range(1, len(tokens) + 2):
        assert plain.prefix(k) == from_plain(tokens[:k])


@pytest.mark.parametrize("tokens", [[], ["a", ""], ["", "a"]])
def test_both_constructors_refuse_alike(tokens):
    with pytest.raises((EmptySequenceError, ValueError)) as plain:
        from_plain(tokens)
    with pytest.raises((EmptySequenceError, ValueError)) as built:
        BasketSequence([t] for t in tokens)
    assert type(plain.value) is type(built.value)
    assert str(plain.value) == str(built.value)


def test_plain_build_stores_no_per_token_index():
    # the tokens and labels tuples take 1.5 MB each; per-token index
    # tuples and baskets took the build to 21 MB
    tokens = [str(i % 1000) for i in range(200_000)]
    tracemalloc.start()
    try:
        seq = from_plain(tokens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(seq) == len(tokens)
    assert peak < 4 * 2**20, peak
