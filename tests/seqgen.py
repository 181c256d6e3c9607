"""Seeded random tangling cases and the invariant checks they must pass.

Shared between the hypothesis suite (which shrinks counterexamples) and
the acceptance battery (which needs a large, reproducible sample).
"""

import math
import random

from tangled_string import (
    BASKET,
    PLAIN,
    BasketSequence,
    TangleParams,
    from_baskets,
    tangle,
)

MAX_LENGTH = 2000
MAX_WINDOW = 20


def random_case(seed: int) -> tuple[BasketSequence, TangleParams]:
    """One reproducible case: random tokens, baskets, variant and window."""
    rng = random.Random(seed)
    alphabet = rng.randint(2, 50)
    if seed % 50 == 0:
        length = rng.randint(1500, MAX_LENGTH)  # keep the tail represented
    else:
        length = round(10 ** rng.uniform(1.0, math.log10(MAX_LENGTH)))
    tokens = [str(rng.randrange(alphabet)) for _ in range(length)]
    baskets = []
    i = 0
    while i < len(tokens):
        size = rng.randint(1, 5)
        baskets.append(tokens[i : i + size])
        i += size
    params = TangleParams(rng.randint(1, MAX_WINDOW), rng.choice([PLAIN, BASKET]))
    return from_baskets(baskets), params


def check_partition(result):
    """Pill members and wire events partition the event range exactly."""
    length = len(result.sequence)
    seen = [0] * length
    for pill in result.pills:
        for member in pill.members:
            seen[member] += 1
    for wire_event in result.wire_events:
        seen[wire_event] += 1
    assert all(count == 1 for count in seen), "events double-covered or missed"


def check_pill_shape(result):
    """Pills are ordered, disjoint, and satisfy the span law."""
    previous_last = -1
    for pill in result.pills:
        assert pill.first_event > previous_last, "pills overlap or are unsorted"
        assert pill.span == pill.last_event - pill.first_event >= 1
        assert pill.first_event <= pill.entrance_event < pill.exit_event <= pill.last_event
        previous_last = pill.last_event


def check_weights(result):
    """Weights reconcile against the match list and pill spans."""
    assert sum(result.pill_weight.values()) == sum(
        m.later - m.earlier for m in result.matches
    )
    assert sum(result.wire_weight.values()) == 2 * sum(p.span for p in result.pills)
    expected_keys = set()
    for pill in result.pills:
        expected_keys.add(pill.entrance_event)
        expected_keys.add(pill.exit_event)
    assert set(result.wire_weight) == expected_keys
    matched_origins = {m.earlier for m in result.matches}
    assert set(result.pill_weight) <= matched_origins


def check_determinism(seq, params, result):
    again = tangle(seq, params)
    assert again.pills == result.pills
    assert again.matches == result.matches
    assert again.pill_weight == result.pill_weight
    assert again.wire_weight == result.wire_weight


def check_monotonicity(seq, params, result):
    """Widening the window only adds matches, and origins move earlier."""
    wider = tangle(seq, TangleParams(params.window_w + 1, params.variant))
    narrow_by_later = {m.later: m.earlier for m in result.matches}
    wide_by_later = {m.later: m.earlier for m in wider.matches}
    assert set(narrow_by_later) <= set(wide_by_later)
    for later, earlier in narrow_by_later.items():
        assert wide_by_later[later] <= earlier


def saturation_window(seq, variant) -> int:
    """The width beyond which every event matches its token's first occurrence."""
    first_seen = {}
    bound = 1
    for index, (token, basket) in enumerate(zip(seq.tokens, seq.basket_membership)):
        if token in first_seen:
            first_index, first_basket = first_seen[token]
            if variant == PLAIN:
                bound = max(bound, index - first_index)
            else:
                bound = max(bound, basket - first_basket + 1)
        else:
            first_seen[token] = (index, basket)
    return bound


def check_saturation(seq, variant):
    bound = saturation_window(seq, variant)
    saturated = tangle(seq, TangleParams(bound, variant))
    huge = tangle(seq, TangleParams(len(seq) + seq.basket_count, variant))
    assert saturated.pills == huge.pills
    assert saturated.matches == huge.matches


def check_all(seq, params):
    """Every invariant on one case; returns the result for reuse."""
    result = tangle(seq, params)
    check_partition(result)
    check_pill_shape(result)
    check_weights(result)
    check_determinism(seq, params, result)
    check_monotonicity(seq, params, result)
    return result
