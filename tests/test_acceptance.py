"""Acceptance battery: one test per shipping criterion.

Each test is numbered; the terminal summary (see conftest) prints one
verdict line per criterion.  Budgets are asserted inside the tests, so a
pass means correct *and* fast enough.
"""

import os
import random
import time

import pytest

from tangled_string import (
    BASKET,
    ENTRANCE,
    EXIT,
    EvalParams,
    PLAIN,
    RegimeSpec,
    SyntheticSpec,
    TangleParams,
    change_points,
    coincidence_table,
    from_baskets,
    from_plain,
    generate_synthetic,
    key_pill_events,
    parse_baskets,
    parse_prices,
    score_detection,
    tangle,
    tolerant_delay_check,
)

from eval_scenario import (
    brute_force_cells,
    build_sequence,
    mixed_prices,
    price_series,
    pure_step_prices,
)
from naive_reference import naive_tangle
from seqgen import check_all, check_saturation, random_case

DEMO = ["1", "2", "3", "2", "3", "4", "3", "4", "5", "6", "2", "5", "6", "7"]


def test_criterion_1_golden_pill_structure():
    started = time.perf_counter()
    seq = from_plain(DEMO)
    at_6 = tangle(seq, TangleParams(6, PLAIN))
    assert len(at_6.pills) == 2
    first = at_6.pills[0]
    assert seq.tokens[first.entrance_event] == "2"
    assert seq.tokens[first.exit_event] == "4"
    top = key_pill_events(at_6, 1)
    assert top[0].token == "3"

    at_7 = tangle(seq, TangleParams(7, PLAIN))
    assert len(at_7.pills) == 1
    assert time.perf_counter() - started < 1.0


def test_criterion_2_golden_weights():
    result = tangle(from_plain(DEMO), TangleParams(6, PLAIN))
    assert dict(result.pill_weight) == {1: 2, 2: 6, 5: 2, 8: 3, 9: 3}
    assert dict(result.wire_weight) == {1: 6, 7: 6, 8: 4, 12: 4}


def test_criterion_3_oracle_equivalence():
    started = time.perf_counter()
    for seed in range(1000):
        seq, params = random_case(seed)
        fast = tangle(seq, params)
        slow = naive_tangle(seq, params.window_w, params.variant)
        context = (seed, params.window_w, params.variant, len(seq))
        assert [(m.earlier, m.later) for m in fast.matches] == slow.matches, context
        assert [
            (p.first_event, p.last_event, p.entrance_event, p.exit_event)
            for p in fast.pills
        ] == slow.pills, context
        assert dict(fast.pill_weight) == slow.pill_weight, context
        assert dict(fast.wire_weight) == slow.wire_weight, context
        assert list(fast.wire_events) == slow.wire_events, context
    assert time.perf_counter() - started < 60.0


def test_criterion_4_invariant_battery():
    for seed in range(10_000, 10_500):
        seq, params = random_case(seed)
        check_all(seq, params)
        check_saturation(seq, params.variant)

    # The worked example stays put for every window at or past 9.
    seq = from_plain(DEMO)
    fixed = tangle(seq, TangleParams(9, PLAIN))
    for window in range(9, 61):
        wide = tangle(seq, TangleParams(window, PLAIN))
        assert wide.pills == fixed.pills
        assert wide.matches == fixed.matches
        assert wide.pill_weight == fixed.pill_weight
        assert wide.wire_weight == fixed.wire_weight


def _best_of(runs, fn):
    best = None
    for _ in range(runs):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def test_criterion_5_linear_time_scaling():
    rng = random.Random(42)
    tokens = [str(rng.randrange(30)) for _ in range(200_000)]
    half = from_plain(tokens[:100_000])
    full = from_plain(tokens)
    params = TangleParams(10, PLAIN)
    tangle(half, params)  # warm-up

    t_half = _best_of(3, lambda: tangle(half, params))
    t_full = _best_of(3, lambda: tangle(full, params))
    assert t_full <= 2.5 * t_half, (t_half, t_full)

    # Dataset scale from the intended application: 592 weekly baskets of
    # ten items end to end in well under a second.
    rng = random.Random(7)
    baskets = [[str(rng.randrange(300)) for _ in range(10)] for _ in range(592)]
    started = time.perf_counter()
    weekly = from_baskets(baskets)
    for window in (4, 5, 6):
        tangle(weekly, TangleParams(window, BASKET))
    assert time.perf_counter() - started < 1.0


def _boundary_spec(seed: int) -> SyntheticSpec:
    rng = random.Random(seed)
    regimes = []
    for ordinal in range(rng.randint(2, 4)):
        vocabulary = tuple(
            f"r{ordinal}s{k}" for k in range(rng.randint(8, 12))
        )
        regimes.append(
            RegimeSpec(
                vocabulary=vocabulary,
                length_baskets=rng.randint(15, 30),
                repeat_rate=0.85,
            )
        )
    return SyntheticSpec(
        regimes=tuple(regimes),
        noise_rate=0.0,
        seed=seed,
        basket_size=5,
        start_date=None,
    )


def test_criterion_6_synthetic_boundary_recovery():
    started = time.perf_counter()
    window = 4
    params = TangleParams(window, BASKET)
    total_matches = total_detected = total_planted = 0
    for seed in range(50):
        seq, planted = generate_synthetic(_boundary_spec(seed))
        result = tangle(seq, params)
        detected = sorted(
            {
                point.basket_index
                for point in change_points(result)
                if point.role == ENTRANCE and point.basket_index >= window
            }
        )
        score = score_detection(detected, planted, tolerance=window)
        total_matches += score.matches
        total_detected += score.detected
        total_planted += score.planted
    precision = total_matches / total_detected
    recall = total_matches / total_planted
    assert precision >= 0.8, (precision, total_matches, total_detected)
    assert recall >= 0.9, (recall, total_matches, total_planted)
    assert time.perf_counter() - started < 120.0


def test_criterion_7_tolerant_delay_monotonicity():
    window = 3
    params = TangleParams(window, BASKET)
    stable_seen = 0
    for seed in range(100, 120):
        rng = random.Random(seed)
        regimes = tuple(
            RegimeSpec(
                vocabulary=tuple(f"r{o}s{k}" for k in range(rng.randint(6, 9))),
                length_baskets=rng.randint(10, 20),
                repeat_rate=0.85,
            )
            for o in range(rng.randint(2, 3))
        )
        spec = SyntheticSpec(
            regimes=regimes, noise_rate=0.0, seed=seed, basket_size=4, start_date=None
        )
        seq, _ = generate_synthetic(spec)
        delays = [window, 2 * window, 4 * window, seq.basket_count]
        stability = {}
        for delay in delays:
            stability[delay] = {
                (r.change_point.event_index, r.change_point.role): r.stable
                for r in tolerant_delay_check(seq, params, delay)
            }
        for key, stable in stability[window].items():
            if stable:
                stable_seen += 1
                for delay in delays[1:]:
                    assert stability[delay][key], (seed, key, delay)
    assert stable_seen > 0


def test_criterion_8_evaluator_brute_force_agreement():
    params = EvalParams(windows=(3, 4), deltas_months=(3, 6, 12, 24))
    seq = build_sequence()
    for raw in (pure_step_prices(), mixed_prices()):
        table = coincidence_table(seq, price_series(raw), params)
        expected = brute_force_cells(raw, params.deltas_months)
        for role in (ENTRANCE, EXIT):
            for delta in params.deltas_months:
                cell = table.cell(role, delta)
                want = expected[(role, delta)]
                got = {
                    "evaluated": cell.evaluated,
                    "decrease": cell.decrease,
                    "increase": cell.increase,
                    "increase_gt_sigma": cell.increase_gt_sigma,
                    "flat": cell.flat,
                    "dropped": cell.dropped,
                }
                assert got == want, (role, delta)


def test_criterion_9_proprietary_dataset_reproduction():
    baskets_path = os.environ.get("TANGLED_WEEKLY_BASKETS")
    prices_path = os.environ.get("TANGLED_WEEKLY_PRICES")
    if not baskets_path or not prices_path:
        pytest.skip(
            "waived: proprietary 592-week ranking dataset not available "
            "(set TANGLED_WEEKLY_BASKETS and TANGLED_WEEKLY_PRICES to enable)"
        )
    with open(baskets_path, encoding="utf-8", newline="") as handle:
        seq = parse_baskets(handle)
    pill_counts = {
        window: len(tangle(seq, TangleParams(window, BASKET)).pills)
        for window in (4, 5, 6)
    }
    assert pill_counts == {4: 19, 5: 7, 6: 3}

    with open(prices_path, encoding="utf-8", newline="") as handle:
        prices = parse_prices(handle)
    table = coincidence_table(seq, prices, EvalParams())
    entrances = table.cell(ENTRANCE, 3)
    assert entrances.decrease == 4
    assert entrances.increase == 32
    assert entrances.increase_gt_sigma == 27
