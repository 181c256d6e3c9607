"""Coincidence evaluator, delay checks, and synthetic generation."""

import datetime
import math

import pytest

from tangled_string import (
    ENTRANCE,
    EXIT,
    PLAIN,
    DetectionScore,
    EmptyEvaluationError,
    EvalParams,
    PriceSeries,
    RegimeSpec,
    SyntheticSpec,
    TangleParams,
    change_points,
    coincidence_table,
    from_baskets,
    from_plain,
    generate_synthetic,
    months_to_days,
    score_detection,
    tangle,
    tolerant_delay_check,
)
from tangled_string.evaluator import MAX_SYNTHETIC_ITEMS

from eval_scenario import (
    KNOWN_PAIRS,
    brute_force_cells,
    build_sequence,
    mixed_prices,
    price_series,
    pure_step_prices,
    week,
)


# ---------------------------------------------------------------- horizons


def test_months_to_days_rounds_to_whole_weeks():
    assert months_to_days(3) == 91
    assert months_to_days(6) == 182
    assert months_to_days(12) == 364
    assert months_to_days(24) == 728


def test_months_to_days_single_month():
    # 4.33 weeks rounds to 4 whole weeks.
    assert months_to_days(1) == 28


# ------------------------------------------------------- scenario plumbing


def scenario_pairs(params: EvalParams):
    seq = build_sequence()
    points = {}
    for w in params.windows:
        points[w] = change_points(tangle(seq, TangleParams(window_w=w)))
    return seq, points


def test_scenario_change_points_match_plan():
    seq = build_sequence()
    result = tangle(seq, TangleParams(window_w=3))
    got = {
        (p.role, p.token, p.time_label)
        for p in change_points(result)
    }
    want = set()
    for role, pairs in KNOWN_PAIRS.items():
        for token, day in pairs:
            want.add((role, token, day.isoformat()))
    assert got == want


def test_pair_pooling_dedupes_across_windows():
    seq = build_sequence()
    table = coincidence_table(
        seq,
        price_series(pure_step_prices()),
        EvalParams(windows=(3, 4), deltas_months=(3,)),
    )
    # Four distinct (token, date) pairs despite two windows contributing.
    assert table.pair_counts == {ENTRANCE: 2, EXIT: 2}


# ------------------------------------------------------------ step scenario


def test_pure_step_table_matches_brute_force():
    seq = build_sequence()
    raw = pure_step_prices()
    params = EvalParams(windows=(3, 4), deltas_months=(3, 6, 12))
    table = coincidence_table(seq, price_series(raw), params)
    expect = brute_force_cells(raw, params.deltas_months)
    for role in (ENTRANCE, EXIT):
        for delta in params.deltas_months:
            cell = table.cell(role, delta)
            want = expect[(role, delta)]
            assert cell.evaluated == want["evaluated"], (role, delta)
            assert cell.decrease == want["decrease"], (role, delta)
            assert cell.increase == want["increase"], (role, delta)
            assert cell.increase_gt_sigma == want["increase_gt_sigma"]
            assert cell.flat == want["flat"], (role, delta)
            assert cell.dropped == want["dropped"], (role, delta)


def test_pure_step_literal_values():
    seq = build_sequence()
    table = coincidence_table(
        seq,
        price_series(pure_step_prices()),
        EvalParams(windows=(3, 4), deltas_months=(3,)),
    )
    ent = table.cell(ENTRANCE, 3)
    # A and C both step up cleanly from a dead-flat base: sigma is zero,
    # so both increases clear the threshold.
    assert ent.evaluated == 2
    assert ent.increase == 2
    assert ent.increase_gt_sigma == 2
    assert ent.decrease == 0
    assert ent.increase_fraction == 1.0
    assert ent.increase_gt_sigma_fraction == 1.0

    ex = table.cell(EXIT, 3)
    # B never moves (flat, excluded from fractions); D drops after exit.
    assert ex.evaluated == 2
    assert ex.flat == 1
    assert ex.decrease == 1
    assert ex.comparable == 1
    assert ex.decrease_fraction == 1.0


def test_noisy_increase_fails_sigma_rule():
    seq = build_sequence()
    raw = mixed_prices()
    params = EvalParams(windows=(3, 4), deltas_months=(3,))
    table = coincidence_table(seq, price_series(raw), params)
    expect = brute_force_cells(raw, (3,))

    ent = table.cell(ENTRANCE, 3)
    want = expect[(ENTRANCE, 3)]
    assert ent.increase == want["increase"] == 2
    # C's before-window alternates 95/105: the mean rises to 103 after,
    # but the move is smaller than one standard deviation.
    assert ent.increase_gt_sigma == want["increase_gt_sigma"] == 1


def test_endpoint_comparison_matches_brute_force():
    seq = build_sequence()
    raw = mixed_prices()
    params = EvalParams(
        windows=(3, 4), deltas_months=(3, 6), comparison="endpoint"
    )
    table = coincidence_table(seq, price_series(raw), params)
    expect = brute_force_cells(raw, (3, 6), comparison="endpoint")
    for role in (ENTRANCE, EXIT):
        for delta in (3, 6):
            cell = table.cell(role, delta)
            want = expect[(role, delta)]
            assert cell.increase == want["increase"]
            assert cell.decrease == want["decrease"]
            assert cell.flat == want["flat"]


def test_missing_symbol_is_dropped_not_fatal(caplog):
    seq = build_sequence()
    raw = pure_step_prices()
    del raw["D"]
    table = coincidence_table(
        seq,
        price_series(raw),
        EvalParams(windows=(3,), deltas_months=(3,)),
    )
    ex = table.cell(EXIT, 3)
    assert ex.dropped == 1
    assert ex.evaluated == 1


def test_empty_price_window_is_dropped():
    seq = build_sequence()
    raw = pure_step_prices()
    # A has no observations before week 5: its entrance at week 0 has an
    # empty before-window and must be dropped rather than classified.
    raw["A"] = [(week(k), 100.0) for k in range(5, 46)]
    table = coincidence_table(
        seq,
        price_series(raw),
        EvalParams(windows=(3,), deltas_months=(3,)),
    )
    ent = table.cell(ENTRANCE, 3)
    assert ent.dropped == 1
    assert ent.evaluated == 1


def test_no_pairs_raises():
    seq = from_baskets([["A"], ["B"]], ["2010-01-01", "2010-01-08"])
    with pytest.raises(EmptyEvaluationError):
        coincidence_table(
            seq,
            price_series(pure_step_prices()),
            EvalParams(windows=(1,), deltas_months=(3,)),
        )


def test_undated_sequence_rejected():
    seq = from_baskets([["A", "B"]] * 4 + [["C", "D"]] * 4)
    with pytest.raises(ValueError):
        coincidence_table(
            seq,
            price_series(pure_step_prices()),
            EvalParams(windows=(3,), deltas_months=(3,)),
        )


def test_table_dict_lists_each_cell_once_in_order():
    seq = build_sequence()
    params = EvalParams(windows=(3, 4), deltas_months=(6, 3, 6))
    table = coincidence_table(seq, price_series(pure_step_prices()), params)
    doc = table.to_dict()
    assert doc["pairs"] == {ENTRANCE: 2, EXIT: 2}
    # role, then ascending horizon; a repeated horizon is one cell
    assert [(cell["role"], cell["delta_months"]) for cell in doc["cells"]] == [
        (ENTRANCE, 3), (ENTRANCE, 6), (EXIT, 3), (EXIT, 6)
    ]
    # the parameters echo the request as given
    assert doc["params"]["deltas_months"] == [6, 3, 6]
    assert doc["params"]["windows"] == [3, 4]


def test_eval_params_validation():
    with pytest.raises(ValueError):
        EvalParams(windows=())
    for width in (0, 2.5, True):
        with pytest.raises(ValueError, match="window_w must be an int >= 1"):
            EvalParams(windows=(3, width))
    # 0.1 months rounds to a 0-day window; 1e308 months is infinitely many weeks
    for delta in (-3, 0, 0.1, math.nan, math.inf, -math.inf, 1e308, 10**400):
        with pytest.raises(ValueError, match="^deltas must all be positive and finite"):
            EvalParams(deltas_months=(delta,))
    for delta in ("3", True):
        with pytest.raises(ValueError, match="deltas_months must be a finite number"):
            EvalParams(deltas_months=(3, delta))
    with pytest.raises(ValueError):
        EvalParams(comparison="median")


# ------------------------------------------------------------- delay check


def test_tolerant_delay_check_hand_case():
    seq = from_plain(["A", "B", "A", "C", "D", "C"])
    params = TangleParams(window_w=2, variant=PLAIN)
    points = change_points(tangle(seq, params))
    roles = [(p.event_index, p.role) for p in points]
    assert roles == [(0, ENTRANCE), (2, EXIT), (3, ENTRANCE), (5, EXIT)]

    # With no grace period each entrance is checked on a prefix that ends
    # at its own basket, before the match that creates the pill exists.
    strict = tolerant_delay_check(seq, params, 0)
    assert [r.stable for r in strict] == [False, True, False, True]

    relaxed = tolerant_delay_check(seq, params, 2)
    assert all(r.stable for r in relaxed)


def test_delay_check_records_prefix_length():
    seq = from_plain(["A", "B", "A", "C", "D", "C"])
    params = TangleParams(window_w=2, variant=PLAIN)
    records = tolerant_delay_check(seq, params, 2)
    # First point sees three baskets; the last prefix clamps to the end.
    assert records[0].prefix_baskets == 3
    assert records[-1].prefix_baskets == 6


def test_delay_check_rejects_negative_tolerance():
    seq = from_plain(["A", "B", "A"])
    params = TangleParams(window_w=2, variant=PLAIN)
    for dt_baskets in (-1, 1.5):
        with pytest.raises(ValueError, match="dt_baskets must be an int >= 0"):
            tolerant_delay_check(seq, params, dt_baskets)


# --------------------------------------------------------------- synthesis


def make_spec(seed=7):
    return SyntheticSpec(
        regimes=(
            RegimeSpec(vocabulary=("a1", "a2", "a3", "a4"), length_baskets=10),
            RegimeSpec(vocabulary=("b1", "b2", "b3", "b4"), length_baskets=10),
        ),
        noise_rate=0.0,
        seed=seed,
        basket_size=3,
    )


def test_synthetic_is_deterministic():
    seq1, b1 = generate_synthetic(make_spec())
    seq2, b2 = generate_synthetic(make_spec())
    assert seq1 == seq2
    assert b1 == b2


def test_synthetic_seed_changes_output():
    seq1, _ = generate_synthetic(make_spec(seed=1))
    seq2, _ = generate_synthetic(make_spec(seed=2))
    assert seq1 != seq2


def test_synthetic_boundaries_and_shape():
    seq, boundaries = generate_synthetic(make_spec())
    assert boundaries == [10]
    assert seq.basket_count == 20
    assert len(seq) == 60
    # Weekly labels, ISO format, strictly increasing.
    labels = seq.time_labels
    days = [datetime.date.fromisoformat(lbl) for lbl in labels]
    for earlier, later in zip(days, days[1:]):
        assert (later - earlier).days == 7


def test_synthetic_respects_regime_vocabulary():
    seq, boundaries = generate_synthetic(make_spec())
    cut = boundaries[0]
    for token, basket in zip(seq.tokens, seq.basket_membership):
        vocab = ("a1", "a2", "a3", "a4") if basket < cut else (
            "b1",
            "b2",
            "b3",
            "b4",
        )
        assert token in vocab


def test_synthetic_noise_borrows_foreign_tokens():
    spec = SyntheticSpec(
        regimes=(
            RegimeSpec(vocabulary=("a1", "a2"), length_baskets=30),
            RegimeSpec(vocabulary=("b1", "b2"), length_baskets=30),
        ),
        noise_rate=0.5,
        seed=11,
        basket_size=4,
    )
    seq, _ = generate_synthetic(spec)
    first_regime_tokens = {
        token for token, basket in zip(seq.tokens, seq.basket_membership) if basket < 30
    }
    assert first_regime_tokens & {"b1", "b2"}


def test_synthetic_requires_regimes():
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticSpec(regimes=()))


@pytest.mark.parametrize(
    "build",
    [lambda: SyntheticSpec(regimes=(RegimeSpec(("a", "b"), 2.5),)),
     lambda: SyntheticSpec(regimes=(RegimeSpec(("a", "b"), 3),), basket_size=2.5),
     lambda: SyntheticSpec(regimes=(RegimeSpec(("a", "b"), 3),), seed="x"),
     lambda: SyntheticSpec(regimes=(RegimeSpec(("a", "b"), 3),), noise_rate=True),
     lambda: SyntheticSpec(regimes=(RegimeSpec(vocabulary="ab", length_baskets=3),)),
     lambda: SyntheticSpec(regimes=(RegimeSpec(vocabulary=("a", 7), length_baskets=3),)),
     lambda: SyntheticSpec(regimes=("x",)),
     lambda: SyntheticSpec(regimes=(RegimeSpec(("a", "b"), 3),), start_date=5)],
    ids=["length_baskets", "basket_size", "seed", "noise_rate", "str vocabulary",
         "int token", "str regime", "int start_date"],
)
def test_synthetic_spec_refuses_values_it_would_misread(build):
    with pytest.raises(ValueError):
        generate_synthetic(build())


def test_synthetic_spec_refuses_more_items_than_the_cap():
    # only built, never generated: the refusal comes before any item is drawn
    with pytest.raises(ValueError, match="10,000,000 items"):
        SyntheticSpec(regimes=(RegimeSpec(("a", "b"), 3),), basket_size=10**9)
    ten = (RegimeSpec(("a", "b"), 4), RegimeSpec(("c",), 6))
    SyntheticSpec(regimes=ten, basket_size=MAX_SYNTHETIC_ITEMS // 10)
    with pytest.raises(ValueError, match="basket_size 1000001 times 10 baskets"):
        SyntheticSpec(regimes=ten, basket_size=MAX_SYNTHETIC_ITEMS // 10 + 1)


def test_synthetic_last_basket_must_be_a_valid_date():
    three = (RegimeSpec(vocabulary=("a",), length_baskets=3),)
    seq, _ = generate_synthetic(SyntheticSpec(regimes=three, start_date="9999-12-17"))
    assert seq.time_labels[-1] == "9999-12-31"
    with pytest.raises(ValueError):
        SyntheticSpec(regimes=three, start_date="9999-12-18")


# ------------------------------------------------------------- detection


def test_detection_within_tolerance():
    score = score_detection(detected=[53], planted=[50], tolerance=5)
    assert score.matches == 1
    assert score.precision == 1.0
    assert score.recall == 1.0


def test_detection_outside_tolerance():
    score = score_detection(detected=[53], planted=[50], tolerance=2)
    assert score.matches == 0
    assert score.precision == 0.0
    assert score.recall == 0.0


def test_detection_empty_detected():
    score = score_detection(detected=[], planted=[50], tolerance=5)
    assert score.precision == 1.0
    assert score.recall == 0.0


def test_detection_is_one_to_one():
    # Two detections near one planted boundary: only one may claim it.
    score = score_detection(detected=[49, 51], planted=[50], tolerance=3)
    assert score.matches == 1
    assert score.precision == 0.5
    assert score.recall == 1.0


def test_detection_prefers_nearest_then_earlier():
    score = score_detection(detected=[50], planted=[48, 52], tolerance=4)
    assert score.matches == 1
    assert score.recall == 0.5


def test_detection_rejects_negative_tolerance():
    with pytest.raises(ValueError):
        score_detection(detected=[1], planted=[1], tolerance=-1)
    # a NaN tolerance used to match everything: 1 match of 1 here
    with pytest.raises(ValueError, match="tolerance must be an int >= 0"):
        score_detection(detected=[1], planted=[100], tolerance=math.nan)


def test_detection_score_fields():
    score = score_detection(detected=[10, 20], planted=[11], tolerance=1)
    assert isinstance(score, DetectionScore)
    assert score.detected == 2
    assert score.planted == 1
    assert score.matches == 1
