"""The tolerant-delay check against its per-cut oracle, and its horizon.

The library reads every cut off the full run alone.  The oracle here is
the direct reading of the definition: cut the sequence after basket
``t + dt``, tangle the prefix again and look for the same (event, role)
among its change points.
"""

import pytest

from tangled_string import (
    BASKET,
    EXIT,
    PLAIN,
    StabilityRecord,
    TangleParams,
    change_points,
    tangle,
    tangler,
    tolerant_delay_check,
)

from seqgen import random_case

CASES = 300


def per_cut_delay_check(seq, params, dt_baskets, reports):
    """One prefix run per distinct cut, as the check was first written.

    ``reports`` caches each cut's (event, role) set across calls on the
    same sequence and parameters.
    """
    full = change_points(tangle(seq, params))
    records = []
    for cp in full:
        keep = min(cp.basket_index + dt_baskets + 1, seq.basket_count)
        if keep not in reports:
            prefix = change_points(tangle(seq.prefix(keep), params))
            reports[keep] = {(p.event_index, p.role) for p in prefix}
        stable = (cp.event_index, cp.role) in reports[keep]
        records.append(StabilityRecord(change_point=cp, prefix_baskets=keep, stable=stable))
    return records


def by_the_rule(seq, params, records):
    """``records`` with each flag set by the rule: an exit is always stable, and
    an entrance is stable iff the cut keeps the basket of its partner, the
    later end of the first match of the entrance's pill."""
    full = tangle(seq, params)
    partner = {}
    for match in full.matches:
        partner.setdefault(full.pill_of(match.later), match.later)
    ruled = []
    for record in records:
        cp = record.change_point
        kept = seq.basket_membership[partner[full.pill_of(cp.event_index)]] < record.prefix_baskets
        ruled.append(record._replace(stable=cp.role == EXIT or kept))
    return ruled


def horizon(params):
    """Delay, in baskets, after which no later match can move a change point."""
    return params.window_w if params.variant == PLAIN else params.window_w - 1


def cases(variant):
    for seed in range(CASES):
        seq, params = random_case(seed)
        yield seed, seq, TangleParams(params.window_w, variant)


@pytest.mark.parametrize("variant", [PLAIN, BASKET])
def test_delay_check_equals_per_cut_oracle(variant):
    for seed, seq, params in cases(variant):
        h = horizon(params)
        reports = {}
        for dt in sorted({0, 1, max(h - 1, 0), h, 2 * h}):
            expected = per_cut_delay_check(seq, params, dt, reports)
            assert by_the_rule(seq, params, expected) == expected, (seed, params, dt)
            assert tolerant_delay_check(seq, params, dt) == expected, (seed, params, dt)


def test_delay_check_scans_once(monkeypatch):
    calls = []
    scan = tangler._scan
    monkeypatch.setattr(tangler, "_scan", lambda *args: calls.append(args) or scan(*args))
    seq, params = random_case(0)
    assert tolerant_delay_check(seq, params, 0)
    assert len(calls) == 1


@pytest.mark.parametrize("variant", [PLAIN, BASKET])
def test_prefix_run_matches_are_the_full_runs_before_the_cut(variant):
    for seed, seq, params in cases(variant):
        full = tangle(seq, params)
        cuts = {cp.basket_index + 1 for cp in change_points(full)} | {1, seq.basket_count}
        for keep in sorted(cuts):
            end = seq.basket_starts[keep] if keep < seq.basket_count else len(seq)
            prefix = tangle(seq.prefix(keep), params)
            expected = tuple(m for m in full.matches if m.later < end)
            assert prefix.matches == expected, (seed, params, keep)


@pytest.mark.parametrize("variant", [PLAIN, BASKET])
def test_every_record_is_stable_from_the_horizon_on(variant):
    for seed, seq, params in cases(variant):
        h = horizon(params)
        for dt in (h, 2 * h):
            records = tolerant_delay_check(seq, params, dt)
            assert all(r.stable for r in records), (seed, params, dt)


def test_horizon_is_tight():
    # one basket short of the horizon, some change point still moves
    short = 0
    for variant in (PLAIN, BASKET):
        for _, seq, params in cases(variant):
            h = horizon(params)
            if h >= 1 and not all(r.stable for r in tolerant_delay_check(seq, params, h - 1)):
                short += 1
    assert short > 0
