"""Evaluation tools for tangled sequences.

Three independent questions are answered here:

* do the reported entrances and exits coincide with price moves
  (:func:`coincidence_table`),
* how much trailing data does a change point need before it stops moving
  (:func:`tolerant_delay_check`),
* can the tangler recover regime boundaries planted in synthetic data
  (:func:`generate_synthetic` + :func:`score_detection`).
"""

from __future__ import annotations

import datetime
import logging
import random
import sys
from dataclasses import dataclass
from statistics import fmean, stdev
from typing import Iterable, Mapping, NamedTuple

from .errors import EmptyEvaluationError, check_count, check_number, check_rate
from .ingest import PriceSeries, parse_date
from .sequence import BasketSequence, Token, from_baskets
from .tangler import (
    BASKET,
    ENTRANCE,
    EXIT,
    ChangePoint,
    TangleParams,
    change_points,
    sweep,
    tangle,
)

logger = logging.getLogger(__name__)

WEEKS_PER_MONTH = 4.33

COMPARE_MEAN = "mean"
COMPARE_ENDPOINT = "endpoint"


def months_to_days(months: float) -> int:
    """Horizon length in days: months -> whole weeks (nearest) -> days."""
    return round(months * WEEKS_PER_MONTH) * 7


@dataclass(frozen=True)
class EvalParams:
    """Pooled windows, horizons in months, and the comparison rule.

    ``comparison`` selects window means (default) or endpoint prices.
    Increases larger than the before-window's standard deviation are always
    counted, and the JSON always carries them; ``sigma_rule`` only decides
    whether the CSV lists the ``increase_gt_sigma`` rows.
    """

    windows: tuple[int, ...] = (3, 4, 5, 6)
    deltas_months: tuple[float, ...] = (3, 6, 12, 24)
    sigma_rule: bool = True
    comparison: str = COMPARE_MEAN

    def __post_init__(self):
        if not self.windows:
            raise ValueError("windows must be non-empty")
        for w in self.windows:
            TangleParams(w)  # the tangler's own window rule
        if not self.deltas_months:
            raise ValueError("deltas_months must be non-empty")
        # half a week or less rounds to a 0-day window; infinitely many weeks overflow.
        # A number out of range gets this message; anything else, the number rule's
        for delta in self.deltas_months:
            if isinstance(delta, (int, float)) and not (
                0 < delta <= sys.float_info.max / WEEKS_PER_MONTH and months_to_days(delta) > 0
            ):
                raise ValueError(
                    "deltas must all be positive and finite, and longer than half a week;"
                    f" got {delta}"
                )
            check_number("deltas_months", delta)
        if self.comparison not in (COMPARE_MEAN, COMPARE_ENDPOINT):
            raise ValueError(f"comparison must be '{COMPARE_MEAN}' or '{COMPARE_ENDPOINT}'")


@dataclass(frozen=True)
class CoincidenceCell:
    """Counts for one (role, horizon) cell.

    ``evaluated`` pairs had price data on both sides; they split into
    ``decrease`` + ``increase`` + ``flat``.  ``dropped`` counts the rest
    (unknown symbol, or nothing traded in one of the windows), so
    ``evaluated + dropped`` equals the pooled pair count for the role.
    Fractions are taken over the non-flat pairs, mirroring how such
    tables are usually read.
    """

    decrease: int = 0
    increase: int = 0
    increase_gt_sigma: int = 0
    flat: int = 0
    dropped: int = 0

    @property
    def evaluated(self) -> int:
        return self.decrease + self.increase + self.flat

    @property
    def comparable(self) -> int:
        return self.decrease + self.increase

    def _fraction(self, count: int) -> float:
        return count / self.comparable if self.comparable else 0.0

    @property
    def decrease_fraction(self) -> float:
        return self._fraction(self.decrease)

    @property
    def increase_fraction(self) -> float:
        return self._fraction(self.increase)

    @property
    def increase_gt_sigma_fraction(self) -> float:
        return self._fraction(self.increase_gt_sigma)


@dataclass(frozen=True)
class CoincidenceTable:
    """Cells keyed by (role, delta_months), plus the pooled pair counts."""

    params: EvalParams
    pair_counts: Mapping[str, int]
    cells: Mapping[tuple[str, float], CoincidenceCell]

    def cell(self, role: str, delta_months: float) -> CoincidenceCell:
        return self.cells[(role, delta_months)]

    def to_dict(self) -> dict:
        """Plain data; cells in role order, then by ascending horizon."""
        return {
            "params": {
                "windows": list(self.params.windows),
                "deltas_months": list(self.params.deltas_months),
                "sigma_rule": self.params.sigma_rule,
                "comparison": self.params.comparison,
            },
            "pairs": dict(self.pair_counts),
            "cells": [
                {
                    "role": role,
                    "delta_months": delta,
                    "evaluated": cell.evaluated,
                    "decrease": cell.decrease,
                    "increase": cell.increase,
                    "increase_gt_sigma": cell.increase_gt_sigma,
                    "flat": cell.flat,
                    "dropped": cell.dropped,
                    "decrease_fraction": cell.decrease_fraction,
                    "increase_fraction": cell.increase_fraction,
                    "increase_gt_sigma_fraction": cell.increase_gt_sigma_fraction,
                }
                for (role, delta), cell in sorted(self.cells.items())
            ],
        }


def _pooled_pairs(seq: BasketSequence, params: EvalParams) -> dict[str, list[tuple[Token, str]]]:
    """Change points pooled over all windows, deduplicated per role on
    (token, date) so one stock entering at one time is counted once."""
    pooled: dict[str, dict[tuple[Token, str], None]] = {ENTRANCE: {}, EXIT: {}}
    for result in sweep(seq, params.windows, BASKET).values():
        for cp in change_points(result):
            if cp.time_label is None:
                raise ValueError("coincidence evaluation needs dated baskets")
            pooled[cp.role].setdefault((cp.token, cp.time_label), None)
    return {role: list(keys) for role, keys in pooled.items()}


def coincidence_table(
    seq: BasketSequence, prices: PriceSeries, params: EvalParams | None = None
) -> CoincidenceTable:
    """Compare prices before and after every pooled change point.

    For each unique (token, date) pair and horizon ``delta`` the window
    ``[t - delta, t)`` is compared against ``(t, t + delta]`` — window
    means by default, last-observation endpoints behind the flag.  Pairs
    with an empty window are dropped for that horizon; exact ties are
    excluded as flat.  The sigma rule flags increases that exceed the
    sample standard deviation of the before-window.
    """
    if params is None:
        params = EvalParams()
    pairs = _pooled_pairs(seq, params)
    if not pairs[ENTRANCE] and not pairs[EXIT]:
        raise EmptyEvaluationError("no change points to evaluate")

    cells: dict[tuple[str, float], CoincidenceCell] = {}
    for role in (ENTRANCE, EXIT):
        role_pairs = []
        missing = 0
        for token, label in pairs[role]:
            if token not in prices:
                logger.warning("no prices for %s; dropping its %s at %s", token, role, label)
                missing += 1
                continue
            role_pairs.append((token, parse_date(label)))
        for delta in dict.fromkeys(params.deltas_months):
            days = months_to_days(delta)
            decrease = increase = gt_sigma = flat = 0
            dropped = missing
            for token, day in role_pairs:
                before, after = prices.around(token, day, days)
                if not before or not after:
                    dropped += 1
                    continue
                if params.comparison == COMPARE_MEAN:
                    level_before, level_after = fmean(before), fmean(after)
                else:
                    level_before, level_after = before[-1], after[-1]
                if level_after > level_before:
                    increase += 1
                    sigma = stdev(before) if len(before) >= 2 else 0.0
                    if level_after - level_before > sigma:
                        gt_sigma += 1
                elif level_after < level_before:
                    decrease += 1
                else:
                    flat += 1
            cells[(role, delta)] = CoincidenceCell(
                decrease=decrease,
                increase=increase,
                increase_gt_sigma=gt_sigma,
                flat=flat,
                dropped=dropped,
            )

    pair_counts = {role: len(pairs[role]) for role in (ENTRANCE, EXIT)}
    return CoincidenceTable(params=params, pair_counts=pair_counts, cells=cells)


# ------------------------------------------------------------ delay stability


class StabilityRecord(NamedTuple):
    """Whether one full-run change point is already reported by a prefix."""

    change_point: ChangePoint
    prefix_baskets: int
    stable: bool


def tolerant_delay_check(
    seq: BasketSequence, params: TangleParams, dt_baskets: int
) -> list[StabilityRecord]:
    """Compare the full run's change points with those of truncated runs.

    For every change point at basket ``t`` of the full run, the sequence
    is cut after basket ``t + dt_baskets``; the change point is stable if
    a run on that prefix reports the same (event, role).  The full run
    alone answers, in O(L): every exit is stable, and an entrance is
    stable exactly when the cut keeps the basket of its *partner*, the
    later end of the first match of the entrance's pill.
    """
    check_count("dt_baskets", dt_baskets, 0)
    result = tangle(seq, params)
    basket_of, earlier = seq.basket_membership, result.earlier
    records = []
    for cp in change_points(result):
        keep = min(cp.basket_index + dt_baskets + 1, seq.basket_count)
        # the partner is the first event that revisited the entrance, in its pill
        index = cp.event_index
        stable = cp.role == EXIT or basket_of[earlier.index(index, index + 1)] < keep
        records.append(StabilityRecord(change_point=cp, prefix_baskets=keep, stable=stable))
    return records


# -------------------------------------------------------------- synthetic data

MAX_SYNTHETIC_ITEMS = 10_000_000  # 10x the items of a 1M-token string


@dataclass(frozen=True)
class RegimeSpec:
    """One regime: its ``vocabulary`` (a non-empty sequence of non-empty ``str``,
    not one ``str``), its length ``length_baskets`` (an int >= 1) and its
    within-regime ``repeat_rate`` (a number in [0, 1])."""

    vocabulary: tuple[str, ...]
    length_baskets: int
    repeat_rate: float = 0.6

    def __post_init__(self):
        vocab = self.vocabulary
        if isinstance(vocab, str) or not vocab or not all(isinstance(t, str) and t for t in vocab):
            raise ValueError(f"vocabulary must be non-empty, of non-empty str; got {vocab!r}")
        check_count("length_baskets", self.length_baskets, 1)
        check_rate("repeat_rate", self.repeat_rate)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a seeded synthetic basket sequence.

    Baskets inside a regime draw from its vocabulary; with probability
    ``repeat_rate`` a slot repeats an item of the previous basket of the
    same regime, which is what creates pills.  ``noise_rate`` swaps the
    drawn item for one from the global vocabulary.  ``start_date`` dates
    the baskets weekly (None leaves them undated).  Types: ``regimes`` a
    non-empty tuple of :class:`RegimeSpec`, ``noise_rate`` a number in [0, 1],
    ``seed`` an int >= 0, ``basket_size`` an int >= 1, ``start_date`` a date ``str``.
    """

    regimes: tuple[RegimeSpec, ...]
    noise_rate: float = 0.0
    seed: int = 0
    basket_size: int = 5
    start_date: str | None = "2000-01-07"

    def __post_init__(self):
        if not self.regimes:
            raise ValueError("at least one regime is required")
        if not all(isinstance(regime, RegimeSpec) for regime in self.regimes):
            raise ValueError(f"every regime must be a RegimeSpec, got {self.regimes!r}")
        check_rate("noise_rate", self.noise_rate)
        check_count("seed", self.seed, 0)
        check_count("basket_size", self.basket_size, 1)
        baskets = sum(regime.length_baskets for regime in self.regimes)
        if self.basket_size * baskets > MAX_SYNTHETIC_ITEMS:
            raise ValueError(
                f"basket_size {self.basket_size} times {baskets} baskets is more than"
                f" {MAX_SYNTHETIC_ITEMS:,} items"
            )
        if self.start_date is not None:
            if not isinstance(self.start_date, str):
                raise ValueError(f"start_date must be a date string, got {self.start_date!r}")
            if (datetime.date.max - parse_date(self.start_date)).days < 7 * (baskets - 1):
                raise ValueError(
                    f"start_date {self.start_date} puts the last of {baskets} weekly"
                    " baskets past the largest date"
                )


def generate_synthetic(spec: SyntheticSpec) -> tuple[BasketSequence, list[int]]:
    """Generate (sequence, planted boundaries) deterministically from the seed.

    Boundaries are the basket indices where a new regime starts; the start
    of the first regime is not a boundary.
    """
    rng = random.Random(spec.seed)
    global_vocab: list[str] = []
    for regime in spec.regimes:
        global_vocab.extend(regime.vocabulary)

    baskets: list[list[str]] = []
    boundaries: list[int] = []
    for ordinal, regime in enumerate(spec.regimes):
        if ordinal > 0:
            boundaries.append(len(baskets))
        previous: list[str] | None = None
        for _ in range(regime.length_baskets):
            items = []
            for _ in range(spec.basket_size):
                if previous is not None and rng.random() < regime.repeat_rate:
                    item = rng.choice(previous)
                else:
                    item = rng.choice(regime.vocabulary)
                if spec.noise_rate and rng.random() < spec.noise_rate:
                    item = rng.choice(global_vocab)
                items.append(item)
            baskets.append(items)
            previous = items

    labels: list[str | None] | None = None
    if spec.start_date is not None:
        first = parse_date(spec.start_date)
        labels = [
            (first + datetime.timedelta(weeks=k)).isoformat() for k in range(len(baskets))
        ]
    return from_baskets(baskets, labels), boundaries


@dataclass(frozen=True)
class DetectionScore:
    """Greedy one-to-one matching of detected vs planted boundaries."""

    matches: int
    detected: int
    planted: int

    @property
    def precision(self) -> float:
        return self.matches / self.detected if self.detected else 1.0

    @property
    def recall(self) -> float:
        return self.matches / self.planted if self.planted else 1.0


def score_detection(
    detected: Iterable[int], planted: Iterable[int], tolerance: int
) -> DetectionScore:
    """Match each detection to the nearest unused planted boundary.

    Detections are visited in order; a detection matches the closest
    still-unmatched boundary within ``tolerance`` baskets (earlier
    boundary on a tie).  Empty detection lists score precision 1.0 with
    zero matches.
    """
    check_count("tolerance", tolerance, 0)
    hits = 0
    detections = sorted(detected)
    remaining = sorted(planted)
    used = [False] * len(remaining)
    for d in detections:
        best = None
        best_key = None
        for idx, p in enumerate(remaining):
            if used[idx] or abs(p - d) > tolerance:
                continue
            key = (abs(p - d), p)
            if best_key is None or key < best_key:
                best, best_key = idx, key
        if best is not None:
            used[best] = True
            hits += 1
    return DetectionScore(matches=hits, detected=len(detections), planted=len(remaining))
