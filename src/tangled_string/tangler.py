"""Core segmentation: split a sequence into pills and wire.

The tangler scans the sequence once.  For every event it looks backward
through a bounded window for the earliest previous occurrence of the same
token.  A hit ("match") declares the stretch between the two occurrences a
trend region: the covered events are merged into a *pill*, and the distance
``i - j`` is added to the earlier event's pill weight.  Events never swept
into a pill remain on the *wire*, the thread connecting consecutive pills.

The window is every event in the ``W`` baskets up to and including the
current event's basket, restricted to events strictly before it.  On a
match, the whole basket of each endpoint joins the pill, so pills stay
aligned to basket boundaries.  The ``plain`` variant ignores baskets: its
window is the ``W`` events immediately preceding the current one, which is
this rule at ``W + 1`` over one-event baskets.  A wider window keeps every
match and only moves its earlier end back, so pills nest across timescales:
every pill at width ``W`` lies inside one pill at ``W + 1``.

Each pill records its span endpoints (first/last member) and its revisit
endpoints: the entrance is the earlier event of the chronologically first
match inside the pill, the exit is the later event of the chronologically
last one.  Both span endpoints carry the pill's span as wire weight.

The scan keeps one deque of recent occurrence indices per token.  Window
floors only ever move forward, so stale occurrences are dropped for good
and the whole run costs O(L) regardless of W.

The scan is causal: a run on a prefix of whole baskets holds exactly the
full run's matches that end inside it.  Pills only grow and a merge keeps
the entrance of the deepest builder it pops, so the prefix reports an
entrance exactly when it holds the first match of the entrance's pill,
and an exit from the exit's own basket on: a later match in that basket
would have merged into the pill and become its exit.

A record built once per match, pill, change point, key event or delay
record is a named tuple.  Parameter objects and once-per-run results
(``TangleParams``, ``TangleResult``, ...) are frozen dataclasses.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_right
from collections import defaultdict, deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple

from .errors import check_count
from .sequence import BasketSequence, Token

PLAIN = "plain"
BASKET = "basket"

ENTRANCE = "entrance"
EXIT = "exit"


@dataclass(frozen=True)
class TangleParams:
    """Window width (``window_w``, an int >= 1) and window rule (plain or basket)."""

    window_w: int
    variant: str = BASKET

    def __post_init__(self):
        check_count("window_w", self.window_w, 1)
        if self.variant not in (PLAIN, BASKET):
            raise ValueError(f"variant must be '{PLAIN}' or '{BASKET}', got {self.variant!r}")


class Match(NamedTuple):
    """A backward hit: event ``later`` revisited the token of ``earlier``."""

    earlier: int
    later: int


class Pill(NamedTuple):
    """A contiguous trend interval.

    ``first_event``/``last_event`` are the span endpoints; every event in
    between is a member.  ``entrance_event``/``exit_event`` are the revisit
    endpoints actually reported as change points; they always lie inside
    the span, but basket alignment can push the span endpoints past them.
    """

    first_event: int
    last_event: int
    entrance_event: int
    exit_event: int

    @property
    def span(self) -> int:
        return self.last_event - self.first_event

    @property
    def members(self) -> range:
        return range(self.first_event, self.last_event + 1)

    def __contains__(self, index: int) -> bool:
        return self.first_event <= index <= self.last_event


class KeyEvent(NamedTuple):
    """A ranked heavy event, either inside a pill or on the wire."""

    event_index: int
    token: Token
    weight: int
    rank: int
    role: str | None = None  # ENTRANCE or EXIT on the wire, None inside a pill


class ChangePoint(NamedTuple):
    """An entrance or exit event with its basket coordinates."""

    event_index: int
    token: Token
    role: str  # ENTRANCE or EXIT
    basket_index: int
    time_label: str | None


@dataclass(frozen=True)
class TangleResult:
    """Everything one tangling run produced.

    ``pills`` are disjoint and ordered; ``wire_events`` is the ordered
    complement of their members.  ``pill_weight`` holds the accumulated
    revisit distances (absent index = zero); ``wire_weight`` is nonzero
    exactly on each pill's entrance and exit, where it equals the span.
    ``earlier[i]`` is the event that event ``i`` revisited, or -1 if none:
    each event is the later end of at most one match and every match points
    backward, so the matches form a forest rooted at the unmatched events.
    """

    sequence: BasketSequence
    params: TangleParams
    pills: tuple[Pill, ...]
    wire_events: tuple[int, ...]
    pill_weight: Mapping[int, int]
    wire_weight: Mapping[int, int]
    earlier: array

    @property
    def matches(self) -> tuple[Match, ...]:
        """The (earlier, later) hits in scan order, derived from ``earlier``."""
        return tuple(Match(j, i) for i, j in enumerate(self.earlier) if j >= 0)

    def pill_of(self, index: int) -> Pill | None:
        """The pill containing event ``index``, if any (binary search)."""
        number = bisect_right(self.pills, index, key=attrgetter("first_event")) - 1
        if number >= 0 and index <= self.pills[number].last_event:
            return self.pills[number]
        return None


def _scan(
    seq: BasketSequence, params: TangleParams
) -> tuple[list[tuple], array, dict[int, int]]:
    """The scan engine: run the events of ``seq`` in order and return
    ``(builders, earlier, pill_weight)``."""
    tokens = seq.tokens
    window = params.window_w
    if params.variant == PLAIN:  # the basket rule at W + 1 over one-event baskets
        window += 1
    # basket k holds events bounds[k] .. bounds[k + 1] - 1.  Over one-event
    # baskets both indices are the identity, built once as a tuple: the
    # loop indexes a range slower, and a plain sequence stores a range.
    if params.variant == PLAIN or seq.basket_count == len(seq):
        basket_of = bounds = tuple(range(len(seq) + 1))
    else:
        basket_of, bounds = seq.basket_membership, (*seq.basket_starts, len(seq))

    occurrences: dict[Token, deque[int]] = defaultdict(deque)
    earlier = array("q", [-1]) * len(tokens)
    pill_weight: dict[int, int] = {}
    # pills in progress as (first, last, entrance, exit), disjoint and
    # ordered; a merge only ever absorbs the tail of the stack.  Every
    # match of a builder comes before every match of the builders above
    # it, so a merge takes the entrance of the deepest builder it pops
    # (the last one), or ``j`` if it pops none.  No builder ends after
    # ``high``, the end of ``i``'s basket: every earlier match ended at or
    # before it.
    builders: list[tuple[int, int, int, int]] = []

    for i in range(len(tokens)):
        token = tokens[i]
        recent = occurrences[token]
        if recent:
            k = basket_of[i]
            floor = bounds[k - window + 1] if k >= window else 0
            while recent and recent[0] < floor:
                recent.popleft()
        if recent:
            j = recent[0]
            low, high = bounds[basket_of[j]], bounds[k + 1] - 1
            entrance = j
            while builders and builders[-1][1] >= low:
                first, _, entrance, _ = builders.pop()
                if first < low:
                    low = first
            builders.append((low, high, entrance, i))
            pill_weight[j] = pill_weight.get(j, 0) + (i - j)
            earlier[i] = j
        recent.append(i)
    return builders, earlier, pill_weight


def tangle(seq: BasketSequence, params: TangleParams) -> TangleResult:
    """Segment ``seq`` into pills and wire under ``params``.

    Deterministic: equal inputs give equal results, with matches resolved
    to the earliest same-token event inside the window.
    """
    builders, earlier, pill_weight = _scan(seq, params)
    pills = tuple(map(Pill._make, builders))
    wire_weight: dict[int, int] = {}
    wire_events: list[int] = []
    cursor = 0
    for pill in pills:
        wire_weight[pill.entrance_event] = pill.span
        wire_weight[pill.exit_event] = pill.span
        wire_events.extend(range(cursor, pill.first_event))
        cursor = pill.last_event + 1
    wire_events.extend(range(cursor, len(seq)))

    return TangleResult(
        sequence=seq,
        params=params,
        pills=pills,
        wire_events=tuple(wire_events),
        pill_weight=pill_weight,
        wire_weight=wire_weight,
        earlier=earlier,
    )


def _top_k(weights: Mapping[int, int], k: int) -> list[tuple[int, int]]:
    # heaviest first, ties broken toward the earlier event: sorted(...)[:k]
    # without sorting the rest
    check_count("k", k, 1)
    return heapq.nsmallest(k, weights.items(), key=lambda item: (-item[1], item[0]))


def key_pill_events(result: TangleResult, k: int) -> list[KeyEvent]:
    """The k heaviest in-pill events by accumulated revisit distance."""
    tokens = result.sequence.tokens
    return [
        KeyEvent(index, tokens[index], weight, rank)
        for rank, (index, weight) in enumerate(_top_k(result.pill_weight, k), start=1)
    ]


def key_wire_events(result: TangleResult, k: int) -> list[KeyEvent]:
    """The k heaviest wire-weighted events (pill entrances and exits)."""
    tokens = result.sequence.tokens
    events = []
    for rank, (index, weight) in enumerate(_top_k(result.wire_weight, k), start=1):
        role = ENTRANCE if result.pill_of(index).entrance_event == index else EXIT
        events.append(KeyEvent(index, tokens[index], weight, rank, role))
    return events


def change_points(result: TangleResult) -> list[ChangePoint]:
    """One entrance and one exit record per pill, in basket order."""
    seq = result.sequence
    tokens, basket_of, labels = seq.tokens, seq.basket_membership, seq.time_labels
    records = []
    # pills are disjoint and ordered, each entrance before its exit: no sort needed
    for pill in result.pills:
        for index, role in ((pill.entrance_event, ENTRANCE), (pill.exit_event, EXIT)):
            basket = basket_of[index]
            records.append(ChangePoint(index, tokens[index], role, basket, labels[basket]))
    return records


def sweep(
    seq: BasketSequence, windows: Iterable[int], variant: str = BASKET
) -> dict[int, TangleResult]:
    """Tangle the same sequence at several window widths; map W -> result."""
    results = {w: tangle(seq, TangleParams(w, variant)) for w in dict.fromkeys(windows)}
    if not results:
        raise ValueError("windows must be non-empty")
    return results
