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
this rule at ``W + 1`` over one-event baskets.

Each pill records its span endpoints (first/last member) and its revisit
endpoints: the entrance is the earlier event of the chronologically first
match inside the pill, the exit is the later event of the chronologically
last one.  Both span endpoints carry the pill's span as wire weight.

The scan keeps one deque of recent occurrence indices per token.  Window
floors only ever move forward, so stale occurrences are dropped for good
and the whole run costs O(L) regardless of W.

The scan is causal, and in the basket variant a pill reaches at most to
the end of its last match's basket.  So paused at a basket boundary, its
state is exactly that of a run on the events before the boundary; one
scan pausing at several boundaries answers for every such prefix.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict, deque
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple

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
        if type(self.window_w) is not int or self.window_w < 1:
            raise ValueError(f"window_w must be an int >= 1, got {self.window_w!r}")
        if self.variant not in (PLAIN, BASKET):
            raise ValueError(f"variant must be '{PLAIN}' or '{BASKET}', got {self.variant!r}")


class Match(NamedTuple):
    """A backward hit: event ``later`` revisited the token of ``earlier``."""

    earlier: int
    later: int


@dataclass(frozen=True)
class Pill:
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


@dataclass(frozen=True)
class KeyEvent:
    """A ranked heavy event, either inside a pill or on the wire."""

    event_index: int
    token: Token
    weight: int
    rank: int
    role: str | None = None  # ENTRANCE or EXIT on the wire, None inside a pill


@dataclass(frozen=True)
class ChangePoint:
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
    ``matches`` lists the (earlier, later) hits in scan order.
    """

    sequence: BasketSequence
    params: TangleParams
    pills: tuple[Pill, ...]
    wire_events: tuple[int, ...]
    pill_weight: Mapping[int, int]
    wire_weight: Mapping[int, int]
    matches: tuple[Match, ...]

    def pill_of(self, index: int) -> Pill | None:
        """The pill containing event ``index``, if any (binary search)."""
        number = bisect_right(self.pills, index, key=attrgetter("first_event")) - 1
        if number >= 0 and index <= self.pills[number].last_event:
            return self.pills[number]
        return None


def _scan(
    seq: BasketSequence, params: TangleParams, stops: Iterable[int] = ()
) -> Iterator[tuple[list[tuple], list[Match], dict[int, int]]]:
    """The scan engine: run the events of ``seq`` in order.

    Pauses before each event index in ``stops`` (nondecreasing) and once
    at the end, yielding the live state ``(builders, matches,
    pill_weight)``; it is valid until the generator is resumed.
    """
    tokens = seq.tokens
    window = params.window_w
    basket_of = seq.basket_membership
    # basket k holds events bounds[k] .. bounds[k + 1] - 1
    bounds = (*seq.basket_starts, len(seq))
    if params.variant == PLAIN:  # the basket rule at W + 1 over one-event baskets
        window += 1
        if seq.basket_count < len(seq):  # tuples: the loop indexes a range slower
            basket_of = bounds = tuple(range(len(seq) + 1))

    occurrences: dict[Token, deque[int]] = defaultdict(deque)
    matches: list[Match] = []
    pill_weight: dict[int, int] = {}
    # pills in progress as (first, last, entrance, exit), disjoint and
    # ordered; a merge only ever absorbs the tail of the stack.  Every
    # match of a builder comes before every match of the builders above
    # it, so a merge takes the entrance of the deepest builder it pops
    # (the last one), or ``j`` if it pops none.  No builder ends after
    # ``high``, the end of ``i``'s basket: every earlier match ended at or
    # before it.
    builders: list[tuple[int, int, int, int]] = []

    start = 0
    for end in (*stops, len(tokens)):
        for i in range(start, end):
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
                matches.append(Match(j, i))
            recent.append(i)
        start = end
        yield builders, matches, pill_weight


def tangle(seq: BasketSequence, params: TangleParams) -> TangleResult:
    """Segment ``seq`` into pills and wire under ``params``.

    Deterministic: equal inputs give equal results, with matches resolved
    to the earliest same-token event inside the window.
    """
    builders, matches, pill_weight = next(_scan(seq, params))
    pills = tuple(Pill(*builder) for builder in builders)
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
        matches=tuple(matches),
    )


def _reported_before(
    seq: BasketSequence, params: TangleParams, points: Iterable[ChangePoint], ends: Iterable[int]
) -> Iterator[bool]:
    """Whether a run on the events before ``ends[n]`` reports ``points[n]``.

    Each end is a basket start or ``len(seq)``, and the ends are
    nondecreasing; one scan pausing at every end answers all of them.  A
    cut run reports an entrance or exit iff the pill in progress that
    contains the event has it as that endpoint.
    """
    for cp, (builders, _, _) in zip(points, _scan(seq, params, ends)):
        index = cp.event_index
        number = bisect_right(builders, index, key=itemgetter(0)) - 1
        yield number >= 0 and builders[number][2 if cp.role == ENTRANCE else 3] == index


def _top_k(weights: Mapping[int, int], k: int) -> list[tuple[int, int]]:
    # heaviest first; ties broken toward the earlier event
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ranked = sorted(weights.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


def key_pill_events(result: TangleResult, k: int) -> list[KeyEvent]:
    """The k heaviest in-pill events by accumulated revisit distance."""
    tokens = result.sequence.tokens
    return [
        KeyEvent(index, tokens[index], weight, rank)
        for rank, (index, weight) in enumerate(_top_k(result.pill_weight, k), start=1)
    ]


def key_wire_events(result: TangleResult, k: int) -> list[KeyEvent]:
    """The k heaviest wire-weighted events (pill entrances and exits)."""
    role_of: dict[int, str] = {}
    for pill in result.pills:
        role_of[pill.entrance_event] = ENTRANCE
        role_of[pill.exit_event] = EXIT
    tokens = result.sequence.tokens
    return [
        KeyEvent(index, tokens[index], weight, rank, role=role_of[index])
        for rank, (index, weight) in enumerate(_top_k(result.wire_weight, k), start=1)
    ]


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
