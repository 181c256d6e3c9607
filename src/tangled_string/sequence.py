"""Event and basket sequence model.

A sequence is an ordered list of baskets; each basket is the set of items
observed at one time step (a week of ranked stocks, a shopping trip, ...).
A plain string of tokens is the special case of one item per basket.

Events are indexed two ways: by flat position in the whole sequence and by
the basket they belong to.  Indices are zero-based everywhere inside the
package; renderers add one when writing positions out.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, Sequence

from .errors import EmptyBasketError, EmptySequenceError

Token = str


class BasketSequence:
    """Immutable sequence of non-empty baskets of tokens.

    Stores the flattened token list plus enough indexing to answer both
    "which basket is event i in" and "which events make up basket k" in
    constant time.  When every basket holds one item, both indices are the
    identity and are stored as one ``range``, so equal sequences compare
    and hash alike however they were built.
    """

    __slots__ = ("_tokens", "_basket_of", "_basket_starts", "_time_labels")

    def __init__(
        self,
        baskets: Iterable[Iterable[Token]],
        time_labels: Iterable[str | None] | None = None,
    ):
        tokens: list[Token] = []
        basket_of: list[int] = []
        basket_starts: list[int] = []
        for ordinal, basket in enumerate(baskets):
            start = len(tokens)
            tokens.extend(map(str, basket))
            if len(tokens) == start:
                raise EmptyBasketError(f"basket {ordinal} has no items", basket=ordinal)
            basket_starts.append(start)
            basket_of.extend([ordinal] * (len(tokens) - start))
        self._store(tuple(tokens), basket_of, basket_starts, time_labels)

    def _store(
        self,
        tokens: tuple[Token, ...],
        basket_of: Sequence[int],
        basket_starts: Sequence[int],
        time_labels: Iterable[str | None] | None,
    ) -> None:
        """Check the flat form and store it: the only writer of the slots."""
        if not tokens:
            raise EmptySequenceError("sequence has no events")
        if "" in tokens:
            raise ValueError(f"empty token in basket {basket_of[tokens.index('')]}")
        labels = (None,) * len(basket_starts) if time_labels is None else tuple(time_labels)
        if len(labels) != len(basket_starts):
            raise ValueError(f"{len(labels)} time labels for {len(basket_starts)} baskets")
        self._tokens, self._time_labels = tokens, labels
        if len(basket_starts) == len(tokens):  # one item per basket: the identity
            self._basket_of = self._basket_starts = range(len(tokens))
        else:
            self._basket_of, self._basket_starts = tuple(basket_of), tuple(basket_starts)

    # -- sizes ---------------------------------------------------------------

    @property
    def basket_count(self) -> int:
        return len(self._basket_starts)

    def __len__(self) -> int:
        return len(self._tokens)

    # -- lookups -------------------------------------------------------------

    @property
    def tokens(self) -> tuple[Token, ...]:
        return self._tokens

    @property
    def basket_membership(self) -> Sequence[int]:
        """Per-event basket ordinal, parallel to ``tokens``.

        A ``range`` when every basket holds one item, else a tuple.
        """
        return self._basket_of

    @property
    def basket_starts(self) -> Sequence[int]:
        """Flat index of the first event of each basket.

        A ``range`` when every basket holds one item, else a tuple.
        """
        return self._basket_starts

    @property
    def time_labels(self) -> tuple[str | None, ...]:
        return self._time_labels

    def baskets(self) -> Iterator[tuple[Token, ...]]:
        """The tokens of each basket, in order."""
        tokens, starts = self._tokens, self._basket_starts
        for start, end in zip(starts, (*starts[1:], len(tokens))):
            yield tokens[start:end]

    def prefix(self, basket_count: int) -> "BasketSequence":
        """The sub-sequence made of the first ``basket_count`` baskets."""
        if basket_count < 1:
            raise EmptySequenceError("prefix must keep at least one basket")
        count = min(basket_count, self.basket_count)
        return BasketSequence(islice(self.baskets(), count), self._time_labels[:count])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BasketSequence):
            return NotImplemented
        return (
            self._tokens == other._tokens
            and self._basket_of == other._basket_of
            and self._time_labels == other._time_labels
        )

    def __hash__(self) -> int:
        return hash((self._tokens, self._basket_of, self._time_labels))

    def __repr__(self) -> str:
        return f"BasketSequence(events={len(self)}, baskets={self.basket_count})"


def from_plain(tokens: Iterable[Token]) -> BasketSequence:
    """Build a sequence with one single-item basket per token.

    Equal to ``BasketSequence([t] for t in tokens)``, without building a
    basket per token: the indices are one shared ``range``.
    """
    flat = tuple(map(str, tokens))
    seq = object.__new__(BasketSequence)
    seq._store(flat, range(len(flat)), range(len(flat)), None)
    return seq


def from_baskets(
    baskets: Iterable[Sequence[Token]],
    time_labels: Iterable[str | None] | None = None,
) -> BasketSequence:
    """Build a sequence from explicit baskets (optionally dated)."""
    return BasketSequence(baskets, time_labels)
