"""File ingestion: dated basket rows and long-format price rows.

Both parsers are permissive about formatting noise (blank lines, stray
whitespace, empty trailing cells) but strict about substance: a bad date,
a dateless row of items, or a non-positive price is a structured error
carrying the offending line number — never a traceback.
"""

from __future__ import annotations

import csv
import datetime
import logging
import math
import re
from bisect import bisect_left, bisect_right
from typing import Iterable, Mapping

from .errors import EmptyBasketError, ParseError, check_number
from .sequence import BasketSequence

logger = logging.getLogger(__name__)

# the message Python 3.10's csv module gives; from 3.11 csv lets NUL through
_NUL = "line contains NUL"

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_DOTTED_DATE = re.compile(r"([0-9]+)\.([0-9]+)\.([0-9]+)")
_LAST_ORDINAL = datetime.date.max.toordinal()


def parse_date(text: str) -> datetime.date:
    """Parse ``YYYY-MM-DD`` (2007-07-06) or ``Y.M.D`` (2007.7.6) in ASCII
    digits, ignoring surrounding whitespace; raises ValueError otherwise.

    The grammar is checked here, not left to ``date.fromisoformat``, which
    reads more forms on Python >= 3.11 (``20070706``, ``2007-W27-5``).
    """
    cleaned = text.strip()
    if _ISO_DATE.fullmatch(cleaned):
        try:
            return datetime.date.fromisoformat(cleaned)
        except ValueError:
            pass
    elif dotted := _DOTTED_DATE.fullmatch(cleaned):
        try:
            return datetime.date(*map(int, dotted.groups()))
        except OverflowError:
            pass
    raise ValueError(f"unparseable date {text!r}")


def parse_baskets(
    lines: Iterable[str], delimiter: str = ",", has_header: bool = False
) -> BasketSequence:
    """Read ``date, item, item, ...`` rows into a dated BasketSequence.

    ``delimiter`` separates cells; ``has_header`` skips the first row.
    Rows must be in date order.  A date equal to the previous row's is
    kept (with a warning); an earlier date, an undated row of items or a
    dated row with no items is an error.
    """
    reader = csv.reader(lines, delimiter=delimiter)
    baskets: list[list[str]] = []
    labels: list[str] = []
    skip_header = has_header
    # csv-level failures (an oversized field; a NUL byte before Python
    # 3.11) are a ParseError at the line the reader has reached
    try:
        for row in reader:
            line = reader.line_num
            cells = [cell.strip() for cell in row]
            cells = [cell for cell in cells if cell]
            if not cells:
                continue
            if "\0" in "".join(cells):
                raise ParseError(_NUL, line=line)
            if skip_header:
                skip_header = False
                continue
            try:
                day = parse_date(cells[0])
            except ValueError as exc:
                raise ParseError(str(exc), line=line) from None
            items = cells[1:]
            if not items:
                raise EmptyBasketError(
                    f"line {line}: basket dated {day.isoformat()} has no items",
                    basket=len(baskets),
                    line=line,
                )
            label = day.isoformat()
            # ISO labels sort in date order
            if labels and label <= labels[-1]:
                if label < labels[-1]:
                    raise ParseError(f"basket date {label} is before {labels[-1]}", line=line)
                logger.warning("duplicate basket date %s on line %d; keeping both", label, line)
            baskets.append(items)
            labels.append(label)
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None
    return BasketSequence(baskets, labels)


class PriceSeries:
    """Per-symbol price observations, sorted by date.

    Construction validates that each symbol's dates are distinct
    ``datetime.date`` values (a ``str`` or ``datetime`` would break the
    sort and the bisection) and its prices are positive finite numbers;
    ``around`` answers windowed queries by bisection.
    """

    __slots__ = ("_dates", "_values")

    def __init__(self, observations: Mapping[str, Iterable[tuple[datetime.date, float]]]):
        self._dates: dict[str, list[datetime.date]] = {}
        self._values: dict[str, list[float]] = {}
        for symbol, pairs in observations.items():
            pairs = list(pairs)
            for day, price in pairs:  # the rule parse_prices applies to each row
                if type(day) is not datetime.date:
                    raise ValueError(f"date of {symbol} on {day!r} must be a datetime.date")
                check_number(f"price of {symbol} on {day}", price)
                if price <= 0:
                    raise ValueError(f"price of {symbol} on {day} must be positive, got {price!r}")
            ordered = sorted(pairs, key=lambda p: p[0])
            dates = [d for d, _ in ordered]
            for prev, nxt in zip(dates, dates[1:]):
                if prev == nxt:
                    raise ValueError(f"duplicate date {prev} for symbol {symbol}")
            self._dates[symbol] = dates
            self._values[symbol] = [float(v) for _, v in ordered]

    @classmethod
    def _from_columns(
        cls, dates: dict[str, list[datetime.date]], values: dict[str, list[float]]
    ) -> PriceSeries:
        """Adopt per-symbol columns whose dates already strictly increase."""
        series = cls.__new__(cls)
        series._dates, series._values = dates, values
        return series

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(sorted(self._dates))

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._dates

    def observations(self, symbol: str) -> tuple[tuple[datetime.date, float], ...]:
        return tuple(zip(self._dates[symbol], self._values[symbol]))

    def around(
        self, symbol: str, day: datetime.date, days: int
    ) -> tuple[list[float], list[float]]:
        """Values for ``symbol`` in ``[day - days, day)`` and in ``(day, day + days]``.

        A window that would leave the calendar ends at its edge: no date
        lies beyond it, so the window holds the same prices.
        """
        dates, values = self._dates[symbol], self._values[symbol]
        ordinal = day.toordinal()
        start = datetime.date.fromordinal(max(ordinal - days, 1))
        end = datetime.date.fromordinal(min(ordinal + days, _LAST_ORDINAL))
        lo = bisect_left(dates, start)
        below = bisect_left(dates, day, lo)
        above = bisect_right(dates, day, below)
        hi = bisect_right(dates, end, above)
        return values[lo:below], values[above:hi]


def parse_prices(lines: Iterable[str], delimiter: str = ",") -> PriceSeries:
    """Read ``date, symbol, price`` rows into a PriceSeries.

    Rows may come in any symbol order, but dates must be strictly
    increasing within each symbol; prices must be positive and finite.
    """
    reader = csv.reader(lines, delimiter=delimiter)
    # a file repeats each date once per symbol: parse every distinct cell once
    days: dict[str, datetime.date] = {}
    dates_of: dict[str, list[datetime.date]] = {}
    values_of: dict[str, list[float]] = {}
    try:
        for row in reader:
            if len(row) != 3:
                cells = [cell.strip() for cell in row]
                if not any(cells):
                    continue
                raise ParseError(
                    f"expected date, symbol, price; got {len(cells)} cells", line=reader.line_num
                )
            date_cell, symbol, price_cell = row
            day = days.get(date_cell)
            if day is None:
                # a cached date cell is not blank, so only a miss can be a blank row
                if not (date_cell.strip() or symbol.strip() or price_cell.strip()):
                    continue
                try:
                    day = days[date_cell] = parse_date(date_cell.strip())
                except ValueError as exc:
                    raise ParseError(str(exc), line=reader.line_num) from None
            symbol = symbol.strip()
            dates = dates_of.get(symbol)
            if dates is None:
                if not symbol:
                    raise ParseError("empty symbol", line=reader.line_num)
                if "\0" in symbol:
                    raise ParseError(_NUL, line=reader.line_num)
                dates = dates_of[symbol] = []
                values_of[symbol] = []
            # float() ignores the whitespace that strip() removes
            try:
                price = float(price_cell)
            except ValueError:
                raise ParseError(
                    f"unparseable price {price_cell.strip()!r}", line=reader.line_num
                ) from None
            if not 0 < price < math.inf:
                raise ParseError(
                    f"price must be positive and finite, got {price_cell.strip()}",
                    line=reader.line_num,
                )
            if dates and day <= dates[-1]:
                raise ParseError(
                    f"dates for {symbol} must be strictly increasing ({day} after {dates[-1]})",
                    line=reader.line_num,
                )
            dates.append(day)
            values_of[symbol].append(price)
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None
    return PriceSeries._from_columns(dates_of, values_of)
