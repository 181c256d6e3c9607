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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import EmptyBasketError, ParseError
from .sequence import BasketSequence

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FormatOptions:
    """How basket rows are shaped.

    ``delimiter`` separates cells (comma or tab); ``has_header`` skips the
    first row.
    """

    delimiter: str = ","
    has_header: bool = False


def parse_date(text: str) -> datetime.date:
    """Parse an ISO (2007-07-06) or dotted (2007.7.6) date; raises ValueError otherwise."""
    cleaned = text.strip()
    try:
        return datetime.date.fromisoformat(cleaned)
    except ValueError:
        pass
    parts = cleaned.split(".")
    if len(parts) == 3 and all(p.isdigit() for p in parts):
        return datetime.date(int(parts[0]), int(parts[1]), int(parts[2]))
    raise ValueError(f"unparseable date {text!r}")


def _rows(reader) -> Iterable[tuple[int, list[str]]]:
    # surface csv-level failures (an oversized field; a NUL byte before
    # Python 3.11) as ParseError, not a crash
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None


def parse_baskets(
    lines: Iterable[str], options: FormatOptions | None = None
) -> BasketSequence:
    """Read ``date, item, item, ...`` rows into a dated BasketSequence.

    Rows must be in date order.  A date equal to the previous row's is
    kept (with a warning); an earlier date, an undated row of items or a
    dated row with no items is an error.
    """
    if options is None:
        options = FormatOptions()
    reader = csv.reader(lines, delimiter=options.delimiter)
    baskets: list[list[str]] = []
    labels: list[str] = []
    skip_header = options.has_header
    for line, row in _rows(reader):
        cells = [cell.strip() for cell in row]
        cells = [cell for cell in cells if cell]
        if not cells:
            continue
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
    return BasketSequence(baskets, labels)


class PriceSeries:
    """Per-symbol price observations, sorted by date.

    Construction validates that each symbol's dates are strictly
    increasing; ``prices_between`` answers windowed queries by bisection.
    """

    __slots__ = ("_dates", "_values")

    def __init__(self, observations: Mapping[str, Iterable[tuple[datetime.date, float]]]):
        self._dates: dict[str, list[datetime.date]] = {}
        self._values: dict[str, list[float]] = {}
        for symbol, pairs in observations.items():
            ordered = sorted(pairs, key=lambda p: p[0])
            dates = [d for d, _ in ordered]
            for prev, nxt in zip(dates, dates[1:]):
                if prev == nxt:
                    raise ValueError(f"duplicate date {prev} for symbol {symbol}")
            self._dates[symbol] = dates
            self._values[symbol] = [float(v) for _, v in ordered]

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(sorted(self._dates))

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._dates

    def observations(self, symbol: str) -> tuple[tuple[datetime.date, float], ...]:
        return tuple(zip(self._dates[symbol], self._values[symbol]))

    def prices_between(
        self,
        symbol: str,
        start: datetime.date,
        end: datetime.date,
        include_start: bool = True,
        include_end: bool = True,
    ) -> list[float]:
        """Values observed for ``symbol`` within the date window."""
        dates = self._dates[symbol]
        lo = bisect_left(dates, start) if include_start else bisect_right(dates, start)
        hi = bisect_right(dates, end) if include_end else bisect_left(dates, end)
        return self._values[symbol][lo:hi]


def parse_prices(lines: Iterable[str], delimiter: str = ",") -> PriceSeries:
    """Read ``date, symbol, price`` rows into a PriceSeries.

    Dates must be strictly increasing within each symbol; prices must be
    positive and finite.
    """
    reader = csv.reader(lines, delimiter=delimiter)
    observations: dict[str, list[tuple[datetime.date, float]]] = {}
    for line, row in _rows(reader):
        cells = [cell.strip() for cell in row]
        if not any(cells):
            continue
        if len(cells) != 3:
            raise ParseError(f"expected date, symbol, price; got {len(cells)} cells", line=line)
        try:
            day = parse_date(cells[0])
        except ValueError as exc:
            raise ParseError(str(exc), line=line) from None
        symbol = cells[1]
        if not symbol:
            raise ParseError("empty symbol", line=line)
        try:
            price = float(cells[2])
        except ValueError:
            raise ParseError(f"unparseable price {cells[2]!r}", line=line) from None
        if not math.isfinite(price) or price <= 0:
            raise ParseError(f"price must be positive and finite, got {cells[2]}", line=line)
        series = observations.setdefault(symbol, [])
        if series and day <= series[-1][0]:
            raise ParseError(
                f"dates for {symbol} must be strictly increasing ({day} after {series[-1][0]})",
                line=line,
            )
        series.append((day, price))
    return PriceSeries(observations)
