"""The straightforward price parser, kept as the oracle for ``parse_prices``.

This is ``parse_prices`` as it was before its row loop was tuned: every
row is stripped cell by cell, every date cell is parsed on its own, and
the observations go through the public, sorting ``PriceSeries``
constructor.  ``tests/test_price_oracle.py`` checks that the package's
parser gives the same series, or the same ``ParseError`` (type, message
and line), on generated files.

``parse_date`` here is the old one too, which on Python >= 3.11 reads
every form ``date.fromisoformat`` reads and takes non-ASCII digits in
dotted dates; the generated files keep to the forms both accept.
"""

import csv
import datetime
import math

from tangled_string import ParseError, PriceSeries


def parse_date(text):
    cleaned = text.strip()
    try:
        return datetime.date.fromisoformat(cleaned)
    except ValueError:
        pass
    parts = cleaned.split(".")
    if len(parts) == 3 and all(p.isdigit() for p in parts):
        return datetime.date(int(parts[0]), int(parts[1]), int(parts[2]))
    raise ValueError(f"unparseable date {text!r}")


def _rows(reader):
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None


def parse_prices(lines, delimiter=","):
    reader = csv.reader(lines, delimiter=delimiter)
    observations = {}
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
