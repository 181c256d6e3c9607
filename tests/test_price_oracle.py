"""``parse_prices`` against the straightforward parser in ``price_oracle``.

Generated price files are a grid of (date, symbol) rows, in date-major
or symbol-major order, with formatting noise and faults mixed in: blank
rows, rows of only commas, cells padded with ASCII and non-ASCII
whitespace, rows of 2 and 4 cells, bad or impossible dates, empty
symbols, bad prices, and dates that repeat or go backwards.  Both
parsers must give the same observations for every symbol, or raise a
``ParseError`` of the same type, message and line.

NUL bytes and the date forms ``parse_date`` no longer reads
(``20070706``, week dates, non-ASCII digits) stay out of the files:
there the two parsers differ on purpose, and ``test_ingest.py`` covers
them.
"""

import datetime
import io
import re

from hypothesis import assume, given, settings, strategies as st

import price_oracle
from tangled_string import ParseError, parse_prices

FIRST_DAY = datetime.date(2008, 2, 25)  # the grid crosses a leap day and a month end
SYMBOLS = ["A", "B", "ZORG", "é"]
PADDING = st.sampled_from(["", "", " ", "\t", "  ", "\xa0", "　"])
BAD_DATES = [
    "", "not-a-date", "2007-02-30", "2008.2.30", "2007-13-01", "07/06/2007", "2007.7", "2007-7-6"
]
BAD_SYMBOLS = ["", " ", "\xa0", "　 "]
BAD_PRICES = ["", "ten", "0", "-0", "0.0", "-3", "nan", "inf", "-inf", "1,5", "1e999", "--1"]
CELL_FAULTS = {"date": (0, BAD_DATES), "symbol": (1, BAD_SYMBOLS), "price": (2, BAD_PRICES)}
SHAPES = [[], [""], ["", ""], ["", "", ""], ["", "", "", ""], [" ", "\xa0", "　"]]


@st.composite
def date_cells(draw, day: datetime.date) -> str:
    dotted = f"{day.year}.{day.month}.{day.day}"
    padded = f"{day.year}.{day.month:02d}.{day.day:02d}"
    text = draw(st.sampled_from([day.isoformat(), dotted, padded]))
    return draw(PADDING) + text + draw(PADDING)


@st.composite
def price_cells(draw) -> str:
    value = draw(st.sampled_from(["1", "2.5", "100.0001", "3e2", ".5", "1_000"]))
    return draw(PADDING) + value + draw(PADDING)


@st.composite
def price_files(draw) -> str:
    days = sorted(draw(st.sets(st.integers(0, 9), min_size=1, max_size=5)))
    symbols = draw(st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=3, unique=True))
    grid = [(FIRST_DAY + datetime.timedelta(days=d), s) for d in days for s in symbols]
    if draw(st.booleans()):
        grid.sort(key=lambda cell: symbols.index(cell[1]))  # symbol-major, stable in date
    rows = [
        [draw(date_cells(day)), draw(PADDING) + symbol + draw(PADDING), draw(price_cells())]
        for day, symbol in grid
    ]
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["shape", "date", "symbol", "price", "swap", "repeat"]))
        at = draw(st.integers(0, len(rows) - 1))
        if fault == "shape":
            shape = draw(st.sampled_from(SHAPES + [rows[at][:2], rows[at] + ["1"]]))
            rows.insert(at, list(shape))
        elif fault in CELL_FAULTS:
            column, bad = CELL_FAULTS[fault]
            if column < len(rows[at]):  # an inserted row may be short
                rows[at][column] = draw(PADDING) + draw(st.sampled_from(bad)) + draw(PADDING)
        elif fault == "swap":
            other = draw(st.integers(0, len(rows) - 1))
            rows[at], rows[other] = rows[other], rows[at]
        else:
            rows.insert(at, list(rows[at]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(",".join(row) + end for row in rows)


def outcome(parse, text):
    try:
        series = parse(io.StringIO(text, newline=""))
    except ParseError as exc:
        return type(exc), str(exc), exc.line
    return {symbol: series.observations(symbol) for symbol in series.symbols}


@settings(deadline=None, max_examples=400)
@given(price_files())
def test_parse_prices_agrees_with_the_oracle(text):
    assert outcome(parse_prices, text) == outcome(price_oracle.parse_prices, text)


@settings(deadline=None, max_examples=300)
@given(st.text(alphabet="0123456789-.,e \t\xa0\n\rABn", max_size=80))
def test_parse_prices_agrees_with_the_oracle_on_junk(text):
    # eight digits in a row could form a basic ISO date, which only the oracle reads
    assume(not re.search(r"[0-9]{8}", text))
    assert outcome(parse_prices, text) == outcome(price_oracle.parse_prices, text)
