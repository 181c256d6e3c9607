"""CSV ingestion: permissive about noise, strict about substance."""

import csv
import datetime
import io
import logging
import math

import pytest

from tangled_string import (
    EmptyBasketError,
    EmptySequenceError,
    ParseError,
    PriceSeries,
    ingest,
    parse_baskets,
    parse_date,
    parse_prices,
)


def baskets_of(text, **kwargs):
    return parse_baskets(io.StringIO(text), **kwargs)


def test_basic_rows():
    seq = baskets_of("2007-07-06,A,B\n2007-07-13,C\n")
    assert seq.basket_count == 2
    assert seq.tokens == ("A", "B", "C")
    assert seq.time_labels == ("2007-07-06", "2007-07-13")


def test_dotted_dates_are_normalized():
    seq = baskets_of("2007.7.6,6378,8061\n")
    assert seq.time_labels[0] == "2007-07-06"


def test_tab_delimiter():
    seq = baskets_of("2007-07-06\tA\tB\n", delimiter="\t")
    assert seq.tokens == ("A", "B")


def test_header_and_blank_lines_are_skipped():
    seq = baskets_of("date,items\n\n2007-07-06,A\n   \n2007-07-13,B\n", has_header=True)
    assert seq.basket_count == 2


def test_empty_cells_are_dropped():
    seq = baskets_of("2007-07-06,A,, B ,\n")
    assert seq.tokens == ("A", "B")


def test_row_without_items_is_an_empty_basket():
    with pytest.raises(EmptyBasketError) as err:
        baskets_of("2007-07-06,A\n2007-07-13\n")
    assert err.value.basket == 1
    assert err.value.line == 2


def test_bad_date_reports_line():
    with pytest.raises(ParseError) as err:
        baskets_of("2007-07-06,A\nnot-a-date,B\n")
    assert err.value.line == 2


def test_duplicate_dates_warn_but_are_kept(caplog):
    with caplog.at_level(logging.WARNING):
        seq = baskets_of("2007-07-06,A\n2007.7.6,B\n")
    assert seq.basket_count == 2
    assert any("duplicate" in message for message in caplog.messages)


def test_basket_dates_must_not_go_backwards():
    with pytest.raises(ParseError) as err:
        baskets_of("2007-07-06,A\n2007-07-13,B\n2007.7.7,C\n")
    assert err.value.line == 3
    assert "2007-07-07 is before 2007-07-13" in str(err.value)


def test_empty_input_is_an_empty_sequence():
    with pytest.raises(EmptySequenceError):
        baskets_of("")


def test_arbitrary_bytes_become_parse_errors():
    junk = "\x00\x01\x02,garbage\n"
    with pytest.raises(ParseError):
        baskets_of(junk)
    with pytest.raises(ParseError):
        parse_prices(io.StringIO(junk))


def test_nul_byte_reports_its_line():
    with pytest.raises(ParseError) as err:
        baskets_of("2007-07-06,A\n2007-07-\x0013,B\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_prices(io.StringIO("2007-07-06,ACME,10\n2007-07-13,ACME,1\x001\n"))
    assert err.value.line == 2
    # in an item or a symbol too, although csv rejects NUL only before Python 3.11
    with pytest.raises(ParseError, match="NUL") as err:
        baskets_of("2007-07-06,A\n2007-07-13,B, A\x00B \n")
    assert err.value.line == 2
    with pytest.raises(ParseError, match="NUL") as err:
        parse_prices(io.StringIO("2007-07-06,A,1.0\n2007-07-13,A\x00B,1.0\n"))
    assert err.value.line == 2


def test_csv_error_reports_its_line():
    limit = csv.field_size_limit(16)
    try:
        for parse in (baskets_of, prices_of):
            with pytest.raises(ParseError, match="field larger") as err:
                parse("2007-07-06,A,1\n2007-07-13,A," + "9" * 20 + "\n2007-07-20,A,1\n")
            assert err.value.line == 2
    finally:
        csv.field_size_limit(limit)


def test_parse_date_accepts_both_styles():
    assert parse_date("2007-07-06") == datetime.date(2007, 7, 6)
    assert parse_date(" 2007.7.6 ") == datetime.date(2007, 7, 6)
    with pytest.raises(ValueError):
        parse_date("07/06/2007")


ACCEPTED_DATES = {
    "2007-07-06": datetime.date(2007, 7, 6),
    " 2007-07-06\t": datetime.date(2007, 7, 6),
    "2007.7.6": datetime.date(2007, 7, 6),
    "2007.07.06": datetime.date(2007, 7, 6),
    "\xa02007.7.6\u3000": datetime.date(2007, 7, 6),
    "0001-01-01": datetime.date(1, 1, 1),
    "9999.12.31": datetime.date(9999, 12, 31),
}

REJECTED_DATES = [
    # basic and week forms that date.fromisoformat reads from Python 3.11
    "20070706",
    "2007-W27-5",
    "2007W275",
    "2007-W27",
    # non-ASCII digits
    "２００７.7.6",
    "2007.７.6",
    "٢٠٠٧.7.6",
    "２００７-07-06",
    # neither form
    "",
    "2007-7-6",
    "2007/07/06",
    "07/06/2007",
    "2007.7",
    "2007.7.6.1",
    "+2007.7.6",
    "2007-07-06T00:00",
    # the form, but no such day
    "2007-02-30",
    "2007.2.30",
    "0.1.1",
    "99999999999999999999.1.1",
]


@pytest.mark.parametrize("text", sorted(ACCEPTED_DATES))
def test_parse_date_reads_iso_and_dotted_ascii_dates(text):
    assert parse_date(text) == ACCEPTED_DATES[text]


@pytest.mark.parametrize("text", REJECTED_DATES)
def test_parse_date_rejects_every_other_form(text):
    with pytest.raises(ValueError):
        parse_date(text)


# ---------------------------------------------------------------------- prices


def prices_of(text):
    return parse_prices(io.StringIO(text))


def test_price_rows():
    series = prices_of(
        "2007-07-06,ACME,10.5\n2007-07-13,ACME,11\n2007-07-06,ZORG,3\n"
    )
    assert series.symbols == ("ACME", "ZORG")
    assert "ACME" in series
    assert series.observations("ACME") == (
        (datetime.date(2007, 7, 6), 10.5),
        (datetime.date(2007, 7, 13), 11.0),
    )


def test_price_row_shape_is_enforced():
    with pytest.raises(ParseError) as err:
        prices_of("2007-07-06,ACME\n")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        prices_of("2007-07-06,ACME,10,extra\n")


def test_prices_must_be_positive_and_finite():
    with pytest.raises(ParseError):
        prices_of("2007-07-06,ACME,0\n")
    with pytest.raises(ParseError):
        prices_of("2007-07-06,ACME,-3\n")
    with pytest.raises(ParseError):
        prices_of("2007-07-06,ACME,nan\n")
    with pytest.raises(ParseError):
        prices_of("2007-07-06,ACME,ten\n")


def test_prices_must_be_strictly_increasing_per_symbol():
    with pytest.raises(ParseError) as err:
        prices_of("2007-07-13,ACME,10\n2007-07-06,ACME,11\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        prices_of("2007-07-06,ACME,10\n2007-07-06,ACME,10\n")
    # independent symbols do not interfere
    prices_of("2007-07-13,ACME,10\n2007-07-06,ZORG,11\n")


@pytest.mark.parametrize("day", ["2007-07-13", "2007-07-06"])
def test_repeated_or_earlier_price_date_reports_its_line(day):
    with pytest.raises(ParseError, match="strictly increasing") as err:
        prices_of(f"2007-07-13,ACME,10\n2007-07-20,ZORG,3\n{day},ACME,11\n")
    assert err.value.line == 3


def test_around_window_edges():
    series = prices_of(
        "\n".join(f"2020-01-{day:02d},S,{day}" for day in range(1, 11)) + "\n"
    )
    # [day - days, day) and (day, day + days]: the start and end are kept, day is not
    assert series.around("S", datetime.date(2020, 1, 5), 2) == ([3, 4], [6, 7])
    assert series.around("S", datetime.date(2020, 1, 1), 3) == ([], [2, 3, 4])
    assert series.around("S", datetime.date(2020, 1, 12), 2) == ([10], [])


def test_around_clamps_at_the_calendar_edges():
    first, last = datetime.date.min, datetime.date.max
    series = PriceSeries(
        {"S": [(first, 1.0), (first + datetime.timedelta(days=1), 2.0),
               (last - datetime.timedelta(days=1), 3.0), (last, 4.0)]}
    )
    assert series.around("S", first, 10**9) == ([], [2.0, 3.0, 4.0])
    assert series.around("S", last, 10**9) == ([1.0, 2.0, 3.0], [])


def test_price_series_rejects_duplicate_dates():
    day = datetime.date(2020, 1, 1)
    with pytest.raises(ValueError):
        PriceSeries({"S": [(day, 1.0), (day, 2.0)]})


@pytest.mark.parametrize(
    "day, price",
    [(datetime.date(2020, 1, 10), p) for p in (math.nan, math.inf, 0, -5, True, "1.5", 10**400)]
    # a day that is not a date breaks the bisection against one in ``around``
    + [("2020-01-10", 1.0), (datetime.datetime(2020, 1, 10), 1.0)],
    ids=["nan", "inf", "0", "-5", "True", "1.5", "10**400", "str-day", "datetime-day"],
)
def test_price_series_refuses_what_parse_prices_refuses(day, price):
    # a stored NaN would be counted as a flat pair by coincidence_table
    observations = {"S": [(datetime.date(2020, 1, 3), 1.0), (day, price)]}
    with pytest.raises(ValueError, match="^(price of S on 2020-01-10|date of S on .+) must be"):
        PriceSeries(observations)


def test_price_series_sorts_programmatic_input():
    series = PriceSeries(
        {"S": [(datetime.date(2020, 1, 2), 2.0), (datetime.date(2020, 1, 1), 1.0)]}
    )
    assert [v for _, v in series.observations("S")] == [1.0, 2.0]


def test_each_distinct_date_cell_is_parsed_once_and_never_resorted(monkeypatch):
    calls = []

    def counted(text):
        calls.append(text)
        return parse_date(text)

    def resort(self, observations):
        raise AssertionError("parse_prices went through the sorting constructor")

    monkeypatch.setattr(ingest, "parse_date", counted)
    monkeypatch.setattr(PriceSeries, "__init__", resort)
    # the A and B symbols write the same two days as four distinct cells
    cells = {"A": ["2007-07-06", "2007-07-13"], "B": [" 2007-07-06", "2007.7.13"]}
    text = "".join(
        f"{cells[symbol[0]][k]},{symbol},{k + 1}\n"
        for k in range(2)
        for symbol in ("A1", "B1", "A2", "B2", "A3", "B3")
    )
    series = prices_of(text)
    assert sorted(calls) == sorted(cell.strip() for pair in cells.values() for cell in pair)
    assert series.symbols == ("A1", "A2", "A3", "B1", "B2", "B3")
    assert series.observations("B2") == (
        (datetime.date(2007, 7, 6), 1.0),
        (datetime.date(2007, 7, 13), 2.0),
    )
