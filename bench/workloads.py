"""Workload specs and the benchmark's own seeded input generator.

The generator uses only stdlib ``random`` and never the package's
``generate_synthetic``: a change to the library must not change the load.
The same (workload, seed) pair always writes byte-identical files.
"""

from __future__ import annotations

import datetime
import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path

WEEKLY_START = datetime.date(2000, 1, 7)  # a Friday, like a weekly ranking
PRICE_MARGIN = datetime.timedelta(days=730)  # prices run 2 years past both ends

WINDOWS = "3..6"  # sweep and eval widths, as in the README examples
MAX_WINDOW = 6  # no operation looks back further than this many baskets

# Weekly baskets follow planted regimes, the data model of the package's
# own generator (``generate_synthetic``): one regime after another, each
# drawing its baskets from its own vocabulary.  The acceptance tests'
# recipes give the sizes: a vocabulary about twice the basket size (8-12
# tokens for 5-item baskets, 6-9 for 4-item ones) and regimes of 10 to 30
# baskets.  REGIME_WEEKS takes the top of that range for every regime, so
# that every seed gives the same number of regimes and change points, and
# the delay's cut runs (one per change point) fit in a run.  The source
# paper's data is not available, so this shape is an assumption.
REGIME_WEEKS = 30
REGIME_VOCAB_PER_ITEM = 2
DELTAS = "3,6,12,24"
KEY_EVENTS = 10


PLAIN_SYMBOLS = 30
PLAIN_WINDOW = 10


@dataclass(frozen=True)
class Workload:
    """One seeded input shape and the parameters every operation uses.

    ``baskets`` weekly rows of ``items`` distinct symbols out of
    ``symbols`` form the file input of the CLI commands and the input of
    ``delay``; the commands use the basket variant at ``window``.
    ``segment`` runs on the same baskets, or, when ``plain_events`` is
    set, on a plain string of that many tokens over PLAIN_SYMBOLS symbols
    with the plain variant at PLAIN_WINDOW.  Prices cover every symbol
    from two years before the first basket to two years after the last,
    every weekday (``price_step_days`` 1) or every n-th day.
    """

    name: str
    why: str
    baskets: int
    window: int
    delay_dt: int
    stretch_iterations: int
    price_step_days: int
    plain_events: int = 0
    items: int = 10
    symbols: int = 300


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-weekly",
            why="the paper's setting: 592 weekly top-10 baskets of 300 symbols and 1.2M "
            "daily price rows; loads price ingest and three O(G^2) relaxation steps",
            baskets=592,
            window=4,
            delay_dt=4,
            stretch_iterations=3,
            price_step_days=1,
        ),
        Workload(
            name="scale",
            why="segment on a 1M-token plain string (the O(L) claim); commands on 1,776 "
            "weeks load emit, layout, sweep and one delay cut run per change point",
            baskets=1776,
            window=6,
            delay_dt=0,
            stretch_iterations=1,
            price_step_days=91,
            plain_events=1_000_000,
        ),
    )
}


@dataclass
class Inputs:
    """What the generator wrote, plus the input half of the shape record."""

    baskets_csv: Path
    prices_csv: Path
    plain_txt: Path | None
    shape: dict
    digests: dict


def _symbol_names(count: int) -> list[str]:
    width = len(str(count - 1))
    return [f"S{i:0{width}d}" for i in range(count)]


def basket_dates(workload: Workload) -> list[str]:
    return [(WEEKLY_START + datetime.timedelta(weeks=k)).isoformat() for k in range(workload.baskets)]


def _price_days(workload: Workload, first: str, last: str) -> list[str]:
    day = datetime.date.fromisoformat(first) - PRICE_MARGIN
    end = datetime.date.fromisoformat(last) + PRICE_MARGIN
    days = []
    if workload.price_step_days == 1:
        one = datetime.timedelta(days=1)
        while day <= end:
            if day.weekday() < 5:
                days.append(day.isoformat())
            day += one
    else:
        step = datetime.timedelta(days=workload.price_step_days)
        while day <= end:
            days.append(day.isoformat())
            day += step
    return days


def _regime_baskets(rng: random.Random, workload: Workload, symbols: list[str]) -> list[list[str]]:
    rows: list[list[str]] = []
    while len(rows) < workload.baskets:
        # a vocabulary absent from every basket a window can still see
        recent = {s for row in rows[-MAX_WINDOW - 1:] for s in row}
        vocab = rng.sample([s for s in symbols if s not in recent],
                           REGIME_VOCAB_PER_ITEM * workload.items)
        rows.extend(rng.sample(vocab, workload.items) for _ in range(REGIME_WEEKS))
    return rows[: workload.baskets]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def generate(workload: Workload, seed: int, out_dir: Path) -> Inputs:
    """Write the workload's input files for ``seed`` into ``out_dir``."""
    rng = random.Random(f"{workload.name}:{seed}")
    symbols = _symbol_names(workload.symbols)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = _regime_baskets(rng, workload, symbols)
    dates = basket_dates(workload)
    baskets_csv = out_dir / "baskets.csv"
    baskets_csv.write_text(
        "".join(f"{d},{','.join(r)}\n" for d, r in zip(dates, rows)), encoding="utf-8"
    )

    days = _price_days(workload, dates[0], dates[-1])
    level = {s: 100.0 for s in symbols}
    lines = []
    for day in days:
        for s in symbols:
            level[s] *= math.exp(rng.gauss(0.0, 0.01))
            lines.append(f"{day},{s},{level[s]:.4f}\n")
    prices_csv = out_dir / "prices.csv"
    prices_csv.write_text("".join(lines), encoding="utf-8")

    shape = {
        "baskets": len(rows),
        "basket_events": sum(len(r) for r in rows),
        "basket_tokens": len({t for r in rows for t in r}),
        "price_rows": len(lines),
    }
    plain_txt = None
    if workload.plain_events:
        plain_symbols = _symbol_names(PLAIN_SYMBOLS)
        tokens = [rng.choice(plain_symbols) for _ in range(workload.plain_events)]
        plain_txt = out_dir / "plain.txt"
        plain_txt.write_text("\n".join(tokens) + "\n", encoding="utf-8")
        shape["plain_events"] = len(tokens)
        shape["plain_tokens"] = len(set(tokens))
    shape["segment_events"] = shape.get("plain_events", shape["basket_events"])
    digests = {p.name: _digest(p) for p in (baskets_csv, prices_csv, plain_txt) if p}
    return Inputs(baskets_csv, prices_csv, plain_txt, shape, digests)


def read_baskets(path: Path) -> tuple[list[list[str]], list[str]]:
    """The benchmark's own reader for the file it wrote (not ``parse_baskets``)."""
    baskets, dates = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        cells = line.split(",")
        dates.append(cells[0])
        baskets.append(cells[1:])
    return baskets, dates


def read_plain(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").split()
