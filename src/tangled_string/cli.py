"""Command line front end.

Subcommands: tangle (segment one file), sweep (several window widths plus
a summary CSV), layout (coordinates included), eval (price coincidence
table), synth (seeded synthetic data).  Exit codes: 0 on success, 1 on
usage errors, 2 on malformed input files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from pathlib import Path

from .emit import DEFAULT_KEY_EVENTS, emit_dot, emit_json, json_text
from .errors import (
    EmptyBasketError,
    EmptyEvaluationError,
    EmptySequenceError,
    ParseError,
)
from .evaluator import (
    COMPARE_ENDPOINT,
    COMPARE_MEAN,
    EvalParams,
    RegimeSpec,
    SyntheticSpec,
    coincidence_table,
    generate_synthetic,
)
from .ingest import parse_baskets, parse_prices
from .layout import LayoutParams, assign_positions, stretch
from .tangler import BASKET, PLAIN, TangleParams, _top_k, sweep, tangle

USAGE_EXIT = 1
PARSE_EXIT = 2
MAX_RANGE_WIDTHS = 1000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no option looks like a number: read "-1e-3" and "-inf" as values, like "-1"
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)

    # argparse would sys.exit(2); route usage problems to exit code 1 instead
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _checked_by(cast, rule):
    """An argparse type: ``cast`` the text, then check it by ``rule``, the library
    object that takes the value; the rule's ValueError is the usage message."""

    def parse(text: str):
        try:
            value = cast(text)
            rule(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


def _int_list(text: str) -> tuple[int, ...]:
    """Parse 'N..M' (at most MAX_RANGE_WIDTHS values) or a comma list '3,4,5'."""
    try:
        if ".." not in text:
            return tuple(int(part) for part in text.split(",") if part.strip())
        low, high = text.split("..", 1)
        start, stop = int(low), int(high)
        if stop < start:
            raise ValueError
    except ValueError:
        raise ValueError(f"expected N..M or a comma list of integers, got {text!r}") from None
    # checked before anything is allocated: a huge range would exhaust memory
    if stop - start >= MAX_RANGE_WIDTHS:
        raise ValueError(f"a range N..M may hold at most {MAX_RANGE_WIDTHS} widths, got {text!r}")
    return tuple(range(start, stop + 1))


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"expected a comma list of numbers, got {text!r}") from None


def _add_input_options(parser: argparse.ArgumentParser):
    parser.add_argument("--input", required=True, help="basket CSV file")
    parser.add_argument(
        "--delimiter", default=",", choices=[",", "\t"], help="cell delimiter (default comma)"
    )
    parser.add_argument("--header", action="store_true", help="skip the first row")


def _undecodable(path: str) -> ParseError:
    """The error for a file that is not UTF-8, naming its first bad line."""
    with open(path, "rb") as handle:
        number = 0
        for chunk in handle:
            # split like universal newlines, so line numbers match the parsers'
            for raw in chunk.splitlines():
                number += 1
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    return ParseError(f"{path} is not valid UTF-8 ({exc.reason})", line=number)
    return ParseError(f"{path} is not valid UTF-8")


def _parse_file(path: str, parse, *args):
    """Stream ``path``, strictly decoded, through ``parse(lines, *args)``."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            return parse(handle, *args)
    except UnicodeDecodeError:
        raise _undecodable(path) from None


def _read_sequence(args):
    return _parse_file(args.input, parse_baskets, args.delimiter, args.header)


def _write_text(path: str | Path | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _write_csv(path: str | Path | None, rows):
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    _write_text(path, buffer.getvalue())


def _checked(option: str, step, *args):
    """``step(*args)``, with its ValueError reported as a bad ``option``."""
    try:
        return step(*args)
    except ValueError as exc:
        raise _UsageError(f"{option}: {exc}") from None


def _cmd_tangle(args) -> int:
    """``tangle`` renders JSON or DOT; ``layout`` adds coordinates to the JSON."""
    result = tangle(_read_sequence(args), TangleParams(args.window, args.variant))
    if args.command == "layout":
        params = LayoutParams(args.extension_a, args.stretch_iterations, args.stretch_step)
        layout = _checked("--extension-a", assign_positions, result.sequence, result, params)
        layout = _checked("--stretch-step", stretch, layout, params)
        text = emit_json(result, layout, key_events=args.key_events)
    elif args.format == "dot":
        text = emit_dot(result)
    else:
        text = emit_json(result, key_events=args.key_events)
    _write_text(args.out, text)
    return 0


def _cmd_sweep(args) -> int:
    seq = _read_sequence(args)
    results = sweep(seq, args.windows, variant=args.variant)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [["window", "pill_count", "mean_span", "time_resolution"]]
    for window in sorted(results):
        text = emit_json(results[window], key_events=args.key_events)
        _write_text(out_dir / f"tangle_w{window}.json", text)
        pills = results[window].pills
        if pills:
            mean_span = sum(p.span for p in pills) / len(pills)
            resolution = seq.basket_count / len(pills)
            rows.append([window, len(pills), f"{mean_span:.3f}", f"{resolution:.3f}"])
        else:
            rows.append([window, 0, "", ""])
    _write_csv(out_dir / "sweep_summary.csv", rows)
    return 0


def _cmd_eval(args) -> int:
    seq = _read_sequence(args)
    prices = _parse_file(args.prices, parse_prices, args.delimiter)
    params = EvalParams(
        windows=args.windows,
        deltas_months=args.deltas,
        sigma_rule=not args.no_sigma,
        comparison=args.comparison,
    )
    table = coincidence_table(seq, prices, params).to_dict()
    if args.format == "json":
        _write_text(args.out, json_text(table))
        return 0
    metrics = ["decrease", "increase"]
    if params.sigma_rule:
        metrics.append("increase_gt_sigma")
    rows = [["role", "delta_months", "metric", "count", "fraction"]]
    # the JSON cells, flattened: both formats list the same cells in one order
    for cell in table["cells"]:
        role, delta = cell["role"], cell["delta_months"]
        for metric in metrics:
            fraction = cell[f"{metric}_fraction"]
            rows.append([role, delta, metric, cell[metric], f"{fraction:.4f}"])
    _write_csv(args.out, rows)
    return 0


def _load_synth_spec(path: str, seed_override: int | None) -> SyntheticSpec:
    try:
        raw = _parse_file(path, json.load)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from None
    try:
        regimes = tuple(
            RegimeSpec(
                vocabulary=tuple(str(t) for t in regime["vocabulary"]),
                length_baskets=int(regime["length_baskets"]),
                **_given(regime, repeat_rate=float),
            )
            for regime in raw["regimes"]
        )
        # SyntheticSpec checks a start_date string itself
        fields = _given(
            raw, noise_rate=float, seed=int, basket_size=int, start_date=lambda date: date
        )
        if seed_override is not None:
            fields["seed"] = seed_override
        spec = SyntheticSpec(regimes=regimes, **fields)
        if spec.start_date is None:
            # undated rows are not a basket file tangle can read
            raise ValueError("start_date must be a date, not null")
        return spec
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad synthetic spec in {path}: {exc}") from None


def _given(raw: dict, **casts) -> dict:
    """The keys of ``raw`` named in ``casts``, each coerced by its cast.

    Keys the file leaves out keep the dataclass defaults.
    """
    return {key: cast(raw[key]) for key, cast in casts.items() if key in raw}


def _cmd_synth(args) -> int:
    spec = _load_synth_spec(args.spec, args.seed)
    seq, boundaries = generate_synthetic(spec)
    rows = ([label, *basket] for label, basket in zip(seq.time_labels, seq.baskets()))
    _write_csv(args.out, rows)
    if args.boundaries_out:
        _write_text(args.boundaries_out, json_text({"boundaries": boundaries}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tangled", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True)
    # each option's rule is the one of the library object that takes it
    key_events = _checked_by(int, lambda k: _top_k({}, k))
    windows = _checked_by(_int_list, lambda widths: EvalParams(windows=widths))

    def add_tangle_options(sub):
        _add_input_options(sub)
        sub.add_argument("--window", type=_checked_by(int, TangleParams), required=True)
        sub.add_argument("--variant", default=BASKET, choices=[PLAIN, BASKET])
        sub.add_argument("--out", default=None, help="output file (default stdout)")
        sub.add_argument("--key-events", type=key_events, default=DEFAULT_KEY_EVENTS)
        sub.set_defaults(handler=_cmd_tangle)

    sub = subparsers.add_parser("tangle", help="segment one basket file")
    add_tangle_options(sub)
    sub.add_argument("--format", default="json", choices=["json", "dot"])

    sub = subparsers.add_parser("layout", help="segment and embed in the plane (JSON)")
    add_tangle_options(sub)
    sub.add_argument("--extension-a", type=_checked_by(float, lambda a: LayoutParams(a=a)),
                     default=1.0, help="extrapolation gain")
    sub.add_argument("--stretch-iterations", default=0,
                     type=_checked_by(int, lambda n: LayoutParams(stretch_iterations=n)))
    sub.add_argument("--stretch-step", default=0.05,
                     type=_checked_by(float, lambda step: LayoutParams(stretch_step=step)))

    sub = subparsers.add_parser("sweep", help="tangle at several window widths")
    _add_input_options(sub)
    sub.add_argument("--variant", default=BASKET, choices=[PLAIN, BASKET])
    sub.add_argument("--windows", type=windows, required=True, help="N..M or comma list")
    sub.add_argument("--out-dir", default=".", help="directory for documents and summary")
    sub.add_argument("--key-events", type=key_events, default=DEFAULT_KEY_EVENTS)
    sub.set_defaults(handler=_cmd_sweep)

    sub = subparsers.add_parser("eval", help="price coincidence table for change points")
    _add_input_options(sub)
    sub.add_argument("--prices", required=True, help="date,symbol,price CSV")
    sub.add_argument("--windows", type=windows, default=(3, 4, 5, 6))
    sub.add_argument("--deltas", default=(3.0, 6.0, 12.0, 24.0), help="horizons in months",
                     type=_checked_by(_float_list, lambda ds: EvalParams(deltas_months=ds)))
    sub.add_argument("--no-sigma", action="store_true", help="drop the sigma rule rows")
    sub.add_argument("--comparison", default=COMPARE_MEAN, choices=[COMPARE_MEAN, COMPARE_ENDPOINT])
    sub.add_argument("--format", default="csv", choices=["csv", "json"])
    sub.add_argument("--out", default=None)
    sub.set_defaults(handler=_cmd_eval)

    sub = subparsers.add_parser("synth", help="generate seeded synthetic baskets")
    sub.add_argument("--spec", required=True, help="JSON recipe file")
    sub.add_argument("--seed", type=int, default=None, help="override the spec seed")
    sub.add_argument("--out", default=None, help="basket CSV (default stdout)")
    sub.add_argument("--boundaries-out", default=None, help="planted boundaries JSON")
    sub.set_defaults(handler=_cmd_synth)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ParseError, EmptyBasketError, EmptySequenceError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return PARSE_EXIT
    except (EmptyEvaluationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
